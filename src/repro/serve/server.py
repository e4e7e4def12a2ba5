"""The serving driver loop: multi-tenant inference over one SoC.

This is the layer the paper's Sec. V experiments gesture at ("multiple
applications run concurrently on the same SoC, invoking different
accelerator pipelines") turned into an explicit subsystem: tenants
register dataflows, requests arrive over time, and the server
coalesces, arbitrates and dispatches them as concurrent execution
plans over disjoint tile sets.

Data path of one request::

    submit() -> RequestQueue (admission control, backpressure)
             -> per-tenant batch loop (Batcher: coalesce + pad)
             -> TileArbiter.acquire (all-or-nothing tile grant)
             -> DataflowExecutor.run_process (re-entrant plan)
             -> TileArbiter.release + Completion (latency breakdown)

Attribution: the arbiter guarantees a tenant owns its tiles
exclusively between grant and release, so the hardware-counter delta
over that window (``tile_activity``) is exactly that tenant's
activity — per-tenant utilization without sampling.

Fault integration: when a run degrades (or dies), every device the
registry marked failed is handed back to the arbiter as *unavailable*.
Tenants whose pipelines need a failed tile keep being served through
the runtime's software fallback when the recovery policy allows it,
and are rejected with ``tile-unavailable`` when it does not.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..eval.harness import LatencySummary, summarize_latencies
from ..runtime import Dataflow, DataflowExecutor, EspRuntime
from ..sim import Environment, Event, Interrupt, Process
from ..soc import TileActivity, activity_delta, run_memo, tile_activity
from ..trace.context import (TraceContext, TraceIdAllocator,
                             batch_trace_ids)
from .arbiter import TileArbiter, TileUnavailable
from .batcher import Batch, Batcher
from .queue import RequestQueue
from .request import (
    Completion,
    Failure,
    InferenceRequest,
    REJECT_TILE_UNAVAILABLE,
    Rejection,
    TracedRequest,
)


@dataclass(frozen=True)
class TenantConfig:
    """One registered application: a dataflow plus serving knobs."""

    name: str
    dataflow: Dataflow
    mode: str = "p2p"
    priority: int = 0
    max_batch_frames: int = 32
    #: DMA coherence for the tenant's runs: a single
    #: :class:`~repro.soc.CoherenceMode` (or string value), or a
    #: ``device -> mode`` mapping. ``None`` runs non-coherent unless
    #: the dataflow itself assigns modes.
    coherence: Optional[object] = None
    dvfs: Optional[Dict[str, int]] = None


@dataclass(frozen=True)
class ServerConfig:
    """Global serving knobs."""

    max_queue_depth: int = 64
    policy: str = "fifo"             # tile-arbitration policy
    #: Probation delay for quarantined tiles (``None`` keeps the
    #: permanent quarantine). On re-admission the server resets the
    #: tile and clears its failed mark before the arbiter grants it.
    probation_cycles: Optional[int] = None


@dataclass
class _Tenant:
    """Server-internal per-tenant state."""

    config: TenantConfig
    batcher: Batcher
    tiles: FrozenSet[str]
    input_words: int
    est_cycles_per_frame: int
    #: True while a batch is between drain and release: a reshard
    #: arriving then is deferred to the next loop iteration.
    in_flight: bool = False
    #: Frames of the batch currently in flight (0 between batches) —
    #: the router's view of work already committed to the hardware.
    in_flight_frames: int = 0
    pending_reshard: Optional[TenantConfig] = None
    reshards: int = 0


@dataclass(frozen=True)
class ServerLoad:
    """One server's scheduler-visible load, at one instant.

    The introspection surface a fleet router balances on: what is
    queued (admitted but not yet drained into a batch), what is in
    flight (drained, tiles held, hardware busy), and a cycle-valued
    backlog estimate combining both through each tenant's
    ``est_cycles_per_frame`` pipeline estimate. Reading it never
    schedules events — it is a pure snapshot, usable mid-simulation.
    """

    queued_requests: int
    queued_frames: int
    in_flight_batches: int
    in_flight_frames: int
    #: Estimated cycles to drain everything queued plus in flight.
    est_backlog_cycles: int


@dataclass
class ServerReport:
    """Everything one serving run measured: a view of the server's
    records since :meth:`InferenceServer.open_window` (taken at boot,
    and by ``run_trace`` and ``Fleet.run`` as they start). Every field
    covers that window alone."""

    clock_mhz: float
    makespan_cycles: int
    completions: List[Completion]
    rejections: List[Rejection]
    failures: List[Failure]
    activity_by_tenant: Dict[str, Dict[str, TileActivity]]
    batches_by_tenant: Dict[str, int]
    admitted: int
    peak_queue_depth: int
    #: Cycles each batch waited for its tile grant, in grant order.
    grant_waits: List[int]

    # The summaries are computed when read, from the records above:
    # building the report costs no percentile.

    @property
    def latency_by_tenant(self) -> Dict[str, LatencySummary]:
        """Request latency per served tenant, in tenant order."""
        return self._by_tenant("latency_cycles")

    def _by_tenant(self, attribute: str) -> Dict[str, LatencySummary]:
        samples: Dict[str, List[int]] = {}
        for completion in self.completions:
            samples.setdefault(completion.tenant, []).append(
                getattr(completion, attribute))
        return {tenant: summarize_latencies(samples[tenant])
                for tenant in sorted(samples)}

    @property
    def arbiter_grants(self) -> int:
        return len(self.grant_waits)

    @property
    def arbiter_wait_summary(self) -> Optional[LatencySummary]:
        if not self.grant_waits:
            return None
        return summarize_latencies(self.grant_waits)

    @property
    def completed_frames(self) -> int:
        return sum(c.n_frames for c in self.completions)

    @property
    def makespan_seconds(self) -> float:
        return self.makespan_cycles / (self.clock_mhz * 1e6)

    @property
    def throughput_fps(self) -> float:
        """Aggregate frames per second over the serving window."""
        if self.makespan_cycles == 0:
            return 0.0
        return self.completed_frames / self.makespan_seconds

    def latency_summary(self) -> Optional[LatencySummary]:
        """Aggregate (all-tenant) request latency, in cycles."""
        if not self.completions:
            return None
        return summarize_latencies(
            [c.latency_cycles for c in self.completions])

    def render(self) -> str:
        us = 1.0 / self.clock_mhz   # cycles -> microseconds
        lines = [
            f"== serving report: {len(self.completions)} completed, "
            f"{len(self.rejections)} rejected, "
            f"{len(self.failures)} failed ==",
            f"makespan: {self.makespan_cycles:,} cycles "
            f"({self.makespan_seconds * 1e3:.2f} ms); aggregate "
            f"throughput: {self.throughput_fps:.1f} frames/s",
            f"{'tenant':<12}{'reqs':>6}{'batches':>8}{'p50 us':>10}"
            f"{'p95 us':>10}{'p99 us':>10}{'max us':>10}",
        ]
        for tenant, summary in sorted(self.latency_by_tenant.items()):
            s = summary.scaled(us)
            lines.append(
                f"{tenant:<12}{summary.count:>6}"
                f"{self.batches_by_tenant.get(tenant, 0):>8}"
                f"{s.p50:>10.1f}{s.p95:>10.1f}{s.p99:>10.1f}"
                f"{s.max:>10.1f}")
        for tenant, activity in sorted(self.activity_by_tenant.items()):
            busy = sum(a.busy_cycles for a in activity.values())
            frames = sum(a.frames for a in activity.values())
            lines.append(f"  {tenant}: {frames} device-frames, "
                         f"{busy:,} busy cycles across "
                         f"{len(activity)} tiles")
        lines.append(f"queue: {self.admitted} admitted, peak depth "
                     f"{self.peak_queue_depth}; arbiter: "
                     f"{self.arbiter_grants} grants"
                     + (f", wait {self.arbiter_wait_summary}"
                        if self.arbiter_wait_summary else ""))
        return "\n".join(lines)


class InferenceServer:
    """Multi-tenant serving over one booted SoC runtime."""

    def __init__(self, runtime: EspRuntime,
                 config: Optional[ServerConfig] = None) -> None:
        self.runtime = runtime
        self.executor: DataflowExecutor = runtime.executor
        self.soc = runtime.soc
        self.env: Environment = runtime.soc.env
        self.config = config or ServerConfig()
        self.queue = RequestQueue(self.config.max_queue_depth)
        self.queue.on_admit = self._on_admit
        self.arbiter = TileArbiter(
            self.env, sorted(self.soc.accelerators),
            policy=self.config.policy,
            probation_cycles=self.config.probation_cycles)
        self.arbiter.on_readmit = self.repair_tile
        self._tenants: Dict[str, _Tenant] = {}
        self._loops: List[Process] = []
        self._work: Dict[str, object] = {}
        self._settle_waiters: List[Event] = []
        self._request_sids: Dict[str, int] = {}
        # Deterministic per-server trace-ID mint ("t-0", "t-1", ...);
        # a fleet router supplies its own context, so routed requests
        # never draw from this counter.
        self._trace_ids = TraceIdAllocator("t")
        self._started = False
        # Each request-level fact, kept once since boot; reports and
        # the serve_* metric families are views of these records.
        self.completions: List[Completion] = []
        self.rejections: List[Rejection] = []
        self.failures: List[Failure] = []
        #: One ``(tenant, grant-wait cycles)`` record per batch
        #: dispatched (tiles granted).
        self.dispatches: List[Tuple[str, int]] = []
        #: One ``(tenant, {device: TileActivity})`` record per batch
        #: run: the hardware activity of its exclusive-ownership window.
        self.activity: List[Tuple[str, Dict[str, TileActivity]]] = []
        self.open_window()

    # -- registration ---------------------------------------------------------

    def register(self, config: TenantConfig) -> None:
        """Register a tenant; validates its dataflow against the SoC."""
        if self._started:
            raise RuntimeError("register tenants before starting the "
                               "server")
        if config.name in self._tenants:
            raise ValueError(f"tenant {config.name!r} already registered")
        input_words, est = self._pipeline_estimates(config.dataflow)
        tenant = _Tenant(
            config=config,
            batcher=Batcher(config.dataflow,
                            max_batch_frames=config.max_batch_frames),
            tiles=frozenset(config.dataflow.devices),
            input_words=input_words,
            est_cycles_per_frame=est,
        )
        self._tenants[config.name] = tenant
        self.queue.register(config.name, input_words)

    def _pipeline_estimates(self, dataflow: Dataflow) -> tuple:
        """``(input_words, est_cycles_per_frame)`` for a dataflow;
        validates every device against the registry."""
        registry = self.executor.registry
        for device in dataflow.devices:
            registry.by_name(device)   # raises on unknown devices
        levels = dataflow.levels()
        first = registry.by_name(levels[0][0])
        est = 0
        for names in levels:
            spec = registry.by_name(names[0]).tile.spec
            est += max(1, spec.latency_cycles // len(names))
        return first.tile.spec.input_words, est

    @property
    def tenants(self) -> List[str]:
        return sorted(self._tenants)

    def tenant_tiles(self) -> Dict[str, FrozenSet[str]]:
        """Target tile set per tenant: where each tenant is *headed* —
        a pending (deferred) reshard counts, so a controller does not
        re-remediate a swap that is already scheduled. The tiles a
        dispatch actually holds are snapshotted in ``_dispatch``."""
        placed = {}
        for name, tenant in self._tenants.items():
            config = tenant.pending_reshard or tenant.config
            placed[name] = frozenset(config.dataflow.devices)
        return placed

    def dataflow(self, name: str) -> Dataflow:
        """A tenant's current dataflow (a pending reshard not applied
        yet)."""
        return self._tenants[name].config.dataflow

    def batch_bound(self, name: str) -> int:
        """A tenant's current ``max_batch_frames`` (widening included)."""
        return self._tenants[name].batcher.max_batch_frames

    # -- load introspection (the fleet router's view) -------------------------

    def load(self) -> ServerLoad:
        """Snapshot this server's queued + in-flight load.

        Pure read — no events, no clock movement — so a router may
        call it between lockstep advances without perturbing the sim.
        """
        queued_requests = 0
        queued_frames = 0
        in_flight_batches = 0
        in_flight_frames = 0
        for name, tenant in self._tenants.items():
            requests, frames = self.queue.tenant_backlog(name)
            queued_requests += requests
            queued_frames += frames
            if tenant.in_flight:
                in_flight_batches += 1
                in_flight_frames += tenant.in_flight_frames
        return ServerLoad(
            queued_requests=queued_requests,
            queued_frames=queued_frames,
            in_flight_batches=in_flight_batches,
            in_flight_frames=in_flight_frames,
            est_backlog_cycles=self.backlog_cycles(),
        )

    def backlog_cycles(self) -> int:
        """Estimated cycles to drain every queued and in-flight frame,
        each weighted by its tenant's ``est_cycles_per_frame``: the
        one backlog rule, read by :meth:`load` and by the fleet
        router's least-loaded policy. A pure read, like :meth:`load`.
        """
        backlog = 0
        for name, tenant in self._tenants.items():
            # ``in_flight_frames`` is 0 between batches.
            frames = self.queue.tenant_backlog(name)[1] \
                + tenant.in_flight_frames
            backlog += frames * tenant.est_cycles_per_frame
        return backlog

    def wait_settled(self) -> Event:
        """Event triggering once every request admitted so far has
        settled (completed, failed, or rejected after admission) — the
        drain barrier of ``run_trace`` and ``FleetInstance.drain``."""
        event = self.env.event()
        event.wait_reason = "serve: waiting for admitted requests"
        self._settle_waiters.append(event)
        self._wake_settled()
        return event

    def _wake_settled(self) -> None:
        """Trigger the barrier once no request is queued or in flight."""
        if self._settle_waiters and self.queue.depth == 0 and not any(
                tenant.in_flight for tenant in self._tenants.values()):
            for event in self._settle_waiters:
                event.succeed()
            self._settle_waiters = []

    # -- remediation hooks (driven by the control plane) ----------------------

    def reshard_tenant(self, name: str,
                       mapping: Dict[str, str]) -> str:
        """Re-place a tenant's pipeline onto substitute tiles.

        ``mapping`` renames devices of the tenant's dataflow (old ->
        new); each substitute must implement the same kernel (equal
        spec) so the pipeline's geometry and semantics are unchanged —
        the paper's runtime reconfigurability, exercised to move a
        tenant off a saturated or quarantined tile. Validation happens
        here; the swap itself lands between batches (a batch in flight
        keeps its tiles until it releases them). Returns ``"applied"``
        or ``"deferred"``.
        """
        tenant = self._tenants.get(name)
        if tenant is None:
            raise KeyError(f"no tenant named {name!r}")
        registry = self.executor.registry
        base = tenant.pending_reshard or tenant.config
        for old, new in mapping.items():
            old_spec = registry.by_name(old).spec_name
            new_spec = registry.by_name(new).spec_name
            if old_spec != new_spec:
                raise ValueError(
                    f"cannot reshard {old!r} ({old_spec}) onto "
                    f"{new!r} ({new_spec}): different kernels")
        dataflow = base.dataflow.substitute(mapping)
        dataflow.validate_for(base.mode)
        tenant.pending_reshard = replace(base, dataflow=dataflow)
        if tenant.in_flight:
            return "deferred"
        self._apply_reshard(tenant)
        return "applied"

    def _apply_reshard(self, tenant: _Tenant) -> None:
        config = tenant.pending_reshard
        if config is None:
            return
        tenant.pending_reshard = None
        input_words, est = self._pipeline_estimates(config.dataflow)
        # Keep a widened batch bound across the reshard.
        max_frames = max(tenant.batcher.max_batch_frames,
                         config.max_batch_frames)
        tenant.config = config
        tenant.batcher = Batcher(config.dataflow,
                                 max_batch_frames=max_frames)
        tenant.tiles = frozenset(config.dataflow.devices)
        tenant.input_words = input_words
        tenant.est_cycles_per_frame = est
        tenant.reshards += 1

    def widen_batch(self, name: str, cap: int) -> int:
        """Double a tenant's batch bound up to ``cap`` (queue-saturation
        remediation); returns the new ``max_batch_frames``."""
        tenant = self._tenants.get(name)
        if tenant is None:
            raise KeyError(f"no tenant named {name!r}")
        return tenant.batcher.widen(cap)

    def repair_tile(self, tile: str) -> None:
        """Reset a tile and clear its failure state (probation
        re-admission, or the control plane activating a spare)."""
        self.soc.accelerators[tile].host_reset()
        self.executor.registry.clear_failed(tile)
        self.executor.clear_forced(tile)

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Spawn the per-tenant batch loops (idempotent)."""
        if self._started:
            return
        if not self._tenants:
            raise RuntimeError("no tenants registered")
        self._started = True
        for name in sorted(self._tenants):
            self._loops.append(self.env.process(
                self._tenant_loop(self._tenants[name]),
                name=f"serve:loop:{name}"))

    def stop(self) -> None:
        """Cancel the batch loops (they park between batches)."""
        for loop in self._loops:
            if loop.is_alive:
                loop.interrupt("server stopped")
        self._loops = []
        self._started = False

    # -- submission -------------------------------------------------------------

    def submit(self, tenant: str, frames: np.ndarray,
               priority: int = 0,
               trace_ctx: Optional[TraceContext] = None
               ) -> Optional[Rejection]:
        """Submit one request now; ``None`` on admission.

        A :class:`Rejection` (also recorded on the server) means the
        request never entered the system — backpressure the client
        observes immediately. ``trace_ctx`` propagates an upstream
        trace identity (the fleet router's); when absent the server
        mints one — either way the request carries exactly one
        ``trace_id`` for its whole life.
        """
        if trace_ctx is None:
            trace_ctx = self._trace_ids.mint()
        request = InferenceRequest(tenant=tenant, frames=frames,
                                   priority=priority,
                                   trace_ctx=trace_ctx)
        rejection = self.queue.submit(request, now=self.env.now)
        if rejection is not None:
            self._settle(request, rejection)
            return rejection
        tracer = self.env.tracer
        if tracer is not None:
            self._request_sids[request.request_id] = tracer.begin(
                "serve", f"tenant:{tenant}", request.request_id,
                "serve.request", tenant=tenant,
                frames=request.n_frames, priority=priority,
                trace_id=trace_ctx.trace_id)
            tracer.instant("serve", f"tenant:{tenant}", "admit",
                           "serve.submit", request=request.request_id,
                           trace_id=trace_ctx.trace_id)
        self._trace_depth()
        return None

    def _on_admit(self, request: InferenceRequest) -> None:
        event = self._work.get(request.tenant)
        if event is not None and not event.triggered:
            event.succeed()

    # -- the per-tenant batch loop ------------------------------------------------

    def _can_degrade(self) -> bool:
        policy = self.executor.recovery
        return policy is not None and policy.software_fallback

    def _tenant_loop(self, tenant: _Tenant):
        env = self.env
        name = tenant.config.name
        while True:
            while self.queue.tenant_depth(name) == 0:
                event = env.event()
                event.wait_reason = f"serve:{name} waiting for requests"
                self._work[name] = event
                yield event
            self._apply_reshard(tenant)
            tenant.in_flight = True
            requests = self.queue.drain(
                name, tenant.batcher.max_batch_frames)
            self._trace_depth()
            batch = tenant.batcher.form(requests)
            tenant.in_flight_frames = batch.total_frames
            # The batch's records on the tenant track (this instant, the
            # grant-wait and dispatch spans) read back with its trace
            # IDs: ``trace_id``, plus ``trace_ids`` when it coalesced.
            tracer = env.tracer
            if tracer is not None:
                track = ("serve", f"tenant:{name}")
                tracer.bind(track, batch_trace_ids(requests))
                tracer.instant(*track, "batch", "serve.batch",
                               requests=len(requests))
            try:
                granted = yield from self._acquire_tiles(tenant, batch)
                if granted:
                    yield from self._dispatch(tenant, batch)
            finally:
                tenant.in_flight = False
                tenant.in_flight_frames = 0
                if tracer is not None:
                    tracer.unbind(track)
            self._wake_settled()

    # -- the layer's instrumentation sites ------------------------------------

    def _span(self, tenant: str, name: str, cat: str, batch: Batch, body,
              close, bind: Sequence[str] = (), **args):
        """One step of ``tenant``'s loop: ``body`` inside its span.

        The serve layer's one span site. Untraced, ``body`` is returned
        as is; traced, :meth:`Tracer.drive` ends the span with
        ``close(result)``, or with ``outcome`` ``interrupted`` (loop
        stopped) or ``failed`` on an exception. While it is open, every
        record on the devices in ``bind`` (wrapper phases, DMA bursts,
        driver threads, NoC packets) carries the batch's trace IDs, as
        the span itself does through the tenant loop's binding.
        """
        tracer = self.env.tracer
        if tracer is None:
            return body
        sid = tracer.begin("serve", f"tenant:{tenant}", name, cat, **args)
        keys: List[object] = []
        ids = batch_trace_ids(batch.requests)
        if ids:
            for device in bind:
                keys += [device, ("cpu", f"driver:{device}"),
                         str(self.soc.accelerators[device].coord)]
            for key in keys:
                tracer.bind(key, ids)
        return tracer.drive(sid, body, close, lambda exc: {
            "outcome": "interrupted" if isinstance(exc, Interrupt)
            else "failed"}, bound=keys)

    def _trace_depth(self) -> None:
        """Sample the queue depth into the trace's counter track."""
        if self.env.tracer is not None:
            self.env.tracer.counter("serve", "queue_depth",
                                    depth=self.queue.depth)

    def _settle(self, request: InferenceRequest, outcome) -> None:
        """The serve layer's one settling site: record ``request``'s
        :class:`Completion`, :class:`Rejection` or :class:`Failure`
        and end its request span (a request rejected at submit has
        none). The ``serve_*`` families are views of these records,
        filled at scrape time (``register_server_collectors``).
        """
        if isinstance(outcome, Completion):
            self.completions.append(outcome)
            state = "completed"
        elif isinstance(outcome, Failure):
            self.failures.append(outcome)
            state = "failed"
        else:
            self.rejections.append(outcome)
            state = "rejected"
        sid = self._request_sids.pop(request.request_id, None)
        if sid is not None and self.env.tracer is not None:
            self.env.tracer.end(sid, outcome=state)

    def _acquire_tiles(self, tenant: _Tenant, batch: Batch):
        """All-or-nothing grant of the tenant's tile set.

        Returns True when granted. When a needed tile is unavailable
        (failed), retries the claim in degraded mode if the recovery
        policy supports software fallback, else rejects the batch.
        """
        queued = self.env.now
        error = yield from self._span(
            tenant.config.name, "grant-wait", "serve.grant_wait", batch,
            self._claim(tenant, batch),
            lambda error: {"granted": error is None},
            tiles=len(tenant.tiles))
        if error is not None:
            for request in batch.requests:
                self._settle(request, Rejection(
                    request_id=request.request_id, tenant=request.tenant,
                    reason=REJECT_TILE_UNAVAILABLE, at=self.env.now,
                    detail=str(error)))
            return False
        self.dispatches.append((tenant.config.name, self.env.now - queued))
        return True

    def _claim(self, tenant: _Tenant, batch: Batch):
        """Wait for the grant; ``None`` once granted, else the
        :class:`TileUnavailable` that rejects the batch (retried as a
        degraded claim first if the software fallback can serve it).
        An interrupt withdraws the claim, or hands back a grant landed
        in the same cycle, so a stopped loop holds no tile.
        """
        priority = max([tenant.config.priority]
                       + [r.priority for r in batch.requests])
        est = tenant.est_cycles_per_frame * batch.total_frames
        for degraded in (False, True):
            claim = self.arbiter.acquire(
                tenant.tiles, priority=priority, est_cycles=est,
                allow_unavailable=degraded, label=tenant.config.name)
            try:
                yield claim
                return None
            except TileUnavailable as exc:
                if not self._can_degrade():
                    return exc
            except Interrupt:
                if not self.arbiter.cancel(claim) and claim.ok:
                    self.arbiter.release(claim.value)
                raise

    def _dispatch(self, tenant: _Tenant, batch: Batch):
        """Run one coalesced batch; always releases the tile set."""
        env = self.env
        config = tenant.config
        started = env.now
        # Snapshot the tile set: a reshard landing mid-dispatch swaps
        # ``tenant.tiles``, but *these* tiles are the ones held.
        tiles = tenant.tiles
        names = sorted(tiles)
        before = tile_activity(self.soc, names)
        try:
            result = yield from self._span(
                config.name, "dispatch", "serve.dispatch", batch,
                self.executor.run_process(
                    config.dataflow, batch.frames, config.mode,
                    coherence=config.coherence, dvfs=config.dvfs),
                lambda result: {"outcome": "completed"}, bind=names,
                mode=config.mode, frames=batch.total_frames,
                requests=batch.n_requests)
        except Interrupt:
            self.arbiter.release(tiles)
            raise
        except Exception as exc:
            result = exc
        # Attribute the exclusive-ownership window's hardware activity.
        self.activity.append((config.name, activity_delta(
            before, tile_activity(self.soc, names))))
        self.arbiter.release(tiles)
        self._quarantine_failed(tiles)
        if isinstance(result, Exception):
            for request in batch.requests:
                self._settle(request, Failure(
                    request_id=request.request_id,
                    tenant=request.tenant,
                    submitted_at=request.submitted_at,
                    failed_at=env.now, error=result))
            return
        for request, outputs in batch.split_outputs(result.outputs):
            self._settle(request, Completion(
                request_id=request.request_id,
                tenant=request.tenant,
                submitted_at=request.submitted_at,
                started_at=started,
                completed_at=env.now,
                n_frames=request.n_frames,
                batch_frames=batch.total_frames,
                batch_requests=batch.n_requests,
                degraded=result.degraded,
                outputs=np.array(outputs, copy=True),
                trace_id=request.trace_ctx.trace_id))

    def _quarantine_failed(self, tiles: FrozenSet[str]) -> None:
        registry = self.executor.registry
        for device in tiles:
            if registry.is_failed(device) \
                    and device not in self.arbiter.unavailable_tiles:
                self.arbiter.mark_unavailable(device)

    # -- trace driving --------------------------------------------------------------

    def run_trace(self, trace: Sequence[TracedRequest]) -> ServerReport:
        """Drive a timestamped request trace to completion.

        Opens a report window, submits each entry at ``start +
        entry.at`` cycles, waits until every admitted request settled
        (completed, failed, or rejected post-admission), then stops the
        loops and returns the window's report: it counts this trace
        alone, however many ran on the server before. Owns the event
        loop while running, like ``DataflowExecutor.execute``, and the
        kernel memo of the SoC's tiles (:func:`~repro.soc.run_memo`):
        each dispatched plan adds to it the results its frames miss,
        so frames an earlier request carried are not batched again.
        """
        env = self.env
        self.start()
        self.open_window()
        origin = env.now

        def driver():
            for entry in sorted(trace, key=lambda t: t.at):
                target = origin + entry.at
                if target > env.now:
                    yield env.timeout(target - env.now)
                self.submit(entry.tenant, entry.frames,
                            priority=entry.priority)
            return None

        with run_memo(self.soc.accelerators.values()):
            env.run(until=env.process(driver(), name="serve:trace-driver"))
            env.run(until=self.wait_settled())
        self.stop()
        return self.report(makespan_cycles=env.now - origin)

    # -- reporting --------------------------------------------------------------------

    def open_window(self) -> None:
        """Start the next :class:`ServerReport` window here: remember
        how long each since-boot record is, and the queue depth."""
        self._marks = {name: len(records)
                       for name, records in self._records().items()}
        self._marks["depth"] = self.queue.depth

    def _records(self) -> Dict[str, list]:
        return {"admissions": self.queue.admissions,
                "completions": self.completions,
                "rejections": self.rejections, "failures": self.failures,
                "dispatches": self.dispatches, "activity": self.activity}

    def _in_window(self) -> Dict[str, list]:
        """Each record list's part since the window opened."""
        return {name: records[self._marks[name]:]
                for name, records in self._records().items()}

    @property
    def peak_queue_depth(self) -> int:
        """Deepest the queue has been in the current report window."""
        return max([self._marks["depth"]] + [
            depth for _, depth in self._in_window()["admissions"]])

    def report(self, makespan_cycles: int) -> ServerReport:
        """The current window's report (see :class:`ServerReport`)."""
        window = self._in_window()
        batches = dict.fromkeys(self._tenants, 0)
        for tenant, _ in window["dispatches"]:
            batches[tenant] += 1
        activity: Dict[str, Dict[str, TileActivity]] = {
            tenant: {} for tenant in self._tenants}
        for tenant, delta in window["activity"]:
            held = activity[tenant]
            for device, counters in delta.items():
                held[device] = (counters if device not in held
                                else held[device] + counters)
        return ServerReport(
            clock_mhz=self.soc.clock_mhz,
            makespan_cycles=makespan_cycles,
            completions=window["completions"],
            rejections=window["rejections"],
            failures=window["failures"],
            activity_by_tenant=activity,
            batches_by_tenant=batches,
            admitted=len(window["admissions"]),
            peak_queue_depth=self.peak_queue_depth,
            grant_waits=[wait for _, wait in window["dispatches"]],
        )
