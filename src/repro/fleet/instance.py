"""One serving replica of the fleet: an SoC behind a uniform handle.

ESP4ML composes accelerator tiles into one application SoC; "Agile SoC
Development with Open ESP" scales the same platform to many-instance
configurations. The fleet layer models exactly that: N independent
SoC instances, each one a full vertical stack —

    Environment  (its own event queue and cycle clock)
      SoCInstance  (mesh, tiles, DMA, memory)
        EspRuntime  (driver registry, executors)
          InferenceServer  (queues, batcher, arbiter)

— wrapped in a :class:`FleetInstance` so the router and coordinator
never reach into instance internals. The *Environment-ownership*
contract this encodes: every instance owns its own
:class:`~repro.sim.Environment`; nothing above this layer ever shares
simulation state between instances, and the only cross-instance
coupling is the coordinator's lockstep clock (see
:mod:`repro.fleet.cluster`).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from ..metrics import (MetricsRegistry, attach_metrics,
                       register_soc_collectors)
from ..runtime import EspRuntime
from ..trace.context import TraceContext
from ..trace.tracer import Tracer, attach_tracer
from ..serve import (
    Completion,
    InferenceServer,
    Rejection,
    ServerConfig,
    ServerLoad,
    ServerReport,
    TenantConfig,
)


class FleetInstance:
    """A named SoC serving replica with lockstep-advance controls.

    The handle exposes exactly what the fleet needs: admit work
    (:meth:`submit`), advance simulated time (:meth:`advance_to`),
    introspect load (:meth:`load`), harvest completions for the
    router's latency estimators (:meth:`poll_completions`) and drain
    to quiescence (:meth:`drain`).
    """

    def __init__(self, name: str, server: InferenceServer) -> None:
        self.name = name
        self.server = server
        self.runtime: EspRuntime = server.runtime
        self.soc = server.soc
        self.env = server.env
        #: Completions already handed out by :meth:`poll_completions`.
        self._polled = 0

    @classmethod
    def build(cls, name: str,
              soc_builder: Callable[[], object],
              tenants: Sequence[TenantConfig],
              server_config: Optional[ServerConfig] = None,
              recovery=None,
              metrics_namespace: Optional[str] = None,
              trace_namespace: Optional[str] = None,
              trace_capacity: Optional[int] = None) -> "FleetInstance":
        """Stand up one full replica stack from a SoC builder.

        Every call builds a *fresh* SoC (own ``Environment``), boots a
        runtime on it, registers ``tenants`` and wraps the server.
        ``metrics_namespace`` attaches a namespaced
        :class:`~repro.metrics.MetricsRegistry`, wired to the SoC's
        hardware counters, so N instances can be scraped into one
        snapshot without series collisions;
        ``trace_namespace`` does the same for a
        :class:`~repro.trace.Tracer` so N tracers can merge into one
        fleet-wide Chrome trace (``trace_capacity`` bounds it as a
        flight-recorder ring).
        """
        soc = soc_builder()
        if metrics_namespace is not None:
            register_soc_collectors(
                attach_metrics(soc.env, namespace=metrics_namespace), soc)
        if trace_namespace is not None:
            attach_tracer(soc.env, namespace=trace_namespace,
                          capacity=trace_capacity)
        runtime = EspRuntime(soc, recovery=recovery)
        server = InferenceServer(runtime, server_config or ServerConfig())
        for tenant in tenants:
            server.register(tenant)
        return cls(name, server)

    # -- time ---------------------------------------------------------------

    @property
    def now(self) -> int:
        """This instance's local cycle clock."""
        return self.env.now

    def advance_to(self, cycle: int) -> None:
        """Run this instance's simulation up to (and including) ``cycle``.

        The lockstep primitive: processes every event due at or before
        ``cycle`` and leaves the local clock *at* ``cycle``, even when
        the instance is idle (an idle replica still ages; the kernel's
        fast-forward makes that O(1)). Going backwards is a
        coordinator bug and raises.

        The equal-cycle call is deliberately a no-op: ``run(until=t)``
        can only return with the ready deque empty, so after any
        *time-bounded* advance there is no same-cycle work to strand,
        and an arrival landing on the instance's current cycle is
        admitted exactly like the standalone server's back-to-back
        same-cycle submissions (which also run without an intervening
        drain) — that equivalence is what keeps a single-instance
        fleet bit-identical to the standalone server (the pinned
        fidelity tests in ``tests/fleet/test_cluster.py``). The one
        place same-cycle events *can* be left pending is an
        event-bounded ``run(until=event)``, which aborts mid-cycle:
        :meth:`drain` flushes those itself.
        """
        if cycle < self.env.now:
            raise ValueError(
                f"instance {self.name!r} is at cycle {self.env.now}, "
                f"cannot rewind to {cycle}")
        if cycle > self.env.now:
            self.env.run(until=cycle)

    def start(self) -> None:
        """Spawn the server's tenant loops and let them park (idempotent).

        Settling matters for fidelity: processing the zero-delay
        spawn events *now* (without advancing the clock) parks every
        tenant loop on its wait-for-work event before the first
        submission, exactly as ``InferenceServer.run_trace`` does.
        Loops then wake in *submission* order rather than spawn
        order, so a single-instance fleet reproduces the standalone
        server's event sequence — and its pinned cycle counts.
        """
        self.server.start()
        # run(until=now) drains only the already-due (zero-delay)
        # events; it cannot advance the clock.
        self.env.run(until=self.env.now)

    def drain(self) -> None:
        """Run until every admitted request reached a terminal state.

        ``run(until=event)`` stops the instant the terminal event
        processes, which can be mid-cycle: events scheduled for the
        same cycle but behind the terminal event (a completion
        callback, a metrics update, a parked loop's wake) would stay
        undispatched — and, because the coordinator's final alignment
        is an equal-cycle ``advance_to`` no-op for the slowest
        instance, they would be stranded forever, silently missing
        from reports and from the router's completion feed. The
        zero-delay flush below dispatches the remainder of the current
        cycle without moving the clock.
        """
        admitted = self.server.queue.admitted
        self.env.run(until=self.server.wait_terminal(admitted))
        self.env.run(until=self.env.now)

    # -- work ---------------------------------------------------------------

    def submit(self, tenant: str, frames: np.ndarray,
               priority: int = 0,
               trace_ctx: Optional[TraceContext] = None
               ) -> Optional[Rejection]:
        """Submit one request at the instance's current cycle.

        ``trace_ctx`` carries the router-minted trace identity into
        the instance's serve layer (propagated, never re-minted).
        """
        return self.server.submit(tenant, frames, priority=priority,
                                  trace_ctx=trace_ctx)

    # -- introspection ------------------------------------------------------

    def load(self) -> ServerLoad:
        """The server's queued/in-flight load (pure read)."""
        return self.server.load()

    def poll_completions(self) -> List[Completion]:
        """Completions that landed since the last poll.

        The router's feedback channel: each lockstep advance may
        complete batches; the latency-aware policy folds them into its
        per-instance EWMA. Never returns the same completion twice.
        """
        fresh = self.server.completions[self._polled:]
        self._polled = len(self.server.completions)
        return fresh

    @property
    def tenants(self) -> List[str]:
        return self.server.tenants

    @property
    def metrics(self) -> Optional[MetricsRegistry]:
        return self.env.metrics

    @property
    def tracer(self) -> Optional[Tracer]:
        return self.env.tracer

    def report(self, makespan_cycles: Optional[int] = None) -> ServerReport:
        return self.server.report(makespan_cycles=makespan_cycles)

    def __repr__(self) -> str:
        return (f"<FleetInstance {self.name!r} at cycle {self.env.now} "
                f"({len(self.tenants)} tenants)>")
