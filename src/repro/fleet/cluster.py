"""The fleet coordinator: lockstep co-simulation of N SoC instances.

Each :class:`FleetInstance` owns its own
:class:`~repro.sim.Environment` — N independent event queues with N
independent clocks. The coordinator composes them into one fleet-time
simulation by *lockstep advancement*: arrivals are replayed in global
cycle order, and before each arrival every instance is advanced to the
arrival cycle. At that point all N clocks agree, so the router's load
and latency reads are simultaneous snapshots — the property that makes
least-loaded and latency-aware balancing meaningful.

Why lockstep rather than merging everything into one ``Environment``:
instances never exchange events (a request is submitted to exactly one
SoC; nothing crosses chips mid-flight), so the only synchronization
points are routing decisions. Between two arrivals, each instance's
evolution is completely determined by its own state — advancing them
one at a time to the same cycle is *exactly* equivalent to
interleaving their event queues, with no cross-instance event-ordering
ambiguity to resolve. It also keeps the single-SoC contract intact: an
instance simulated through the fleet layer executes the identical
event sequence it would alone, which is what pins single-instance
fleet runs to the seed cycle counts.

A consequence worth stating: with the same arrival trace, routing
decisions and per-instance event sequences are fully deterministic —
fleet runs are reproducible from (workload seed, policy, salt) alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..eval.harness import LatencySummary, summarize_latencies
from ..eval.stack import StackSpec, build_stack
from ..serve import Rejection, ServerReport
from ..soc import KernelMemo, fill_memo, run_memo
from ..trace.context import TraceContext
from .instance import FleetInstance
from .router import FleetRouter, RouterDecision
from .workload import Arrival


@dataclass
class FleetReport:
    """Everything one fleet run measured, cluster-wide."""

    policy: str
    clock_mhz: float
    makespan_cycles: int
    offered_requests: int
    offered_frames: int
    admitted: int
    completed_requests: int
    completed_frames: int
    failed: int
    #: Rejections with the instance that issued them (queue-full
    #: backpressure under overload lands here).
    rejections: List[Tuple[str, Rejection]]
    per_instance: Dict[str, ServerReport]
    decisions: List[RouterDecision]

    @property
    def latency(self) -> Optional[LatencySummary]:
        """Fleet-wide latency, computed when read: every instance's
        completion latencies pooled into one sample (a p99 of p99s is
        not the fleet p99)."""
        samples = [c.latency_cycles for report in self.per_instance.values()
                   for c in report.completions]
        return summarize_latencies(samples) if samples else None

    @property
    def makespan_seconds(self) -> float:
        return self.makespan_cycles / (self.clock_mhz * 1e6)

    @property
    def goodput_fps(self) -> float:
        """Frames *completed* per second — offered load that actually
        made it through, the overload-regime counterpart of
        throughput."""
        if self.makespan_cycles == 0:
            return 0.0
        return self.completed_frames / self.makespan_seconds

    @property
    def rejection_rate(self) -> float:
        if self.offered_requests == 0:
            return 0.0
        return len(self.rejections) / self.offered_requests

    def rejections_by_reason(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for _, rejection in self.rejections:
            out[rejection.reason] = out.get(rejection.reason, 0) + 1
        return out

    def rejections_by_instance(self) -> Dict[str, int]:
        out = {name: 0 for name in self.per_instance}
        for name, _ in self.rejections:
            out[name] += 1
        return out

    def requests_by_instance(self) -> Dict[str, int]:
        out = {name: 0 for name in self.per_instance}
        for decision in self.decisions:
            out[decision.instance] += 1
        return out

    def render(self) -> str:
        us = 1.0 / self.clock_mhz
        lines = [
            f"== fleet report: policy={self.policy}, "
            f"{len(self.per_instance)} instances ==",
            f"offered {self.offered_requests} requests "
            f"({self.offered_frames} frames) over "
            f"{self.makespan_cycles:,} cycles "
            f"({self.makespan_seconds * 1e3:.2f} ms)",
            f"completed {self.completed_requests} requests "
            f"({self.completed_frames} frames), goodput "
            f"{self.goodput_fps:.1f} frames/s; rejected "
            f"{len(self.rejections)} "
            f"({100 * self.rejection_rate:.1f}%), failed {self.failed}",
        ]
        if self.latency is not None:
            scaled = self.latency.scaled(us)
            lines.append(
                f"fleet latency: p50 {scaled.p50:.1f} us, "
                f"p95 {scaled.p95:.1f} us, p99 {scaled.p99:.1f} us, "
                f"max {scaled.max:.1f} us")
        routed = self.requests_by_instance()
        rejected = self.rejections_by_instance()
        lines.append(f"{'instance':<10}{'routed':>8}{'served':>8}"
                     f"{'rejected':>10}{'p99 us':>10}")
        for name in sorted(self.per_instance):
            report = self.per_instance[name]
            summary = report.latency_summary()
            p99 = f"{summary.p99 * us:.1f}" if summary else "-"
            lines.append(
                f"{name:<10}{routed.get(name, 0):>8}"
                f"{len(report.completions):>8}"
                f"{rejected.get(name, 0):>10}{p99:>10}")
        reasons = self.rejections_by_reason()
        if reasons:
            breakdown = ", ".join(f"{reason}={count}" for reason, count
                                  in sorted(reasons.items()))
            lines.append(f"rejection breakdown: {breakdown}")
        return "\n".join(lines)


class Fleet:
    """N instances + a router, driven in lockstep over a workload."""

    def __init__(self, instances: Sequence[FleetInstance],
                 router: FleetRouter) -> None:
        if not instances:
            raise ValueError("a fleet needs at least one instance")
        self.instances = list(instances)
        self.router = router

    @property
    def names(self) -> List[str]:
        return [instance.name for instance in self.instances]

    def tracers(self) -> Dict[str, object]:
        """name -> tracer for every traced instance — the mapping
        :func:`repro.trace.merge_chrome_traces` consumes."""
        return {instance.name: instance.tracer
                for instance in self.instances
                if instance.tracer is not None}

    def run(self, arrivals: Sequence[Arrival],
            inputs: Dict[str, np.ndarray]) -> FleetReport:
        """Drive one arrival trace through the fleet to quiescence.

        ``inputs`` maps each tenant to a pool of input frames; an
        arrival of ``n_frames`` takes the next ``n_frames`` rows
        (wrapping), so frame payloads are deterministic and
        policy-independent — two policies compared on the same trace
        see byte-identical requests.

        Every frame an arrival will carry is known before the first
        cycle, so the run first evaluates each tenant's kernels over
        them (:meth:`_kernel_pass`): one batch per level and kernel,
        across all instances. The results go to one kernel memo that
        every instance's tiles hold for the run
        (:func:`~repro.soc.run_memo`), so each plan finds its frames
        there instead of batching them again; the tiles drop it when
        the run returns or raises, so nothing outlives the run.

        The loop: advance every instance to the arrival cycle, let the
        router observe fresh completions, route, submit. After the
        last arrival all instances drain and are aligned to one final
        cycle, so the makespan is a fleet-wide quantity. Each instance
        opens a report window first: the report covers this run alone.
        """
        ordered = sorted(arrivals, key=lambda a: a.at)
        cursors = dict.fromkeys(inputs, 0)
        rows = [self._take_rows(inputs, cursors, arrival)
                for arrival in ordered]
        tiles = [tile for instance in self.instances
                 for tile in instance.soc.accelerators.values()]
        with run_memo(tiles) as memo:
            self._kernel_pass(memo, ordered, rows, inputs)
            return self._replay(ordered, rows, inputs)

    def _kernel_pass(self, memo: KernelMemo, ordered: Sequence[Arrival],
                     rows: Sequence[List[int]],
                     inputs: Dict[str, np.ndarray]) -> None:
        """Each tenant's offered frames through its kernels, once.

        A tenant's frames are the pool rows its arrivals take, each
        row once. They pass its dataflow's levels up to the first one
        whose devices run different kernels
        (:meth:`FleetInstance.kernel_chain`), by the fill a plan makes
        of its own frames (:func:`~repro.soc.fill_memo`): one
        :meth:`~repro.accelerators.AcceleratorSpec.run_batch` per
        level, once for all instances whose dataflows run the same
        kernels.
        """
        offered: Dict[str, set] = {}
        for arrival, picked in zip(ordered, rows):
            offered.setdefault(arrival.tenant, set()).update(picked)
        for tenant, picked in offered.items():
            chains = {}
            for instance in self.instances:
                if tenant in instance.tenants:
                    chain = instance.kernel_chain(tenant)
                    chains[tuple(s.kernel for s in chain)] = chain
            frames = np.asarray(inputs[tenant],
                                dtype=np.float64)[sorted(picked)]
            for chain in chains.values():
                fill_memo(memo, [[spec] for spec in chain], frames)

    def _replay(self, ordered: Sequence[Arrival],
                rows: Sequence[List[int]],
                inputs: Dict[str, np.ndarray]) -> FleetReport:
        """The lockstep loop of :meth:`run` over the sorted arrivals,
        each with the pool rows it takes."""
        for instance in self.instances:
            instance.start()
            instance.server.open_window()
        origins = {instance.name: instance.now
                   for instance in self.instances}
        rejections: List[Tuple[str, Rejection]] = []
        offered_frames = 0
        decisions_before = len(self.router.decisions)

        for arrival, picked in zip(ordered, rows):
            for instance in self.instances:
                instance.advance_to(origins[instance.name] + arrival.at)
            self.router.observe()
            instance = self.router.route(arrival.tenant, at=arrival.at)
            frames = inputs[arrival.tenant][picked]
            offered_frames += arrival.n_frames
            # Propagate the router-minted trace identity: the decision
            # instant and every instance-side span of this request
            # share one ID across the routing boundary.
            trace_id = self.router.decisions[-1].trace_id
            rejection = instance.submit(
                arrival.tenant, frames, priority=arrival.priority,
                trace_ctx=(None if trace_id is None
                           else TraceContext(trace_id)))
            if rejection is not None:
                rejections.append((instance.name, rejection))

        for instance in self.instances:
            instance.drain()
        # Align the fleet on one final cycle (idle instances age too).
        final = max(instance.now - origins[instance.name]
                    for instance in self.instances)
        for instance in self.instances:
            instance.advance_to(origins[instance.name] + final)
        self.router.observe()

        reports = {
            instance.name: instance.report(makespan_cycles=final)
            for instance in self.instances}
        completed = sum(len(r.completions) for r in reports.values())
        return FleetReport(
            policy=self.router.policy,
            clock_mhz=self.instances[0].soc.clock_mhz,
            makespan_cycles=final,
            offered_requests=len(ordered),
            offered_frames=offered_frames,
            admitted=sum(r.admitted for r in reports.values()),
            completed_requests=completed,
            completed_frames=sum(r.completed_frames
                                 for r in reports.values()),
            failed=sum(len(r.failures) for r in reports.values()),
            rejections=rejections,
            per_instance=reports,
            decisions=self.router.decisions[decisions_before:],
        )

    @staticmethod
    def _take_rows(inputs: Dict[str, np.ndarray],
                   cursors: Dict[str, int],
                   arrival: Arrival) -> List[int]:
        """The pool rows ``arrival`` takes; advances its tenant's
        cursor."""
        size = len(inputs[arrival.tenant])
        cursor = cursors[arrival.tenant]
        cursors[arrival.tenant] = (cursor + arrival.n_frames) % size
        return [(cursor + k) % size for k in range(arrival.n_frames)]

    def __repr__(self) -> str:
        return (f"<Fleet {len(self.instances)} instances, "
                f"router={self.router!r}>")


def build_fleet(spec: StackSpec, n_instances: int,
                policy: str = "round-robin", salt: int = 0) -> Fleet:
    """Stand up a homogeneous fleet: N stacks built from one spec.

    Instance ``k`` is named ``i{k}`` and built from ``spec`` under
    namespace ``i{k}``, so with ``metrics`` on its families are
    distinct across instances, and with ``tracing`` on its tracer is
    ready for :func:`repro.trace.merge_chrome_traces`. Tenants
    shard to ``min(3, n_instances)`` replicas.
    """
    if n_instances < 1:
        raise ValueError("n_instances must be >= 1")
    instances = [
        FleetInstance(f"i{k}",
                      build_stack(replace(spec, namespace=f"i{k}")).server)
        for k in range(n_instances)]
    router = FleetRouter(instances, policy=policy,
                         replicas=min(3, n_instances), salt=salt)
    return Fleet(instances, router)
