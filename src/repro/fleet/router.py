"""The fleet front door: tenant sharding + load-balancing policies.

A request names a tenant; the router decides which SoC instance runs
it, in two stages:

1. **Sharding (placement).** Each tenant is pinned to a *shard* — a
   fixed subset of ``replicas`` instances chosen by rendezvous
   (highest-random-weight) hashing. Placement is *consistent*: it
   depends only on (tenant, instance name, salt), so adding or
   removing an instance moves only the tenants whose top-weight set
   changed (~``replicas/N`` of them), never reshuffles the rest. The
   shard is the tenant's *affinity set*: model state, quantized
   parameter caches and batch coalescing all benefit from a tenant
   revisiting the same few instances instead of spraying the fleet.

2. **Balancing (selection).** Within the shard, one of three policies
   picks the instance:

   - ``round-robin`` — per-tenant rotation, no feedback. The
     baseline: deterministic, stateless, and blind to load.
   - ``least-loaded`` — the instance whose server reports the
     smallest estimated backlog (queued + in-flight frames weighted
     by each tenant's ``est_cycles_per_frame``), read live from
     :meth:`repro.serve.InferenceServer.backlog_cycles` — the fleet
     analogue of queue-depth-based dispatch.
   - ``latency-aware`` — the instance with the lowest exponentially
     weighted moving average of *recently completed* request
     latencies, fed by :meth:`FleetInstance.poll_completions` after
     every lockstep advance. Instances with no signal yet score their
     current backlog, so idle cold replicas are explored first and the
     estimator self-corrects.

Ties break on shard order (and shard order is itself deterministic),
so routing is a pure function of (arrival sequence, completions seen)
— two runs with the same seed produce identical decision logs, which
the tests assert.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..trace.context import TraceIdAllocator
from .instance import FleetInstance

#: Selection policies within a tenant's shard.
ROUTER_POLICIES = ("round-robin", "least-loaded", "latency-aware")


def _weight(salt: int, tenant: str, instance: str) -> int:
    """Stable rendezvous weight of (tenant, instance).

    md5 of the joint key — *not* Python's builtin ``hash``, which is
    salted per process and would make placement differ across runs.
    """
    key = f"{salt}|{tenant}|{instance}".encode()
    return int.from_bytes(hashlib.md5(key).digest()[:8], "big")


def shard_tenant(tenant: str, instance_names: Sequence[str],
                 replicas: int, salt: int = 0) -> Tuple[str, ...]:
    """The ``replicas`` instances owning ``tenant``, by rendezvous hash.

    Highest-random-weight placement: every (tenant, instance) pair
    gets a deterministic pseudo-random weight; the tenant lands on the
    ``replicas`` heaviest instances. Consistency follows from the
    weights being independent per pair — removing an instance only
    promotes the next-heaviest, and adding one only claims the pairs
    where it is heaviest.
    """
    if not 1 <= replicas <= len(instance_names):
        raise ValueError(
            f"replicas must be in [1, {len(instance_names)}], "
            f"got {replicas}")
    ranked = sorted(instance_names,
                    key=lambda name: (-_weight(salt, tenant, name), name))
    return tuple(ranked[:replicas])


@dataclass(frozen=True)
class RouterDecision:
    """One routing decision, for audit and determinism tests."""

    at: int               # fleet cycle of the arrival
    tenant: str
    instance: str         # chosen instance name
    policy: str
    shard: Tuple[str, ...]
    #: Policy-specific score of the winner (rotation index, estimated
    #: backlog cycles, or EWMA latency).
    score: float
    #: Distributed-tracing identity minted for the routed request
    #: ("f-0", "f-1", ... in arrival order). The instance-side spans
    #: carry the same ID, so a merged fleet trace links this decision
    #: to the request's whole waterfall.
    trace_id: Optional[str] = None


class FleetRouter:
    """Routes tenant requests onto a fixed set of instances."""

    def __init__(self, instances: Sequence[FleetInstance],
                 policy: str = "round-robin",
                 replicas: Optional[int] = None,
                 salt: int = 0,
                 ewma_alpha: float = 0.25) -> None:
        if not instances:
            raise ValueError("a fleet needs at least one instance")
        if policy not in ROUTER_POLICIES:
            raise ValueError(f"policy must be one of {ROUTER_POLICIES}, "
                             f"got {policy!r}")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], "
                             f"got {ewma_alpha}")
        names = [instance.name for instance in instances]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate instance names: {names}")
        self.instances = list(instances)
        self.policy = policy
        self.replicas = len(instances) if replicas is None else replicas
        if not 1 <= self.replicas <= len(instances):
            raise ValueError(
                f"replicas must be in [1, {len(instances)}], "
                f"got {self.replicas}")
        self.salt = salt
        self.ewma_alpha = ewma_alpha
        self._by_name: Dict[str, FleetInstance] = {
            instance.name: instance for instance in self.instances}
        self._shards: Dict[str, Tuple[str, ...]] = {}
        self._rotation: Dict[str, int] = {}
        #: Per-instance EWMA of completed-request latency (cycles);
        #: ``None`` until the first completion is observed.
        self._ewma: Dict[str, Optional[float]] = {
            name: None for name in names}
        self.decisions: List[RouterDecision] = []
        # One deterministic trace-ID mint for the whole fleet
        # ("f-{n}" in arrival order); instances propagate the router's
        # ID instead of minting their own.
        self._trace_ids = TraceIdAllocator("f")

    # -- sharding -----------------------------------------------------------

    def shard(self, tenant: str) -> Tuple[str, ...]:
        """The tenant's affinity set (cached rendezvous placement)."""
        placed = self._shards.get(tenant)
        if placed is None:
            placed = shard_tenant(
                tenant, [i.name for i in self.instances],
                self.replicas, salt=self.salt)
            self._shards[tenant] = placed
        return placed

    # -- feedback -----------------------------------------------------------

    def observe(self) -> None:
        """Fold fresh completions into the per-instance latency EWMAs.

        The coordinator calls this after every lockstep advance, so
        the latency-aware policy sees each completion exactly once, in
        deterministic (instance order, completion order) sequence.
        """
        alpha = self.ewma_alpha
        for instance in self.instances:
            for completion in instance.poll_completions():
                latency = float(completion.latency_cycles)
                previous = self._ewma[instance.name]
                self._ewma[instance.name] = latency if previous is None \
                    else alpha * latency + (1.0 - alpha) * previous

    # -- selection ----------------------------------------------------------

    def route(self, tenant: str, at: int = 0) -> FleetInstance:
        """Pick the instance for one arrival and log the decision."""
        shard = self.shard(tenant)
        if self.policy == "round-robin":
            index = self._rotation.get(tenant, 0)
            self._rotation[tenant] = index + 1
            name = shard[index % len(shard)]
            score = float(index % len(shard))
        else:
            by_name = self._by_name
            if self.policy == "least-loaded":
                scores = [float(by_name[candidate].backlog_cycles())
                          for candidate in shard]
            else:   # latency-aware
                # A never-observed EWMA (None) must not read as
                # "fastest": an instance that has completed nothing —
                # possibly because it is stalled — would then absorb all
                # traffic forever. Cold instances are scored by their
                # current backlog instead (same unit: cycles): an idle
                # cold instance still gets explored (backlog 0), while a
                # stalled one accumulates backlog and stops attracting
                # requests.
                ewmas = self._ewma
                scores = [float(by_name[candidate].backlog_cycles())
                          if ewmas[candidate] is None
                          else ewmas[candidate] for candidate in shard]
            # The lowest score; a tie goes to the first in shard order.
            score = min(scores)
            name = shard[scores.index(score)]
        self.decisions.append(RouterDecision(
            at=at, tenant=tenant, instance=name, policy=self.policy,
            shard=shard, score=score,
            trace_id=self._trace_ids.next_id()))
        return self._by_name[name]

    def __repr__(self) -> str:
        return (f"<FleetRouter {self.policy!r} over "
                f"{len(self.instances)} instances, "
                f"replicas={self.replicas}, "
                f"{len(self.decisions)} decisions>")
