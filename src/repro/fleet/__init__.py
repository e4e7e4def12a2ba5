"""Fleet-scale serving: shard the SoC into a cluster.

ESP4ML's platform-based design composes accelerator tiles into one
application SoC; the Open ESP line of work scales the same platform to
many-instance, many-accelerator configurations. This package is that
step for the reproduction's serving stack: N simulated SoC instances
(each its own ``Environment``/SoC/runtime/``InferenceServer``, wrapped
in a :class:`FleetInstance`) behind a :class:`FleetRouter` with
pluggable load-balancing policies and consistent tenant sharding,
driven in lockstep by a :class:`Fleet` coordinator over seeded
open-loop traffic from :mod:`repro.fleet.workload`.

Quick start::

    from repro.eval.fleet import FLEET_SPEC
    from repro.fleet import (TenantLoad, WorkloadSpec, build_fleet,
                             generate_arrivals)

    fleet = build_fleet(FLEET_SPEC, 4, policy="least-loaded")
    arrivals = generate_arrivals(WorkloadSpec(
        tenants=(TenantLoad("classifier", weight=3.0),),
        horizon_cycles=200_000, mean_interarrival_cycles=2_000))
    report = fleet.run(arrivals, inputs={"classifier": frames})
    print(report.render())

Design notes live in ``docs/fleet.md``; the graded benchmark is
``benchmarks/bench_fleet.py`` (→ ``BENCH_fleet.json``).
"""

from .cluster import Fleet, FleetReport, build_fleet
from .instance import FleetInstance
from .router import (
    FleetRouter,
    ROUTER_POLICIES,
    RouterDecision,
    shard_tenant,
)
from .workload import (
    Arrival,
    TenantLoad,
    WorkloadSpec,
    burst_windows,
    generate_arrivals,
)

__all__ = [
    "Arrival",
    "Fleet",
    "FleetInstance",
    "FleetReport",
    "FleetRouter",
    "ROUTER_POLICIES",
    "RouterDecision",
    "TenantLoad",
    "WorkloadSpec",
    "build_fleet",
    "burst_windows",
    "generate_arrivals",
    "shard_tenant",
]
