"""The standard fleet campaign: SoC-1 replicas under open-loop load.

Shared by ``benchmarks/bench_fleet.py``, ``python -m repro fleet`` and
the fleet tests: a homogeneous cluster of SoC-1 instances, each
serving the three concurrent applications of the serving benchmark
(Night-Vision ``nv0 -> cl0`` in p2p mode, a standalone classifier, the
denoiser), driven into overload by a seeded Poisson + diurnal + bursty
arrival trace with a deliberately *skewed* tenant mix — the hot-tenant
skew plus heterogeneous request sizes are what separate load-aware
balancing from blind rotation.

The campaign runs the same arrival trace (same seed, byte-identical
frame payloads) once per load-balancing policy and reports fleet-wide
p50/p99 latency, goodput and the rejection breakdown per policy.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..fleet import (
    Fleet,
    FleetReport,
    TenantLoad,
    WorkloadSpec,
    build_fleet,
    generate_arrivals,
)
from ..serve import ServerConfig, TenantConfig
from .apps import classifier_inputs, de_cl_inputs, nv_cl_inputs
from .stack import StackSpec, soc1_tenants

#: Policies the campaign grades, in report order.
CAMPAIGN_POLICIES = ("round-robin", "least-loaded", "latency-aware")

#: Bounded per-instance queue: small enough that sustained overload
#: turns into explicit queue-full rejections (the backpressure the
#: benchmark measures) instead of unbounded queueing.
FLEET_QUEUE_DEPTH = 8


#: One fleet replica: SoC-1 serving the three standard tenants.
FLEET_SPEC = StackSpec(
    tenants=soc1_tenants("fleet"),
    server=ServerConfig(max_queue_depth=FLEET_QUEUE_DEPTH))


def standard_tenants() -> List[TenantConfig]:
    """The three concurrent applications, freshly configured."""
    return [tenant.config() for tenant in FLEET_SPEC.tenants]


def standard_inputs(n_frames: int = 64, seed: int = 0
                    ) -> Dict[str, np.ndarray]:
    """Per-tenant input pools the coordinator slices arrivals from."""
    return {
        "night-vision": nv_cl_inputs(n_frames, seed=seed)[0],
        "classifier": classifier_inputs(n_frames, seed=seed + 1)[0],
        "denoiser": de_cl_inputs(n_frames, seed=seed + 2)[0],
    }


def overload_workload(seed: int = 0, smoke: bool = False,
                      skewed: bool = True) -> WorkloadSpec:
    """An arrival trace that outruns the fleet's service capacity.

    The skewed mix concentrates most traffic on the classifier tenant
    with variable request sizes; diurnal + burst envelopes push the
    instantaneous rate well past the sustained one, so queues fill,
    the bounded depth rejects, and tail latency separates the
    policies.
    """
    if skewed:
        tenants = (
            TenantLoad("classifier", weight=6.0, frames_min=1,
                       frames_max=8),
            TenantLoad("night-vision", weight=2.0, frames_min=1,
                       frames_max=4),
            TenantLoad("denoiser", weight=1.0, frames_min=1,
                       frames_max=2),
        )
    else:
        tenants = (
            TenantLoad("classifier", frames_min=1, frames_max=2),
            TenantLoad("night-vision", frames_min=1, frames_max=2),
            TenantLoad("denoiser", frames_min=1, frames_max=2),
        )
    horizon = 60_000 if smoke else 160_000
    return WorkloadSpec(
        tenants=tenants,
        horizon_cycles=horizon,
        # Tuned so the 4-instance fleet is overloaded (roughly
        # two-thirds of requests rejected at the bounded queue depth)
        # but not pegged: at much higher rates every queue saturates
        # and the policies converge; this regime is where balancing
        # decisions still have room to matter.
        mean_interarrival_cycles=900.0 if smoke else 1_300.0,
        diurnal_period_cycles=horizon,
        diurnal_amplitude=0.5,
        burst_every_cycles=horizon / 4.0,
        burst_duration_cycles=horizon // 10,
        burst_multiplier=3.0,
        seed=seed,
    )


def build_standard_fleet(n_instances: int = 4,
                         policy: str = "round-robin",
                         salt: int = 0) -> Fleet:
    """A homogeneous SoC-1 fleet serving the standard three tenants.

    Tenants shard to ``min(3, n_instances)`` replicas: on a larger
    fleet the shards overlap unevenly — the consistent-placement
    affinity that gives round-robin its blind spots and load-aware
    policies their edge.
    """
    return build_fleet(FLEET_SPEC, n_instances, policy=policy, salt=salt)


def run_fleet_campaign(policies: Sequence[str] = CAMPAIGN_POLICIES,
                       n_instances: int = 4,
                       seed: int = 0,
                       smoke: bool = False,
                       metrics: bool = False
                       ) -> Dict[str, FleetReport]:
    """One fleet run per policy, identical workload across policies."""
    spec = overload_workload(seed=seed, smoke=smoke)
    arrivals = generate_arrivals(spec)
    reports: Dict[str, FleetReport] = {}
    for policy in policies:
        fleet = build_fleet(replace(FLEET_SPEC, metrics=metrics),
                            n_instances, policy=policy, salt=seed)
        reports[policy] = fleet.run(arrivals,
                                    standard_inputs(seed=seed))
    return reports


def run_traced_fleet_scenario(out_dir: Optional[str] = None,
                              n_instances: int = 2,
                              n_arrivals: int = 24,
                              seed: int = 0,
                              trace_capacity: Optional[int] = 512
                              ) -> Dict[str, Any]:
    """The deterministic traced mini-fleet, end to end.

    One scenario shared by ``python -m repro trace-query``,
    ``benchmarks/bench_trace.py`` and the tests: a 2-instance SoC-1
    fleet with per-instance flight-recorder tracers, driven over the
    first ``n_arrivals`` arrivals of the standard overload trace,
    merged into a single fleet-wide Chrome trace whose
    ``fleet.route`` instants carry the router-minted trace IDs.

    When ``out_dir`` is given, the scenario also arms a
    :class:`~repro.trace.FlightRecorder` on instance ``i0``'s metrics
    registry with a rule that is *forced* to breach, evaluates once,
    and so deterministically produces one postmortem artifact under
    ``out_dir`` — the alert-triggered dump path exercised without
    having to wait for a real SLO violation.

    Returns a dict with ``fleet``, ``report``, ``trace`` (merged,
    validated upstream by callers), ``trace_ids`` (router-minted
    ``f-N`` IDs in arrival order), and — with ``out_dir`` —
    ``recorder`` and ``postmortem`` (the artifact path).
    """
    from ..metrics import HealthMonitor, SloRule
    from ..trace import FlightRecorder, merge_chrome_traces, trace_ids_in

    fleet = build_fleet(
        replace(FLEET_SPEC, metrics=True, tracing=True,
                trace_capacity=trace_capacity),
        n_instances, policy="least-loaded", salt=seed)
    spec = overload_workload(seed=seed, smoke=True)
    arrivals = sorted(generate_arrivals(spec),
                      key=lambda a: a.at)[:n_arrivals]
    report = fleet.run(arrivals, standard_inputs(seed=seed))
    clock_mhz = fleet.instances[0].soc.clock_mhz
    trace = merge_chrome_traces(fleet.tracers(), clock_mhz=clock_mhz,
                                decisions=report.decisions)
    result: Dict[str, Any] = {
        "fleet": fleet,
        "report": report,
        "trace": trace,
        "trace_ids": trace_ids_in(trace),
        "clock_mhz": clock_mhz,
    }
    if out_dir is not None:
        instance = fleet.instances[0]
        monitor = HealthMonitor(instance.metrics, [SloRule(
            name="forced-postmortem",
            check=lambda reg, now: "forced by the traced fleet "
                                   "scenario (deterministic dump)",
            severity="critical",
            description="always breaches; exists to exercise the "
                        "alert-triggered postmortem path")])
        recorder = FlightRecorder(
            out_dir, fleet.tracers(), clock_mhz=clock_mhz).arm(monitor)
        monitor.evaluate()
        result["recorder"] = recorder
        result["postmortem"] = recorder.dumps[0]
    return result
