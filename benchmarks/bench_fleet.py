"""Fleet benchmark: load-balancing policies on a sharded SoC cluster.

A homogeneous fleet of SoC-1 instances serves the three concurrent
applications of ``bench_serve`` behind a :class:`repro.fleet.FleetRouter`,
driven into overload by a seeded Poisson arrival trace with diurnal and
bursty envelopes and a deliberately skewed tenant mix (see
``repro.eval.fleet``). The same trace runs once per policy —
round-robin, least-loaded, latency-aware — and the benchmark reports
fleet-wide p50/p99 latency (every instance's completion latencies
pooled into one sample), goodput and the rejection breakdown.

Checked contracts:

- the fleet is actually overloaded: every policy rejects some requests
  (bounded queues push back) yet completes most of the offered frames;
- load-aware balancing pays: least-loaded or latency-aware strictly
  beats round-robin on fleet-wide p99 under the skewed workload;
- a single-instance fleet is a faithful wrapper: driving the
  ``bench_serve`` trace through the fleet layer lands on the *pinned*
  seed cycle count of ``tests/specs.py`` (65324) — the lockstep
  coordinator adds zero simulated-time overhead;
- fleet runs are deterministic: two runs from the same workload seed
  produce identical routing decisions and identical latency tails.

The run writes ``BENCH_fleet.json``.

Run:  PYTHONPATH=src:. python benchmarks/bench_fleet.py
"""

import json
from dataclasses import replace
from pathlib import Path

from repro.eval.fleet import (
    CAMPAIGN_POLICIES,
    FLEET_SPEC,
    run_fleet_campaign,
    standard_inputs,
)
from repro.eval.stack import build_stack
from repro.fleet import Arrival, Fleet, FleetInstance, FleetRouter
from repro.serve import ServerConfig
from tests.specs import SEED_CYCLES

#: Fleet size and workload seed of the graded campaign.
FLEET_INSTANCES = 4
WORKLOAD_SEED = 0
REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_fleet.json"


def single_instance_pin():
    """Drive the ``bench_serve`` trace through a 1-instance fleet.

    Same tenants, same frames, same submission order as the full-size
    ``serve`` seed workload of ``tests/specs.py`` — if the fleet layer
    is a faithful wrapper, the makespan must equal the pinned seed
    cycle count exactly (the instance executes the identical event
    sequence it would standalone).
    """
    spec = replace(FLEET_SPEC, server=ServerConfig())
    instance = FleetInstance("i0", build_stack(spec).server)
    fleet = Fleet([instance], FleetRouter([instance]))
    # Two requests of two frames per tenant, all at cycle 0.
    inputs = standard_inputs(n_frames=4)
    arrivals = [Arrival(0, tenant, 2) for tenant in inputs
                for _ in range(2)]
    report = fleet.run(arrivals, inputs)
    assert not report.rejections and report.failed == 0
    return report.makespan_cycles


def run_fleet_benchmark():
    """The graded campaign plus the pin and determinism probes."""
    reports = run_fleet_campaign(
        policies=CAMPAIGN_POLICIES, n_instances=FLEET_INSTANCES,
        seed=WORKLOAD_SEED)
    # Determinism probe: a second run of one load-aware policy from
    # the same seed must reproduce routing decisions and the latency
    # tail bit-for-bit. (request_ids come from a process-global
    # counter, so compare (at, tenant, instance), not ids.)
    repeat = run_fleet_campaign(
        policies=("least-loaded",), n_instances=FLEET_INSTANCES,
        seed=WORKLOAD_SEED)["least-loaded"]
    first = reports["least-loaded"]
    deterministic = (
        [(d.at, d.tenant, d.instance) for d in first.decisions]
        == [(d.at, d.tenant, d.instance) for d in repeat.decisions]
        and first.latency.p99 == repeat.latency.p99
        and first.makespan_cycles == repeat.makespan_cycles
        and len(first.rejections) == len(repeat.rejections))
    return {
        "reports": reports,
        "deterministic": deterministic,
        "pin_cycles": single_instance_pin(),
        "pin_expected": SEED_CYCLES["serve"],
    }


def check(results):
    reports = results["reports"]
    assert len(reports) >= 3
    for policy, report in reports.items():
        assert len(report.per_instance) >= 4, policy
        # Overload regime: bounded queues reject, yet the fleet still
        # completes work (goodput is meaningful, not zero).
        assert report.rejections, policy
        assert report.completed_frames > 0, policy
        assert report.failed == 0, policy
        assert report.latency is not None, policy
        # Conservation: every offered request was routed, and is
        # accounted admitted or rejected.
        assert len(report.decisions) == report.offered_requests, policy
        assert (report.admitted + len(report.rejections)
                == report.offered_requests), policy
    rr = reports["round-robin"].latency.p99
    best_aware = min(reports["least-loaded"].latency.p99,
                     reports["latency-aware"].latency.p99)
    assert best_aware < rr, (
        f"load-aware balancing must strictly beat round-robin on "
        f"fleet p99: best aware {best_aware:.0f} vs rr {rr:.0f}")
    assert results["deterministic"], "fleet runs must be seed-deterministic"
    assert results["pin_cycles"] == results["pin_expected"], (
        f"single-instance fleet drifted: {results['pin_cycles']} vs "
        f"pinned {results['pin_expected']}")


def render(results):
    lines = []
    for policy, report in results["reports"].items():
        lines.append(report.render())
        lines.append("")
    lines.append(
        f"single-instance pin: {results['pin_cycles']} cycles "
        f"(expected {results['pin_expected']}); "
        f"deterministic: {results['deterministic']}")
    return "\n".join(lines)


def build_payload(results):
    """The ``BENCH_fleet.json`` payload: one entry per policy."""
    policies = {}
    for policy, report in results["reports"].items():
        latency = report.latency
        policies[policy] = {
            "instances": len(report.per_instance),
            "offered_requests": report.offered_requests,
            "offered_frames": report.offered_frames,
            "admitted": report.admitted,
            "completed_requests": report.completed_requests,
            "completed_frames": report.completed_frames,
            "rejected": len(report.rejections),
            "rejection_rate": round(report.rejection_rate, 4),
            "rejections_by_reason": report.rejections_by_reason(),
            "requests_by_instance": report.requests_by_instance(),
            "makespan_cycles": report.makespan_cycles,
            "goodput_fps": round(report.goodput_fps, 1),
            "latency": {
                "count": latency.count,
                "p50_cycles": round(latency.p50, 1),
                "p95_cycles": round(latency.p95, 1),
                "p99_cycles": round(latency.p99, 1),
                "max_cycles": round(latency.max, 1),
            },
        }
    return {
        "benchmark": "bench_fleet",
        "fleet_instances": FLEET_INSTANCES,
        "workload_seed": WORKLOAD_SEED,
        "policies": policies,
        "deterministic": results["deterministic"],
        "single_instance_pin_cycles": results["pin_cycles"],
    }


def write_report(payload):
    REPORT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return REPORT_PATH


def main():
    results = run_fleet_benchmark()
    print(render(results))
    check(results)
    path = write_report(build_payload(results))
    print(f"report: {path}")
    print("fleet benchmark: all assertions passed")


if __name__ == "__main__":
    main()
