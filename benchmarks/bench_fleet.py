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
  seed cycle count of ``bench_perf`` (65324 full / 17066 smoke) —
  the lockstep coordinator adds zero simulated-time overhead;
- fleet runs are deterministic: two runs from the same workload seed
  produce identical routing decisions and identical latency tails.

The committed ``BENCH_fleet.json`` is the full run's report. Every
field in it is simulated, so it is a pure function of the program:
``--check`` runs the full campaign, applies the checks above and fails
on any field that differs from the committed report (without writing
it), so the report cannot go stale silently. The pytest entry runs
the smoke variant and writes its report under pytest's ``tmp_path``,
never over the committed one.

Run:  pytest benchmarks/bench_fleet.py --benchmark-only -s
or:   PYTHONPATH=src python benchmarks/bench_fleet.py [--smoke | --check]
"""

import argparse
import json
import sys
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

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_perf import SEED_CYCLES, SMOKE_CYCLES  # noqa: E402

#: Fleet size and workload seed of the graded campaign.
FLEET_INSTANCES = 4
WORKLOAD_SEED = 0
#: The committed report of the full run.
REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_fleet.json"


def single_instance_pin(smoke=False):
    """Drive the ``bench_serve`` trace through a 1-instance fleet.

    Same tenants, same frames, same submission order as the ``serve``
    workload of ``bench_perf`` — if the fleet layer is a faithful
    wrapper, the makespan must equal the pinned seed cycle count
    exactly (the instance executes the identical event sequence it
    would standalone).
    """
    n_requests, frames_per_request = (1, 1) if smoke else (2, 2)
    spec = replace(FLEET_SPEC, server=ServerConfig())
    instance = FleetInstance("i0", build_stack(spec).server)
    fleet = Fleet([instance], FleetRouter([instance]))
    inputs = standard_inputs(n_frames=n_requests * frames_per_request)
    arrivals = [Arrival(0, tenant, frames_per_request)
                for tenant in inputs
                for _ in range(n_requests)]
    report = fleet.run(arrivals, inputs)
    assert not report.rejections and report.failed == 0
    return report.makespan_cycles


def run_fleet_benchmark(smoke=False, seed=WORKLOAD_SEED):
    """The graded campaign plus the pin and determinism probes."""
    reports = run_fleet_campaign(
        policies=CAMPAIGN_POLICIES, n_instances=FLEET_INSTANCES,
        seed=seed, smoke=smoke)
    # Determinism probe: a second run of one load-aware policy from
    # the same seed must reproduce routing decisions and the latency
    # tail bit-for-bit. (request_ids come from a process-global
    # counter, so compare (at, tenant, instance), not ids.)
    repeat = run_fleet_campaign(
        policies=("least-loaded",), n_instances=FLEET_INSTANCES,
        seed=seed, smoke=smoke)["least-loaded"]
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
        "pin_cycles": single_instance_pin(smoke=smoke),
        "pin_expected": (SMOKE_CYCLES if smoke else SEED_CYCLES)["serve"],
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


def build_payload(results, smoke=False):
    """The ``BENCH_fleet.json`` payload (``BENCH_perf.json`` schema:
    benchmark / variant / workloads, one entry per policy)."""
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
        "variant": "smoke" if smoke else "full",
        "fleet_instances": FLEET_INSTANCES,
        "workload_seed": WORKLOAD_SEED,
        "policies": policies,
        "deterministic": results["deterministic"],
        "single_instance_pin_cycles": results["pin_cycles"],
    }


def write_report(payload, path=REPORT_PATH):
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def report_drift(committed, fresh, path="report"):
    """Every field where ``fresh`` differs from ``committed``, as
    ``path: committed -> fresh`` lines (a missing field reads None)."""
    if isinstance(committed, dict) and isinstance(fresh, dict):
        drift = []
        for key in list(committed) + [k for k in fresh
                                      if k not in committed]:
            drift += report_drift(committed.get(key), fresh.get(key),
                                  f"{path}.{key}")
        return drift
    if committed != fresh:
        return [f"{path}: {committed!r} -> {fresh!r}"]
    return []


# -- pytest entry point -----------------------------------------------------

def test_fleet_policies(once, tmp_path):
    results = once(run_fleet_benchmark, smoke=True)
    print("\n" + render(results))
    check(results)
    path = write_report(build_payload(results, smoke=True),
                        tmp_path / REPORT_PATH.name)
    print(f"report: {path}")


# -- standalone -------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--smoke", action="store_true",
                      help="short horizon for CI")
    mode.add_argument("--check", action="store_true",
                      help="compare a fresh full run with the committed "
                           f"{REPORT_PATH.name}; write nothing")
    args = parser.parse_args(argv)
    results = run_fleet_benchmark(smoke=args.smoke)
    print(render(results))
    check(results)
    if args.check:
        drift = report_drift(json.loads(REPORT_PATH.read_text()),
                             build_payload(results))
        for line in drift:
            print(f"stale: {line}")
        if drift:
            print(f"{REPORT_PATH.name} is stale: regenerate it with "
                  "`PYTHONPATH=src python benchmarks/bench_fleet.py`")
            return 1
        print(f"{REPORT_PATH.name} matches a fresh full run")
        return 0
    path = write_report(build_payload(results, smoke=args.smoke))
    print(f"report: {path}")
    print("fleet benchmark: all assertions passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
