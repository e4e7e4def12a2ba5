"""Fault-campaign benchmark: recovery rate and cycle overhead.

Sweeps every fault kind x rate x execution mode over the three-stage
Denoiser -> Night-Vision -> Classifier pipeline on SoC-1 and checks
the robustness claims: the recovery stack (watchdog + bounded retry +
software fallback + graceful degradation + application retry) delivers
bit-exact outputs for at least 95% of fault runs, and arming the
recovery machinery without faults costs nothing — cycle counts stay
identical to the unguarded runtime.

The standalone run writes ``BENCH_faults.json``; the pytest entries
make the same checks and write nothing.

Run:  pytest benchmarks/bench_faults.py --benchmark-only -s
or:   PYTHONPATH=src python benchmarks/bench_faults.py
"""

import json
from pathlib import Path

from repro.eval import run_fault_campaign
from repro.eval.faults import campaign_policy, chain3_dataflow, golden_run
from repro.eval import build_soc1, de_cl_inputs
from repro.faults import FaultInjector, zero_fault_plan
from repro.runtime import EspRuntime

#: Frames per campaign run: small enough that the full sweep stays in
#: benchmark territory, large enough that every pipeline stage overlaps.
CAMPAIGN_FRAMES = 4


def build_payload(report):
    """The ``BENCH_faults.json`` payload: one entry per fault kind."""
    workloads = {}
    for record in report.records:
        entry = workloads.setdefault(record.kind, {
            "runs": 0, "recovered": 0, "faults_fired": 0,
            "retries": 0, "watchdog_timeouts": 0, "degraded_runs": 0,
        })
        entry["runs"] += 1
        entry["recovered"] += int(record.recovered)
        entry["faults_fired"] += record.faults_fired
        entry["retries"] += record.retries
        entry["watchdog_timeouts"] += record.watchdog_timeouts
        entry["degraded_runs"] += int(record.degraded)
    for kind, summary in report.overhead_by_kind().items():
        workloads[kind]["overhead_pct"] = {
            "mean": round(summary.mean, 1),
            "p95": round(summary.p95, 1),
            "max": round(summary.max, 1),
        }
    return {
        "benchmark": "bench_faults",
        "recovery_rate": round(report.recovery_rate, 4),
        "faults_fired": report.faults_fired,
        "workloads": workloads,
    }


def write_report(payload):
    out = Path(__file__).resolve().parent.parent / "BENCH_faults.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    return out


def check(report):
    """The recovery bar, on a campaign in which every kind fires."""
    assert report.recovery_rate >= 0.95, report.render()
    assert report.faults_fired > 0, "campaign injected nothing"
    # Every fault kind demonstrably strikes at the top swept rate.
    fired_kinds = {r.kind for r in report.records if r.faults_fired}
    assert fired_kinds == {r.kind for r in report.records}
    # Overhead is reported for every kind that fired.
    assert set(report.overhead_by_kind()) == fired_kinds


def render(report):
    lines = [report.render(), "",
             "cycle overhead (%) over firing runs, by fault kind:"]
    for kind, summary in report.overhead_by_kind().items():
        lines.append(f"  {kind:<14} mean={summary.mean:8.1f}%  "
                     f"p95={summary.p95:8.1f}%  max={summary.max:8.1f}%")
    return "\n".join(lines)


def test_fault_campaign(once):
    report = once(run_fault_campaign, n_frames=CAMPAIGN_FRAMES)
    print("\n" + render(report))
    check(report)


def test_zero_fault_plan_costs_nothing(once):
    """Pay-for-what-you-use: an armed recovery policy plus an attached
    (empty) fault plan must not change a single cycle of a fault-free
    run relative to the seed runtime."""

    def compare():
        frames, _ = de_cl_inputs(CAMPAIGN_FRAMES, seed=0)
        out = {}
        for mode in ("pipe", "p2p"):
            golden, baseline = golden_run(frames, mode)

            soc = build_soc1()
            FaultInjector(zero_fault_plan()).attach(soc)
            bare = EspRuntime(soc).esp_run(
                chain3_dataflow(), frames, mode=mode)

            soc = build_soc1()
            FaultInjector(zero_fault_plan()).attach(soc)
            armed = EspRuntime(
                soc, recovery=campaign_policy(baseline)).esp_run(
                chain3_dataflow(), frames, mode=mode)
            out[mode] = (baseline, bare.cycles, armed.cycles,
                         (bare.outputs == golden).all(),
                         (armed.outputs == golden).all())
        return out

    results = once(compare)
    for mode, (baseline, bare, armed, bare_ok, armed_ok) in \
            results.items():
        print(f"\n{mode}: seed={baseline} zero-fault-plan={bare} "
              f"armed={armed}")
        assert bare == baseline, mode      # injector alone is free
        assert bare_ok and armed_ok, mode  # outputs stay bit-exact


def main():
    report = run_fault_campaign(n_frames=CAMPAIGN_FRAMES)
    print(render(report))
    check(report)
    path = write_report(build_payload(report))
    print(f"report: {path}")


if __name__ == "__main__":
    main()
