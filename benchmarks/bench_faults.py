"""Fault-campaign benchmark: recovery rate and cycle overhead.

Sweeps every fault kind x rate x execution mode over the three-stage
Denoiser -> Night-Vision -> Classifier pipeline on SoC-1 and checks
the robustness claims: the recovery stack (watchdog + bounded retry +
software fallback + graceful degradation + application retry) delivers
bit-exact outputs for at least 95% of fault runs, and an attached but
empty fault plan costs nothing — cycle counts stay identical to the
unguarded runtime, and arming the recovery policy on top of it keeps
the outputs bit-exact.

The run writes ``BENCH_faults.json``.

Run:  PYTHONPATH=src:. python benchmarks/bench_faults.py
"""

from benchmarks import write_report
from repro.eval import build_soc1, de_cl_inputs, run_fault_campaign
from repro.eval.faults import (
    CAMPAIGN_FRAMES,
    campaign_policy,
    chain3_dataflow,
    golden_run,
)
from repro.faults import FaultInjector, zero_fault_plan
from repro.runtime import EspRuntime


def zero_fault_runs():
    """Pay-for-what-you-use: an attached (empty) fault plan, bare and
    under an armed recovery policy, beside the seed runtime's run."""
    frames, _ = de_cl_inputs(CAMPAIGN_FRAMES, seed=0)
    out = {}
    for mode in ("pipe", "p2p"):
        golden, baseline = golden_run(frames, mode)
        runs = {}
        for arm, recovery in (("bare", None),
                              ("armed", campaign_policy(baseline))):
            soc = build_soc1()
            FaultInjector(zero_fault_plan()).attach(soc)
            runs[arm] = EspRuntime(soc, recovery=recovery).esp_run(
                chain3_dataflow(), frames, mode=mode)
        out[mode] = {"seed_cycles": baseline,
                     "bare_cycles": runs["bare"].cycles,
                     "armed_cycles": runs["armed"].cycles,
                     "outputs_exact": all((run.outputs == golden).all()
                                          for run in runs.values())}
    return out


def check(report, zero_fault):
    """The recovery bar, on a campaign in which every kind fires, and a
    zero-fault plan that costs nothing."""
    assert report.recovery_rate >= 0.95, report.render()
    assert report.faults_fired > 0, "campaign injected nothing"
    # Every fault kind demonstrably strikes at the top swept rate.
    fired_kinds = {r.kind for r in report.records if r.faults_fired}
    assert fired_kinds == {r.kind for r in report.records}
    # Overhead is reported for every kind that fired.
    assert set(report.overhead_by_kind()) == fired_kinds
    for mode, row in zero_fault.items():
        assert row["bare_cycles"] == row["seed_cycles"], mode  # free
        assert row["outputs_exact"], mode                      # bit-exact


def render(report, zero_fault):
    lines = [report.render(), "",
             "cycle overhead (%) over firing runs, by fault kind:"]
    for kind, summary in report.overhead_by_kind().items():
        lines.append(f"  {kind:<14} mean={summary.mean:8.1f}%  "
                     f"p95={summary.p95:8.1f}%  max={summary.max:8.1f}%")
    for mode, row in zero_fault.items():
        lines.append(f"zero-fault plan, {mode}: seed={row['seed_cycles']} "
                     f"bare={row['bare_cycles']} "
                     f"armed={row['armed_cycles']}")
    return "\n".join(lines)


def payload():
    """The campaign and the zero-fault runs, printed and checked; the
    ``BENCH_faults.json`` payload: one entry per fault kind, then the
    zero-fault runs."""
    report = run_fault_campaign()
    zero_fault = zero_fault_runs()
    print(render(report, zero_fault))
    check(report, zero_fault)
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
        "zero_fault_plan": zero_fault,
    }


def main():
    write_report("BENCH_faults.json", payload())


if __name__ == "__main__":
    main()
