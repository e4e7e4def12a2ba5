"""Chaos campaign: closed-loop self-healing vs. local recovery alone.

Runs :func:`repro.eval.chaos.run_chaos_campaign` — every fault class
(accelerator hang / crash / slow, DMA stall, NoC drop) injected into
the live three-tenant serving stack under open-loop traffic, each
scenario graded with the control plane on and off — and writes
``BENCH_chaos.json`` (``BENCH_faults.json`` schema family) with
per-class time-to-detect / MTTR against the declared recovery SLOs.

The pass bar is the self-healing claim itself: the controller-on arm
must recover **every** scenario within its fault class's SLO, and the
controller-off arm (which still has the full local watchdog / retry /
software-fallback machinery) must recover strictly fewer.

The second half is the safety claim: a *fault-free* run with the
whole observe-decide-act stack attached (sampler + health monitor +
control plane with a quarantined reserve pool) must stay bit-exact on
the pinned seed cycle counts of ``tests/specs.py`` — the control plane is
pay-for-what-you-use, costing zero cycles until an alert fires.

The run writes ``BENCH_chaos.json`` and prints its wall time.

Run:  PYTHONPATH=src:. python benchmarks/bench_chaos.py
"""

import json
import time
from dataclasses import replace
from pathlib import Path

from repro.control import ControlConfig
from repro.eval.apps import APP_CONFIGS
from repro.eval.chaos import run_chaos_campaign
from repro.eval.stack import StackSpec, build_stack
from tests.specs import PIPE_FRAMES, SEED_CYCLES, build_trace

from bench_serve import SERVE_SPEC

#: Sampler tick for the zero-fault pin runs (same as bench_metrics).
SAMPLE_INTERVAL = 5_000

#: Reserve pool quarantined by the attached controller in the pin
#: runs. The pipeline workloads stream through every nv/cl tile, so
#: holding tiles back there would *rightly* change behaviour — the
#: serve pin uses the chaos pool to prove quarantine itself is free
#: on tiles the workload does not claim.
SERVE_RESERVE_POOL = ("cl2", "cl3", "nv1", "nv2")


def _observed(spec, controller_on, reserve_pool):
    """``spec`` with sampler + monitor (+ controller) attached."""
    return replace(spec, metrics=True, sampler_interval=SAMPLE_INTERVAL,
                   control=(ControlConfig(reserve_pool=reserve_pool)
                            if controller_on else None))


def _quiet_row(stack):
    return {
        "cycles": stack.soc.env.now,
        "actions": len(stack.controller.actions)
        if stack.controller else 0,
        "alerts": len(stack.monitor.history),
        "health": stack.monitor.status(),
    }


def zero_fault_serve(controller_on):
    """The bench_serve trace with the full stack attached; must land
    exactly on the pinned seed cycle count with zero actions taken."""
    stack = build_stack(_observed(SERVE_SPEC, controller_on,
                                  SERVE_RESERVE_POOL))
    stack.server.run_trace(build_trace(2, 2))
    return _quiet_row(stack)


def zero_fault_pipeline(name, controller_on):
    """One 4nv_4cl pipeline run with the stack attached to an (idle)
    server over the same SoC. ``esp_run`` drains the event loop dry,
    so the sampler is bounded to stop before the pinned end cycle."""
    config = APP_CONFIGS["4nv_4cl"]
    frames, _ = config.make_inputs(PIPE_FRAMES, seed=0)
    stack = build_stack(_observed(StackSpec(), controller_on,
                                  reserve_pool=()))
    stack.sampler.max_samples = max(1, SEED_CYCLES[name] // SAMPLE_INTERVAL)
    stack.runtime.esp_run(config.build_dataflow(), frames,
                          mode="p2p" if name == "p2p" else "pipe")
    return _quiet_row(stack)


def run_zero_fault_pins():
    """Both arms of every pinned workload; raises on any drift."""
    pins = {}
    for name in ("p2p", "dma", "serve"):
        run = zero_fault_serve if name == "serve" else (
            lambda on, _n=name: zero_fault_pipeline(_n, on))
        rows = {}
        for arm in ("on", "off"):
            row = run(arm == "on")
            rows[arm] = row
            if row["cycles"] != SEED_CYCLES[name]:
                raise AssertionError(
                    f"zero-fault {name!r} (controller {arm}) drifted: "
                    f"{row['cycles']} cycles != pinned "
                    f"{SEED_CYCLES[name]} — the control plane must cost "
                    f"zero cycles while healthy")
            if row["actions"] or row["alerts"]:
                raise AssertionError(
                    f"zero-fault {name!r} (controller {arm}) was not "
                    f"quiet: {row['actions']} actions, "
                    f"{row['alerts']} alerts")
        pins[name] = {"expected_cycles": SEED_CYCLES[name], **rows}
    return pins


def check_campaign(report):
    """The self-healing pass bar; raises with the report on failure."""
    on, off = report.arm("on"), report.arm("off")
    assert on and off, "campaign produced no scenario arms"
    fired = [r for r in report.results if not r.faults_fired]
    assert not fired, f"faults never fired: {[r.scenario for r in fired]}"
    if report.recovered_count("on") != len(on):
        raise AssertionError(
            "controller-on arm missed its recovery SLO:\n"
            + report.render())
    if not report.controller_strictly_better:
        raise AssertionError(
            "controller-off arm recovered as much as controller-on — "
            "the control plane added nothing:\n" + report.render())
    for result in on:
        assert result.ttd_cycles is not None, result.scenario
        assert result.ttr_cycles is not None, result.scenario
        assert result.ttr_cycles <= result.recovery_slo_cycles, \
            result.scenario


def build_payload(report, pins):
    return {
        "benchmark": "chaos",
        "zero_fault_pins": pins,
        **report.to_dict(),
    }


def write_report(payload):
    out = Path(__file__).resolve().parent.parent / "BENCH_chaos.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    return out


def run_bench():
    report = run_chaos_campaign()
    check_campaign(report)
    return report, run_zero_fault_pins()


def main():
    start = time.perf_counter()
    report, pins = run_bench()
    wall = time.perf_counter() - start
    print(report.render())
    for name, row in pins.items():
        print(f"zero-fault pin {name:6s} {row['expected_cycles']:>6d} "
              f"cycles: controller-on {row['on']['cycles']}, "
              f"controller-off {row['off']['cycles']} — held")
    path = write_report(build_payload(report, pins))
    print(f"report: {path} ({wall:.1f}s)")


if __name__ == "__main__":
    main()
