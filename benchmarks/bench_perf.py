"""Simulator performance baseline: wall-clock speed at pinned cycle counts.

Unlike the other benchmarks, this one does not reproduce a paper
number — it measures the *simulator itself*: how many kernel events per
wall-clock second the discrete-event engine dispatches on three
representative workloads, while asserting that every optimization of
the hot path stays **cycle-count bit-identical** to the pinned seed
behaviour (see ``docs/performance.md`` for the performance model and
why the fast paths cannot change simulated time).

Workloads
---------

``p2p``
    The 4nv_4cl Night-Vision pipeline in point-to-point mode, 32 SVHN
    frames (seed 0) — accelerator-to-accelerator NoC traffic.
``dma``
    The same pipeline in memory-backed (``pipe``) mode — DMA-heavy,
    ~4x the event count of p2p for the same work (every hop goes
    through a memory tile).
``serve``
    The multi-tenant serving trace of ``bench_serve``: three tenants,
    two requests each, two frames per request, on one shared SoC.

Any cycle drift is a hard failure (exit code 1 / test failure): an
"optimization" that changes simulated time is a model change, not an
optimization. Event counts are reported (and pinned too — the current
fast paths dispatch exactly one ``step()`` per event, same as the
seed) so throughput is comparable across machines as events/second.

Results land in ``BENCH_perf.json`` at the repository root, an
old-vs-new comparison against the previously recorded report in
``BENCH_perf_delta.json`` next to it. Events/sec absolutes are
machine-specific; every speedup this file asserts is a *ratio of two
measurements taken on the same machine*:

- ``speedup_vs_pre_pr4`` divides by ``PRE_PR4_BASELINE_EVENTS_PER_SEC``,
  the unoptimized seed engine re-measured on the machine that recorded
  the committed report (method documented at the constant).
- ``speedup_vs_reference`` divides by the historical dev-machine row
  (``REFERENCE_EVENTS_PER_SEC``), kept for continuity with old reports.

CI gates on the *recorded* report (``--check``), not on a live run:
runner speed varies run to run, but the committed numbers — measured
once, on one machine, against a baseline measured on that same
machine — are deterministic. The live smoke run still hard-asserts
the cycle and event pins on every round.

Run:  PYTHONPATH=src python benchmarks/bench_perf.py [--smoke] [--check]
"""

import argparse
import json
import sys
import time
from pathlib import Path

from repro.eval.apps import APP_CONFIGS, fresh_runtime
from repro.eval.stack import build_stack

from bench_serve import SERVE_SPEC, build_trace

#: Pinned simulated-cycle counts per workload. These are the seed
#: values: the optimized kernel must land on them exactly.
SEED_CYCLES = {"p2p": 77460, "dma": 90139, "serve": 65324}
#: The same pins for the trimmed CI smoke variant.
SMOKE_CYCLES = {"p2p": 24270, "dma": 28073, "serve": 17066}
#: Kernel events dispatched per workload (one ``step()`` each).
SEED_EVENTS = {"p2p": 2762, "dma": 10274, "serve": 2015}
SMOKE_EVENTS = {"p2p": 1478, "dma": 2618, "serve": 764}

#: Frames through the 4nv_4cl pipeline (full / smoke).
PIPE_FRAMES = 32
SMOKE_PIPE_FRAMES = 8

#: events/second of the *unoptimized* seed on the development machine
#: (best of 7) — historical row, kept so speedups in old reports stay
#: interpretable. Not used for gating: it was measured on a different
#: machine than the current report.
REFERENCE_EVENTS_PER_SEC = {"p2p": 35_593, "dma": 99_651, "serve": 54_459}

#: The pre-PR-4 baseline (the seed engine, before the first hot-path
#: optimization pass) re-measured on the machine that recorded the
#: committed BENCH_perf.json: ``git worktree add <tmp> <pre-PR-4
#: commit>`` and best-of-5 runs of these exact pinned workloads (cycle
#: pins verified to hold on the old tree). Because baseline and
#: current numbers come from the same machine, ``speedup_vs_pre_pr4``
#: is a machine-consistent ratio — re-measure this row with the same
#: procedure whenever the report is regenerated on a new machine.
PRE_PR4_BASELINE_EVENTS_PER_SEC = {
    "p2p": 30_022,     # 92.0 ms for 2762 events
    "dma": 82_721,     # 124.2 ms for 10274 events
    "serve": 57_082,   # 35.3 ms for 2015 events
}

#: Regression floors for ``speedup_vs_pre_pr4`` in the recorded
#: report, enforced by ``--check`` (and CI). p2p — the workload the
#: engine rewrite targets most directly (NoC-driven, event-dominated)
#: — carries the 3x target; dma and serve recorded 2.4-2.5x, so their
#: floors sit just below that to catch any future engine regression
#: without asserting a multiple that was never reached (the remaining
#: gap there is functional numpy compute, not event cost — see the
#: cost model in docs/performance.md).
SPEEDUP_FLOORS = {"p2p": 3.0, "dma": 2.25, "serve": 2.3}

#: Timing repetitions; the minimum is reported (least-noise estimator
#: for a deterministic computation).
ROUNDS = 5

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_perf.json"
DELTA_PATH = REPORT_PATH.with_name("BENCH_perf_delta.json")


def run_pipeline(mode, n_frames):
    """One 4nv_4cl run; returns (wall seconds, cycles, events)."""
    config = APP_CONFIGS["4nv_4cl"]
    frames, _ = config.make_inputs(n_frames, seed=0)
    runtime = fresh_runtime(config)
    dataflow = config.build_dataflow()
    start = time.perf_counter()
    runtime.esp_run(dataflow, frames, mode=mode)
    wall = time.perf_counter() - start
    env = runtime.soc.env
    return wall, env.now, env.events_processed


def run_serve(n_requests, frames_per_request):
    """One serving trace; returns (wall seconds, cycles, events)."""
    stack = build_stack(SERVE_SPEC)
    trace = build_trace(n_requests, frames_per_request)
    start = time.perf_counter()
    stack.server.run_trace(trace)
    wall = time.perf_counter() - start
    env = stack.soc.env
    return wall, env.now, env.events_processed


def measure_workload(name, smoke=False):
    """Best-of-``ROUNDS`` timing of one workload, cycle-checked."""
    if name == "serve":
        run = (lambda: run_serve(1, 1)) if smoke else (
            lambda: run_serve(2, 2))
    else:
        mode = "p2p" if name == "p2p" else "pipe"
        n_frames = SMOKE_PIPE_FRAMES if smoke else PIPE_FRAMES
        run = lambda: run_pipeline(mode, n_frames)  # noqa: E731

    expected_cycles = (SMOKE_CYCLES if smoke else SEED_CYCLES)[name]
    expected_events = (SMOKE_EVENTS if smoke else SEED_EVENTS)[name]
    best = None
    for _ in range(ROUNDS):
        wall, cycles, events = run()
        if cycles != expected_cycles:
            raise AssertionError(
                f"cycle drift on workload {name!r}: simulated {cycles} "
                f"cycles, seed pinned {expected_cycles} — the hot-path "
                f"fast paths must be bit-identical in simulated time")
        if events != expected_events:
            raise AssertionError(
                f"event-count drift on workload {name!r}: dispatched "
                f"{events} events, seed pinned {expected_events}")
        best = wall if best is None else min(best, wall)
    return {
        "cycles": expected_cycles,
        "events": expected_events,
        "wall_s": round(best, 6),
        "events_per_sec": round(expected_events / best),
    }


def run_bench(smoke=False):
    """All three workloads; returns the BENCH_perf.json payload."""
    results = {}
    for name in ("p2p", "dma", "serve"):
        results[name] = measure_workload(name, smoke=smoke)
        if not smoke:
            row = results[name]
            row["speedup_vs_reference"] = round(
                row["events_per_sec"] / REFERENCE_EVENTS_PER_SEC[name], 2)
            row["speedup_vs_pre_pr4"] = round(
                row["events_per_sec"]
                / PRE_PR4_BASELINE_EVENTS_PER_SEC[name], 2)
    return {
        "benchmark": "bench_perf",
        "variant": "smoke" if smoke else "full",
        "rounds": ROUNDS,
        "reference_events_per_sec": REFERENCE_EVENTS_PER_SEC,
        "pre_pr4_baseline_events_per_sec": PRE_PR4_BASELINE_EVENTS_PER_SEC,
        "speedup_floors": SPEEDUP_FLOORS,
        "workloads": results,
    }


def load_recorded():
    """The currently recorded BENCH_perf.json, or None."""
    if not REPORT_PATH.exists():
        return None
    try:
        return json.loads(REPORT_PATH.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def build_delta(previous, payload):
    """Old-vs-new comparison of ``payload`` against ``previous``.

    Raw events/sec and wall-clock are machine- and variant-specific, so
    the row to compare across reports is the ``speedup_vs_pre_pr4``
    ratio; ``comparable`` flags whether old and new even ran the same
    workload sizes.
    """
    if previous is None:
        return {"comparable": False, "reason": "no previous report"}
    delta = {
        "comparable": previous.get("variant") == payload["variant"],
        "previous_variant": previous.get("variant"),
        "variant": payload["variant"],
        "note": ("events/sec absolutes are machine-specific; compare "
                 "the speedup ratios"),
        "workloads": {},
    }
    for name, row in payload["workloads"].items():
        old = previous.get("workloads", {}).get(name)
        if not old:
            continue
        entry = {
            "events_per_sec": {"old": old.get("events_per_sec"),
                               "new": row["events_per_sec"]},
            "wall_ms": {"old": round(old.get("wall_s", 0.0) * 1e3, 2),
                        "new": round(row["wall_s"] * 1e3, 2)},
        }
        for key in ("speedup_vs_reference", "speedup_vs_pre_pr4"):
            if key in old or key in row:
                entry[key] = {"old": old.get(key), "new": row.get(key)}
        delta["workloads"][name] = entry
    return delta


def check_recorded(payload, floors=None):
    """Failure strings for recorded speedups below their floors."""
    floors = SPEEDUP_FLOORS if floors is None else floors
    if payload is None:
        return ["no recorded BENCH_perf.json to check"]
    if payload.get("variant") != "full":
        return [f"recorded report is variant "
                f"{payload.get('variant')!r}; the speedup gate needs a "
                f"full-workload report"]
    failures = []
    for name, floor in floors.items():
        row = payload.get("workloads", {}).get(name)
        speed = None if row is None else row.get("speedup_vs_pre_pr4")
        if speed is None:
            failures.append(
                f"{name}: no recorded speedup_vs_pre_pr4")
        elif speed < floor:
            failures.append(
                f"{name}: recorded {speed}x vs pre-PR-4 baseline is "
                f"below the {floor}x floor")
    return failures


def write_report(payload):
    delta = build_delta(load_recorded(), payload)
    REPORT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    DELTA_PATH.write_text(json.dumps(delta, indent=2) + "\n")
    return REPORT_PATH


def print_report(payload):
    print(f"\nsimulator performance ({payload['variant']}, best of "
          f"{payload['rounds']} rounds):")
    for name, row in payload["workloads"].items():
        speed = row.get("speedup_vs_pre_pr4")
        extra = f"  ({speed:.2f}x vs pre-PR-4)" if speed else ""
        print(f"  {name:6s} {row['cycles']:>7d} cycles  "
              f"{row['events']:>6d} events  {row['wall_s'] * 1e3:8.1f} ms  "
              f"{row['events_per_sec']:>8d} ev/s{extra}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="trimmed workloads for CI")
    parser.add_argument("--check", action="store_true",
                        help="gate the *recorded* BENCH_perf.json "
                             "against the speedup floors (no "
                             "measurement; deterministic for CI)")
    args = parser.parse_args(argv)
    if args.check:
        failures = check_recorded(load_recorded())
        if failures:
            for failure in failures:
                print(f"FAIL {failure}")
            return 1
        print("recorded speedups clear every floor: " + "  ".join(
            f"{name} >= {floor}x" for name, floor
            in SPEEDUP_FLOORS.items()))
        return 0
    payload = run_bench(smoke=args.smoke)
    path = write_report(payload)
    print_report(payload)
    print(f"  report: {path}")
    print(f"  delta:  {DELTA_PATH}")
    if not args.smoke:
        for failure in check_recorded(payload):
            print(f"WARNING {failure}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
