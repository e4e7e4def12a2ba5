"""Layer-by-layer performance ledger: host cost of the simulator.

Run from the repository root::

    python3 ledger/run.py                         # all six workloads
    python3 ledger/run.py --workload pipe-dma --seed 1 --seconds 10
    python3 ledger/run.py --workload fleet --trace 1   # per-layer split

``BENCHMARK.json`` at the repository root names the workloads and the
metrics, with their units, directions and bounds. Without
``--workload`` every workload runs in a fresh subprocess, one after
another. One workload runs in this process, on one thread (numpy's
BLAS pool is pinned to one thread), and prints every metric as
``workload metric value unit`` and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``. The exit code is
non-zero when any check fails. The lines ``iterations``,
``latency_samples`` and ``iter_ms_p50`` (raw host milliseconds) are
printed for the reader and are not metrics of ``BENCHMARK.json``.

Load is a closed loop with one client. An iteration builds a fresh
stack (SoC, runtime, server or fleet), simulates the pre-generated
inputs, reads the outcome and checks the outputs, then drops the stack
and runs ``gc.collect()``. The SoC graphs hold reference cycles, so
without the collection inside the timed iteration its cost lands in
whichever later iteration triggers it and the peak RSS counts several
dead SoCs. Iterations repeat until ``--seconds`` have passed.

Host time is reported in units of a reference task (``ref``): a fixed
pure-Python job timed between iterations. On a shared 2-core VM the
machine's speed drifts by 10-40% over tens of seconds, so the median
raw milliseconds of ten runs of one commit spread by up to a quarter;
an iteration's time divided by the mean of the reference times just
before and after it spreads by 1-3%, because the drift slows both
alike. ``iter_cost_p50`` is the median of these ratios;
``frames_per_ref`` divides all frames by their sum, so that the slow
iterations the median hides count too. The two do not slow exactly
alike, though: between sets of runs half an hour apart the median
ratio of ``serve`` moved by up to 12%, hence the 20% bounds.

``peak_rss_mb`` is ``ru_maxrss`` of this process.

Set-up (``setup_s``) is the median over ``SETUPS`` fresh interpreters
of importing the program, generating the inputs and their software
reference outputs, and running one discarded warm-up iteration. Inputs
are made there and never inside the timed loop.

Checks: every output must equal a software evaluation of the same
kernels on its input; every iteration must reproduce the warm-up
iteration exactly (cycles, counters, latencies, a sha256 over outputs
and modelled decisions); the warm-up must land on the pinned cycles and
events (the seed changes payloads, not the amount of work), and at seed
0 on the pinned digest. A failed iteration counts in ``failed``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` reports
the per-layer metrics: every ``PROFILE_EVERY``-th iteration runs under
cProfile, and self time and calls are aggregated per ``repro``
subpackage (see ``layers.py``); the other iterations give the phase
split. Which end-to-end metric each per-layer metric should move, and
where it is large or near zero:

=========================  ==============  ================================
per-layer metric           moves           large on / near zero on
=========================  ==============  ================================
``sim.*`` self time/calls  iter_cost_p50   pipe-dma, fleet / serve
compute layers (``fixed``, iter_cost_p50   pipe-p2p / pipe-dma
``accelerators``, ``nn``,
``hls4ml_flow``)
``trace.*``, ``metrics.*`` iter_cost_p50   serve-observed / all others
``serve.*``, ``fleet.*``   iter_cost_p50   serve workloads, fleet / pipes
``sim.events`` and the     sim_cycles,     ``noc.coh_flits``, ``soc.llc_*``:
SoC monitor counters       iter_cost_p50   coherent only;
                                           ``soc.dram_words``:
                                           pipe-dma / pipe-p2p
``trace.records/dropped``  iter_cost_p50   serve-observed only
``phase.build_ms``         setup_s,        every workload (``nn`` model
                           iter_cost_p50   set-up lands here)
``phase.teardown_ms``      iter_cost_p50,  every workload (reference
                           peak_rss_mb     cycles)
``profile.overhead``       (reported)      shares over-weight call-heavy
                                           layers
=========================  ==============  ================================
"""

from __future__ import annotations

import os

# Set before anything imports numpy. One thread per process: pin the
# BLAS pool. No transparent huge pages for numpy's large arrays: the
# kernel backs them with 2 MB pages at moments that differ from run to
# run, which moved peak_rss_mb on ``coherent`` by up to 15%.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")

import argparse  # noqa: E402
import cProfile  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Set-ups timed per run, each in a fresh interpreter; ``setup_s``
#: reports their median.
SETUPS = 5
#: In a ``--trace 1`` run, one iteration in this many is profiled.
PROFILE_EVERY = 5
#: Fewest timed iterations, whatever ``--seconds`` says.
MIN_ITERATIONS = PROFILE_EVERY
#: Entries of the reference task timed between iterations.
REFERENCE_SIZE = 15_000

#: Per workload: simulated cycles and kernel events (every seed), and
#: the sha256 of outputs and modelled decisions (seed 0).
PINS = {
    "pipe-p2p": (77460, 2762, "733fa24e0c5146eeb25f3e5d08eee5ec"
                              "0a12a38047e8fcc48544f0085c380f9b"),
    "pipe-dma": (90139, 10274, "733fa24e0c5146eeb25f3e5d08eee5ec"
                               "0a12a38047e8fcc48544f0085c380f9b"),
    "coherent": (64738, 9825, "a36b78d9d5028160c9bb1ebb6463d315"
                              "4769f8d954c5cfd7df3c2d4c57dad0db"),
    "serve": (65324, 2015, "e800a05dfcdd5f31a08bcb7c7b845010"
                           "53b6ff25f40f255e2face069fe730669"),
    "serve-observed": (65324, 2015, "e800a05dfcdd5f31a08bcb7c7b845010"
                                    "53b6ff25f40f255e2face069fe730669"),
    "fleet": (279429, 26942, "7fdbc80ab48717370682b24b364c3eee"
                             "b7a8d636714ff342a5f8e13b1a399b8f"),
}


@dataclass
class Phases:
    """Host seconds of each phase of one iteration."""

    build: float
    simulate: float
    check: float
    teardown: float

    @property
    def total(self) -> float:
        return self.build + self.simulate + self.check + self.teardown


def iterate(workload):
    """One timed iteration; returns (outcome, phases)."""
    t0 = time.perf_counter()
    stack = workload.build()
    t1 = time.perf_counter()
    result = workload.simulate(stack)
    t2 = time.perf_counter()
    outcome = workload.outcome(stack, result)
    t3 = time.perf_counter()
    del stack, result
    gc.collect()
    t4 = time.perf_counter()
    return outcome, Phases(t1 - t0, t2 - t1, t3 - t2, t4 - t3)


def reference_seconds():
    """Host seconds of a fixed pure-Python task: build and sort a table."""
    start = time.perf_counter()
    table = {(i, i % 7): [i, str(i)] for i in range(REFERENCE_SIZE)}
    sorted(table.items(), key=lambda item: -item[0][0])
    return time.perf_counter() - start


def set_up(name, seed):
    """Import the program, make the inputs, run one warm-up iteration.

    Returns the seconds it took, the workload and the warm-up outcome.
    """
    start = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads
    workload = workloads.WORKLOADS[name](seed)
    # Free the SoC the software reference read its kernels from, so
    # that it is not alive next to the warm-up's and in peak_rss_mb.
    gc.collect()
    reference, _ = iterate(workload)
    return time.perf_counter() - start, workload, reference


def setup_seconds(name, seed, first):
    """Median of ``first`` and ``SETUPS - 1`` set-ups in fresh interpreters.

    A set-up repeated in this process would find the program imported
    already, so each other sample comes from a child that runs
    ``set_up`` alone and prints its seconds.
    """
    samples = [first]
    for _ in range(SETUPS - 1):
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(seed), "--setup-only"],
            stdout=subprocess.PIPE, text=True, check=True, timeout=60)
        samples.append(float(child.stdout))
    return statistics.median(samples)


def pin_problems(name, seed, outcome):
    """Why ``outcome`` misses the workload's pins (empty when it holds)."""
    cycles, events, digest = PINS[name]
    problems = []
    if not outcome.outputs_ok:
        problems.append("outputs differ from the software evaluation")
    if (outcome.cycles, outcome.events) != (cycles, events):
        problems.append(f"{outcome.cycles} cycles / {outcome.events} "
                        f"events, pinned {cycles} / {events}")
    if seed == 0 and outcome.digest != digest:
        problems.append(f"output digest {outcome.digest}, pinned {digest}")
    return problems


def percentile(values, q):
    """Nearest-rank percentile of ``values`` (0 < q <= 100)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def end_to_end(setup_s, reference, done):
    """The end-to-end metrics of a ``--trace 0`` run."""
    costs = [cost for _, _, cost in done]
    sim_seconds = reference.cycles / (reference.clock_mhz * 1e6)
    return {
        "setup_s": setup_s,
        "iter_cost_p50": statistics.median(costs),
        "frames_per_ref": sum(o.frames for o, _, _ in done) / sum(costs),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024),
        "sim_cycles": reference.cycles,
        "sim_fps": reference.frames / sim_seconds,
        "sim_latency_p50_cycles": percentile(reference.latencies, 50),
        "sim_latency_p99_cycles": percentile(reference.latencies, 99),
        "sim_completion_rate": (len(reference.latencies)
                                / reference.offered),
    }


def per_layer(reference, done, profiled, profiler):
    """The per-layer metrics of a ``--trace 1`` run."""
    import layers
    stats = pstats.Stats(profiler).stats
    self_s = layers.attribute(stats, layers.SELF_TIME)
    calls = layers.attribute(stats, layers.CALLS)
    total_s = sum(self_s.values())
    n = len(profiled)
    metrics = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_ms"] = self_s[layer] * 1e3 / n
        metrics[f"{layer}.share"] = self_s[layer] / total_s
        metrics[f"{layer}.calls"] = round(calls[layer] / n)
    metrics.update(reference.counters)
    phases = [p for _, p, _ in done]
    for phase in ("build", "simulate", "check", "teardown"):
        metrics[f"phase.{phase}_ms"] = statistics.median(
            getattr(p, phase) for p in phases) * 1e3
    metrics["sim.events_per_host_s"] = statistics.median(
        reference.events / p.simulate for p in phases)
    metrics["profile.overhead"] = (
        statistics.median(p.total for _, p, _ in profiled)
        / statistics.median(p.total for p in phases) - 1)
    return metrics


def measure(name, seed, seconds, trace):
    """Set up, run and check one workload; returns the result object."""
    first, workload, reference = set_up(name, seed)
    setup_s = setup_seconds(name, seed, first)
    problems = pin_problems(name, seed, reference)

    profiler = cProfile.Profile() if trace else None
    # (outcome, phases, cost in reference units) per passing iteration.
    done, profiled = [], []
    attempted = failed = 0
    before = reference_seconds()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or attempted < MIN_ITERATIONS:
        profile_this = trace and attempted % PROFILE_EVERY == 0
        attempted += 1
        try:
            if profile_this:
                profiler.enable()
            try:
                outcome, phases = iterate(workload)
            finally:
                if profile_this:
                    profiler.disable()
        except Exception:
            failed += 1
            traceback.print_exc()
            continue
        after = reference_seconds()
        cost = phases.total / ((before + after) / 2)
        before = after
        if problems or outcome != reference:
            failed += 1
            continue
        (profiled if profile_this else done).append((outcome, phases, cost))

    for problem in problems:
        print(f"{name}: pin mismatch: {problem}", file=sys.stderr)
    if not done or (trace and not profiled):
        metrics = {}
    elif trace:
        metrics = per_layer(reference, done, profiled, profiler)
    else:
        metrics = end_to_end(setup_s, reference, done)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    notes = {"latency_samples": (len(reference.latencies), "count")}
    if done:
        notes["iter_ms_p50"] = (statistics.median(
            p.total for _, p, _ in done) * 1e3, "ms")
    return result, notes


def run_all(args):
    """Every workload in its own fresh interpreter, one after another."""
    status = 0
    for workload in args.names:
        status |= subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)]).returncode
    return 1 if status else 0


def main(argv=None):
    spec = json.loads(SPEC_PATH.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all, one "
                             "subprocess each)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds the input payloads")
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: profiled per-layer metrics instead of "
                             "the end-to-end ones")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up of --workload and print "
                             "its seconds (the other samples of setup_s)")
    args = parser.parse_args(argv)
    args.names = names
    if args.workload is None:
        if args.setup_only:
            parser.error("--setup-only needs --workload")
        return run_all(args)
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.setup_only:
        print(set_up(args.workload, args.seed)[0])
        return 0

    result, notes = measure(args.workload, args.seed, args.seconds,
                            args.trace)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        print(f"metrics do not match BENCHMARK.json: missing {missing}, "
              f"undeclared {extra}", file=sys.stderr)
        result["correct"] = False
    notes["iterations"] = (result["attempted"], "count")
    for note, (value, unit) in notes.items():
        print(f"{args.workload} {note} {value} {unit}")
    for metric, unit in declared.items():
        if metric in metrics:
            print(f"{args.workload} {metric} {metrics[metric]} {unit}")
    result["metrics"] = {metric: {"value": metrics[metric], "unit": unit}
                         for metric, unit in declared.items()
                         if metric in metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
