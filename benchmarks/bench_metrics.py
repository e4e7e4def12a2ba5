"""Metrics-overhead benchmark: recording is cheap and timing-neutral.

Re-runs the three seed workloads of ``tests/specs.py`` with the
metrics registry attached and enforces the subsystem's two contracts.
The NoC, DMA and accelerator families are scrape-time views of the
hardware counters, so each "metrics on" arm wires the SoC collectors
and pays one closing Prometheus scrape inside its timed window —
otherwise a pipeline arm would record nothing and compare a run
against itself.

1. **Timing neutrality** (hard): metrics-enabled runs land on the
   exact pinned simulated-cycle and event counts of the seed — passive
   recording cannot move simulated time by a single cycle. A sampled
   run (periodic scrape process) keeps the cycle pin while adding only
   its own timeout events.
2. **Low wall-clock overhead** (soft floor): events/second with
   recording on stays within ``OVERHEAD_FLOOR`` of the metrics-off
   rate measured in the same process (best-of-``ROUNDS`` on both
   sides, so machine noise largely cancels). The smoke variant used in
   CI relaxes the floor — shared runners are noisy.

The scraped exposition is validated end-to-end (``to_prometheus`` ->
``parse_exposition`` round-trip) and the final registry snapshot lands
in ``artifacts/metrics.json`` together with the overhead table, which
the ``benchmarks`` CI job uploads.

Run:  PYTHONPATH=src:. python benchmarks/bench_metrics.py [--smoke]
"""

import argparse
import sys
import time
from dataclasses import replace

from benchmarks import write_report
from repro.eval.apps import APP_CONFIGS, fresh_runtime
from repro.eval.stack import build_stack
from repro.metrics import (
    attach_metrics,
    parse_exposition,
    register_soc_collectors,
    to_prometheus,
)
from tests.specs import (
    PIPE_FRAMES,
    SEED_CYCLES,
    SEED_EVENTS,
    SMOKE_CYCLES,
    SMOKE_EVENTS,
    SMOKE_PIPE_FRAMES,
    SERVE_SPEC,
    build_trace,
)

#: Minimum acceptable (metrics-on events/s) / (metrics-off events/s).
#: Full runs hold the 10%-overhead bar; the CI smoke variant only
#: guards against pathological regressions.
OVERHEAD_FLOOR = 0.90
SMOKE_OVERHEAD_FLOOR = 0.50

#: Timing repetitions per arm; the minimum is compared (least-noise
#: estimator for a deterministic computation).
ROUNDS = 5

#: Scrape interval of the sampled run, in cycles.
SAMPLE_INTERVAL = 5_000


def run_pipeline(mode, n_frames, instrument):
    config = APP_CONFIGS["4nv_4cl"]
    frames, _ = config.make_inputs(n_frames, seed=0)
    runtime = fresh_runtime(config)
    registry = None
    if instrument:
        registry = attach_metrics(runtime.soc.env)
        register_soc_collectors(registry, runtime.soc)
    dataflow = config.build_dataflow()
    start = time.perf_counter()
    runtime.esp_run(dataflow, frames, mode=mode)
    if registry is not None:
        to_prometheus(registry)
    wall = time.perf_counter() - start
    env = runtime.soc.env
    return wall, env.now, env.events_processed


def run_serve(n_requests, frames_per_request, instrument):
    stack = build_stack(replace(SERVE_SPEC, metrics=instrument))
    trace = build_trace(n_requests, frames_per_request)
    start = time.perf_counter()
    stack.server.run_trace(trace)
    wall = time.perf_counter() - start
    env = stack.soc.env
    return wall, env.now, env.events_processed


def workload_runner(name, smoke):
    if name == "serve":
        n_requests, frames = (1, 1) if smoke else (2, 2)
        return lambda instrument: run_serve(n_requests, frames,
                                            instrument)
    mode = "p2p" if name == "p2p" else "pipe"
    n_frames = SMOKE_PIPE_FRAMES if smoke else PIPE_FRAMES
    return lambda instrument: run_pipeline(mode, n_frames, instrument)


def measure_workload(name, smoke=False):
    """Off/on best-of-``ROUNDS`` pair, pins enforced on both."""
    run = workload_runner(name, smoke)
    expected_cycles = (SMOKE_CYCLES if smoke else SEED_CYCLES)[name]
    expected_events = (SMOKE_EVENTS if smoke else SEED_EVENTS)[name]
    best = {}
    for label, instrument in (("off", False), ("on", True)):
        for _ in range(ROUNDS):
            wall, cycles, events = run(instrument)
            if cycles != expected_cycles:
                raise AssertionError(
                    f"cycle drift on {name!r} (metrics {label}): "
                    f"{cycles} != pinned {expected_cycles} — recording "
                    f"must be timing-neutral")
            if events != expected_events:
                raise AssertionError(
                    f"event drift on {name!r} (metrics {label}): "
                    f"{events} != pinned {expected_events}")
            best[label] = min(best.get(label, wall), wall)
    ratio = best["off"] / best["on"]
    return {
        "cycles": expected_cycles,
        "events": expected_events,
        "wall_off_s": round(best["off"], 6),
        "wall_on_s": round(best["on"], 6),
        "events_per_sec_off": round(expected_events / best["off"]),
        "events_per_sec_on": round(expected_events / best["on"]),
        "throughput_ratio": round(ratio, 3),
    }


def run_sampled_serve(smoke=False):
    """The scraping run: sampler + health rules + live exposition.

    Returns (registry snapshot, scrape stats). Cycles must stay on the
    pin; the sampler's own timeout events are the only event-count
    delta allowed.
    """
    stack = build_stack(replace(SERVE_SPEC, metrics=True,
                                sampler_interval=SAMPLE_INTERVAL))
    registry, monitor = stack.registry, stack.monitor
    scrapes = []
    # Each evaluation (a sampler tick, and the last one below) ends by
    # scraping the exposition.
    monitor.subscribe(lambda _monitor, _: scrapes.append(
        len(parse_exposition(to_prometheus(registry)))))
    n_requests, frames = (1, 1) if smoke else (2, 2)
    stack.server.run_trace(build_trace(n_requests, frames))
    monitor.evaluate()

    env = stack.soc.env
    expected_cycles = (SMOKE_CYCLES if smoke else SEED_CYCLES)["serve"]
    expected_events = (SMOKE_EVENTS if smoke else SEED_EVENTS)["serve"]
    if env.now != expected_cycles:
        raise AssertionError(
            f"sampled serve run drifted: {env.now} cycles != pinned "
            f"{expected_cycles} — scraping must cost zero cycles")
    extra = env.events_processed - expected_events
    if not 0 < extra <= expected_cycles // SAMPLE_INTERVAL + 1:
        raise AssertionError(
            f"sampled run dispatched {extra} extra events; expected "
            f"only the sampler's own ticks")
    if not scrapes or min(scrapes) == 0:
        raise AssertionError("exposition scrape came back empty")
    final = parse_exposition(to_prometheus(registry))
    if monitor.status() != "healthy":
        raise AssertionError(f"healthy run reported "
                             f"{monitor.status()}: {monitor.render()}")
    stats = {
        "scrapes": len(scrapes),
        "final_exposition_samples": len(final),
        "sampler_extra_events": extra,
        "health": monitor.status(),
        "health_incidents": len(monitor.history),
    }
    return registry.snapshot(), stats


def payload(smoke=False):
    """Every workload and the sampled serve, with the overhead floor
    asserted; the ``artifacts/metrics.json`` payload."""
    floor = SMOKE_OVERHEAD_FLOOR if smoke else OVERHEAD_FLOOR
    workloads = {}
    for name in ("p2p", "dma", "serve"):
        workloads[name] = measure_workload(name, smoke=smoke)
    snapshot, scrape_stats = run_sampled_serve(smoke=smoke)
    report = {
        "benchmark": "bench_metrics",
        "variant": "smoke" if smoke else "full",
        "rounds": ROUNDS,
        "overhead_floor": floor,
        "workloads": workloads,
        "sampled_serve": scrape_stats,
        "snapshot": snapshot,
    }
    for name, row in workloads.items():
        if row["throughput_ratio"] < floor:
            raise AssertionError(
                f"metrics overhead on {name!r} too high: "
                f"{row['events_per_sec_on']} ev/s on vs "
                f"{row['events_per_sec_off']} ev/s off "
                f"(ratio {row['throughput_ratio']} < floor {floor})")
    return report


def print_report(report):
    print(f"\nmetrics overhead ({report['variant']}, best of "
          f"{report['rounds']} rounds, floor "
          f"{report['overhead_floor']}):")
    for name, row in report["workloads"].items():
        print(f"  {name:6s} {row['cycles']:>7d} cycles  "
              f"off {row['events_per_sec_off']:>8d} ev/s  "
              f"on {row['events_per_sec_on']:>8d} ev/s  "
              f"ratio {row['throughput_ratio']:.3f}")
    stats = report["sampled_serve"]
    print(f"  sampled serve: {stats['scrapes']} scrapes, "
          f"{stats['final_exposition_samples']} exposition samples, "
          f"+{stats['sampler_extra_events']} sampler events, "
          f"health {stats['health']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="trimmed workloads + relaxed floor for CI")
    args = parser.parse_args(argv)
    report = payload(smoke=args.smoke)
    print_report(report)
    write_report("artifacts/metrics.json", report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
