"""Tracing benchmark: profiling, pinned overhead arms and the fleet
flight-recorder scenario.

Three sections, all deterministic where CI gates:

1. **Pipeline profiling** — the paper's flagship application (nv0 ->
   cl0, p2p streaming) with the tracer attached: Chrome trace export
   (``artifacts/trace.json`` — load it in Perfetto), schema
   validation, flame summary, and the critical-path attribution of the
   ``esp_run`` window (>= 95% coverage bar). An untraced re-run must
   be bit-identical — the zero-timing-impact contract.

2. **Pinned overhead arms** — the three ``bench_perf`` workloads
   re-run with (a) an unbounded tracer, (b) a bounded
   flight-recorder ring (``RING_CAPACITY`` records), and — for the
   serve workload — (c) ring + metrics + health monitor + an armed
   :class:`~repro.trace.FlightRecorder`. Every arm must land on the
   exact pinned seed cycle *and* event counts: recording, ring
   eviction and an armed recorder cannot move simulated time by one
   cycle. The ring arm also gates the memory bound (held records
   <= 2x capacity; eviction accounting exact). Wall-clock overhead
   percentages are printed, not stored — only the pins and bounds
   gate.

3. **Fleet scenario** — the deterministic traced mini-fleet of
   :func:`repro.eval.fleet.run_traced_fleet_scenario`: per-instance
   ring tracers merged into one fleet trace
   (``artifacts/fleet_trace.json``) with router-decision instants,
   a full request waterfall reconstructed from a single router-minted
   trace ID, and a forced alert producing a postmortem artifact under
   ``artifacts/postmortems/``.

The run writes the deterministic results to ``BENCH_trace.json`` at
the repository root.

Run:  PYTHONPATH=src python benchmarks/bench_trace.py
"""

import json
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.eval import build_soc1
from repro.eval.apps import (
    APP_CONFIGS,
    dataflow_nv_cl,
    fresh_runtime,
    nv_cl_inputs,
)
from repro.eval.fleet import run_traced_fleet_scenario
from repro.eval.stack import build_stack
from repro.runtime import EspRuntime
from repro.trace import (
    FlightRecorder,
    analyze_run,
    attach_tracer,
    flame_summary,
    query_trace,
    validate_chrome_trace,
    write_chrome_trace,
)

from bench_perf import (
    PIPE_FRAMES,
    ROUNDS,
    SEED_CYCLES,
    SEED_EVENTS,
)
from bench_serve import SERVE_SPEC, build_trace

#: Frames through the profiling pipeline.
BENCH_FRAMES = 16

#: Minimum fraction of the esp_run window the critical-path analyzer
#: must attribute to a named group (the ISSUE acceptance bar).
COVERAGE_BAR = 0.95

#: Ring capacity of the bounded arms — small enough that every
#: workload actually evicts (the bound being exercised, not vacuous).
RING_CAPACITY = 256

#: Waterfall categories one fleet trace ID must reconstruct: the
#: router decision, the serve layer, driver software, DMA, the
#: accelerator phases and the NoC.
WATERFALL_CATS = ("fleet.route", "serve.request", "serve.dispatch",
                  "runtime.irq_wait", "dma.load", "acc.compute",
                  "noc.packet")

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_trace.json"
#: Where the Chrome traces and postmortems of a run land.
ARTIFACTS = Path("artifacts")


# -- section 1: pipeline profiling ------------------------------------------

def run_app(n_frames, tracing):
    """One nv->cl p2p run; returns (runtime, result, tracer|None)."""
    runtime = EspRuntime(build_soc1())
    tracer = attach_tracer(runtime.soc) if tracing else None
    frames, _ = nv_cl_inputs(n_frames, seed=0)
    result = runtime.esp_run(dataflow_nv_cl(1, 1), frames, mode="p2p")
    return runtime, result, tracer


def run_trace_benchmark(trace_path):
    """Traced + untraced runs, export, validation and attribution."""
    runtime, traced, tracer = run_app(BENCH_FRAMES, tracing=True)
    _, untraced, _ = run_app(BENCH_FRAMES, tracing=False)

    os.makedirs(os.path.dirname(trace_path) or ".", exist_ok=True)
    trace = write_chrome_trace(tracer, trace_path,
                               clock_mhz=runtime.soc.clock_mhz)
    return {
        "traced": traced,
        "untraced": untraced,
        "tracer": tracer,
        "trace": trace,
        "trace_path": trace_path,
        "problems": validate_chrome_trace(trace),
        "report": analyze_run(tracer),
        "clock_mhz": runtime.soc.clock_mhz,
    }


def check(results):
    assert results["problems"] == [], results["problems"]
    report = results["report"]
    assert report.coverage >= COVERAGE_BAR, (
        f"critical path attributes only {report.coverage:.1%} "
        f"of the run (bar: {COVERAGE_BAR:.0%})\n" + report.render())
    traced, untraced = results["traced"], results["untraced"]
    assert traced.cycles == untraced.cycles, (
        f"tracing perturbed the run: {traced.cycles} != "
        f"{untraced.cycles} cycles")
    assert traced.ioctl_calls == untraced.ioctl_calls
    assert (np.asarray(traced.outputs) ==
            np.asarray(untraced.outputs)).all()


def render(results):
    tracer = results["tracer"]
    lines = [flame_summary(tracer, top=12), "",
             results["report"].render(), ""]
    lines.append(
        f"exported {len(results['trace']['traceEvents'])} events "
        f"({len(tracer.spans)} spans, {len(tracer.instants)} instants, "
        f"{len(tracer.counters)} counter samples) to "
        f"{results['trace_path']}")
    lines.append(
        f"traced run: {results['traced'].cycles:,} cycles @ "
        f"{results['clock_mhz']:.0f} MHz; untraced run identical: "
        f"{results['traced'].cycles == results['untraced'].cycles}")
    return "\n".join(lines)


# -- section 2: pinned overhead arms ----------------------------------------

def _run_pipeline(mode, n_frames, arm):
    config = APP_CONFIGS["4nv_4cl"]
    frames, _ = config.make_inputs(n_frames, seed=0)
    runtime = fresh_runtime(config)
    tracer = None
    if arm == "traced":
        tracer = attach_tracer(runtime.soc.env)
    elif arm == "ring":
        tracer = attach_tracer(runtime.soc.env, capacity=RING_CAPACITY)
    dataflow = config.build_dataflow()
    start = time.perf_counter()
    runtime.esp_run(dataflow, frames, mode=mode)
    wall = time.perf_counter() - start
    env = runtime.soc.env
    return wall, env.now, env.events_processed, tracer


#: The serve trace's stack per overhead arm.
SERVE_ARMS = {
    "off": SERVE_SPEC,
    "traced": replace(SERVE_SPEC, tracing=True),
    "ring": replace(SERVE_SPEC, tracing=True,
                    trace_capacity=RING_CAPACITY),
    "armed": replace(SERVE_SPEC, tracing=True,
                     trace_capacity=RING_CAPACITY, metrics=True),
}


def _run_serve(arm):
    stack = build_stack(SERVE_ARMS[arm])
    if stack.monitor is not None:
        FlightRecorder(ARTIFACTS / "postmortems", stack.tracer,
                       clock_mhz=stack.soc.clock_mhz).arm(stack.monitor)
    trace = build_trace(2, 2)
    start = time.perf_counter()
    stack.server.run_trace(trace)
    wall = time.perf_counter() - start
    if stack.monitor is not None:
        stack.monitor.evaluate()
    env = stack.soc.env
    return wall, env.now, env.events_processed, stack.tracer


def _arm_runner(name):
    if name == "serve":
        return _run_serve
    mode = "p2p" if name == "p2p" else "pipe"
    return lambda arm: _run_pipeline(mode, PIPE_FRAMES, arm)


def _records_of(tracer):
    return (len(tracer.spans) + len(tracer.instants)
            + len(tracer.counters))


def measure_arms(name):
    """Every arm of one workload, best-of-``ROUNDS``, pins enforced.

    Returns the deterministic row and, apart, each instrumented arm's
    wall-clock overhead in percent over the ``off`` arm."""
    run = _arm_runner(name)
    expected_cycles = SEED_CYCLES[name]
    expected_events = SEED_EVENTS[name]
    arms = ("off", "traced", "ring") + (
        ("armed",) if name == "serve" else ())
    best = {}
    tracers = {}
    for arm in arms:
        for _ in range(ROUNDS):
            wall, cycles, events, tracer = run(arm)
            if cycles != expected_cycles:
                raise AssertionError(
                    f"cycle drift on {name!r} (arm {arm!r}): {cycles} "
                    f"!= pinned {expected_cycles} — tracing, ring "
                    f"eviction and armed recorders must be "
                    f"timing-neutral")
            if events != expected_events:
                raise AssertionError(
                    f"event drift on {name!r} (arm {arm!r}): {events} "
                    f"!= pinned {expected_events}")
            best[arm] = min(best.get(arm, wall), wall)
            tracers[arm] = tracer

    unbounded = tracers["traced"]
    ring = tracers["ring"]
    records_unbounded = _records_of(unbounded)
    records_ring = _records_of(ring)
    # The memory contract of the ring: at most 2x capacity held per
    # record list, and eviction accounting exact (held + dropped ==
    # what the unbounded run recorded).
    for label, held in (("spans", len(ring.spans)),
                        ("instants", len(ring.instants)),
                        ("counters", len(ring.counters))):
        if held > 2 * RING_CAPACITY:
            raise AssertionError(
                f"ring bound violated on {name!r}: {held} {label} "
                f"held > 2x capacity {RING_CAPACITY}")
    if records_ring + ring.dropped != records_unbounded:
        raise AssertionError(
            f"ring accounting drift on {name!r}: {records_ring} held "
            f"+ {ring.dropped} dropped != {records_unbounded} "
            f"unbounded records")

    row = {
        "cycles": expected_cycles,
        "events": expected_events,
        "records_unbounded": records_unbounded,
        "records_ring": records_ring,
        "dropped_ring": ring.dropped,
        "ring_memory_ratio": round(
            records_ring / records_unbounded, 3),
    }
    overheads = {arm: 100.0 * (best[arm] / best["off"] - 1.0)
                 for arm in arms if arm != "off"}
    return row, overheads


# -- section 3: the fleet flight-recorder scenario --------------------------

def run_fleet_scenario(out_dir, postmortem_dir):
    """Traced mini-fleet: merged trace, waterfall, forced postmortem."""
    scenario = run_traced_fleet_scenario(out_dir=postmortem_dir)
    trace = scenario["trace"]
    problems = validate_chrome_trace(trace)
    if problems:
        raise AssertionError(f"merged fleet trace invalid: {problems}")

    trace_ids = scenario["trace_ids"]
    if len(trace_ids) != len(scenario["report"].decisions):
        raise AssertionError(
            f"{len(trace_ids)} trace IDs in the merged trace != "
            f"{len(scenario['report'].decisions)} router decisions")
    # The waterfall check uses the *last* routed request: with bounded
    # rings the oldest spans are evicted by design, but the most
    # recent request must reconstruct end to end from its ID alone.
    waterfall_id = f"f-{len(trace_ids) - 1}"
    timeline = query_trace(trace, waterfall_id)
    cats = {event.cat for event in timeline.events}
    missing = [cat for cat in WATERFALL_CATS if cat not in cats]
    if missing:
        raise AssertionError(
            f"waterfall of {waterfall_id} is missing {missing}; "
            f"got {sorted(cats)}")
    if timeline.routed_to is None or timeline.latency_cycles is None:
        raise AssertionError(
            f"waterfall of {waterfall_id} lost its routing or "
            f"request span: {timeline.render(limit=10)}")
    if not any(timeline.busy_cycles.get(g) for g in
               ("dma", "compute", "noc")):
        raise AssertionError(
            f"waterfall attribution empty: {timeline.busy_cycles}")

    os.makedirs(out_dir, exist_ok=True)
    fleet_trace_path = str(Path(out_dir) / "fleet_trace.json")
    with open(fleet_trace_path, "w") as handle:
        json.dump(trace, handle)

    postmortem_path = scenario["postmortem"]
    artifact = json.loads(postmortem_path.read_text())
    if artifact["schema"] != "repro.postmortem/v1":
        raise AssertionError(f"unexpected postmortem schema: "
                             f"{artifact['schema']}")
    if artifact["alert"]["rule"] != "forced-postmortem":
        raise AssertionError(f"postmortem captured the wrong alert: "
                             f"{artifact['alert']}")
    window_spans = sum(len(spans) for spans
                       in artifact["spans"].values())
    if window_spans == 0:
        raise AssertionError("postmortem window contains no spans")

    return {
        "instances": len(scenario["fleet"].instances),
        "arrivals": len(scenario["report"].decisions),
        "trace_ids": len(trace_ids),
        "merged_events": len(trace["traceEvents"]),
        "fleet_trace": fleet_trace_path,
        "waterfall_id": waterfall_id,
        "waterfall_events": len(timeline.events),
        "waterfall_routed_to": timeline.routed_to,
        "waterfall_latency_cycles": timeline.latency_cycles,
        "waterfall_queue_cycles": timeline.queue_cycles,
        "waterfall_busy_cycles": timeline.busy_cycles,
        "postmortem": str(postmortem_path),
        "postmortem_spans": window_spans,
        "postmortem_trace_ids": len(artifact["trace_ids"]),
        "timeline": timeline,
    }


# -- report -----------------------------------------------------------------

def run_bench():
    """All three sections; returns the deterministic payload, the
    profiling and fleet results, and the printed-only overheads."""
    profile = run_trace_benchmark(str(ARTIFACTS / "trace.json"))
    check(profile)
    arms, overheads = {}, {}
    for name in ("p2p", "dma", "serve"):
        arms[name], overheads[name] = measure_arms(name)
    fleet = run_fleet_scenario(str(ARTIFACTS),
                               str(ARTIFACTS / "postmortems"))
    payload = {
        "benchmark": "bench_trace",
        "rounds": ROUNDS,
        "ring_capacity": RING_CAPACITY,
        "pipeline": {
            "frames": BENCH_FRAMES,
            "cycles": profile["traced"].cycles,
            "coverage": round(profile["report"].coverage, 4),
            "trace_events": len(profile["trace"]["traceEvents"]),
            "trace_path": profile["trace_path"],
        },
        "workloads": arms,
        "fleet": {key: value for key, value in fleet.items()
                  if key != "timeline"},
    }
    return payload, profile, fleet, overheads


def write_report(payload):
    REPORT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return REPORT_PATH


def print_report(payload, profile, fleet, overheads):
    print(render(profile))
    print(f"\npinned arms (best of {payload['rounds']} rounds, "
          f"ring={RING_CAPACITY}; wall-clock overhead over untraced):")
    for name, row in payload["workloads"].items():
        arms = "  ".join(f"{arm} {pct:+.1f}%"
                         for arm, pct in overheads[name].items())
        print(f"  {name:6s} {row['cycles']:>7d} cycles  {arms}  "
              f"ring holds {row['records_ring']}/"
              f"{row['records_unbounded']} records "
              f"({row['ring_memory_ratio']:.0%})")
    print(f"\nfleet scenario: {fleet['instances']} instances, "
          f"{fleet['arrivals']} arrivals, {fleet['trace_ids']} trace "
          f"IDs, {fleet['merged_events']} merged events -> "
          f"{fleet['fleet_trace']}")
    print(fleet["timeline"].render(limit=12))
    print(f"postmortem: {fleet['postmortem']} "
          f"({fleet['postmortem_spans']} spans, "
          f"{fleet['postmortem_trace_ids']} trace IDs in window)")


def main():
    results = run_bench()
    path = write_report(results[0])
    print_report(*results)
    print(f"\nreport: {path}")
    print("tracing benchmark: all assertions passed")


if __name__ == "__main__":
    main()
