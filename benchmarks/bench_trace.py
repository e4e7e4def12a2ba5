"""Tracing benchmark: profiling, pinned overhead arms and the fleet
flight-recorder scenario.

Three sections, all deterministic where tier-1 gates:

1. **Pipeline profiling** — the paper's flagship application (nv0 ->
   cl0, p2p streaming) with the tracer attached: Chrome trace export
   (``artifacts/trace.json`` — load it in Perfetto), schema
   validation, flame summary, and the critical-path attribution of the
   ``esp_run`` window (>= 95% coverage bar). An untraced re-run must
   be bit-identical — the zero-timing-impact contract.

2. **Pinned arms** — the three seed workloads of ``tests/specs.py``
   re-run with (a) an unbounded tracer, (b) a bounded
   flight-recorder ring (``RING_CAPACITY`` records), and — for the
   serve workload — (c) ring + metrics + health monitor + an armed
   :class:`~repro.trace.FlightRecorder`. Every arm must land on the
   exact pinned seed cycle *and* event counts: recording, ring
   eviction and an armed recorder cannot move simulated time by one
   cycle. The ring arm also gates the memory bound (held records
   <= 2x capacity; eviction accounting exact). Host-time cost of the
   instruments is the ledger's to measure (``serve-observed``).

3. **Fleet scenario** — the deterministic traced mini-fleet of
   :func:`repro.eval.fleet.run_traced_fleet_scenario`: per-instance
   ring tracers merged into one fleet trace
   (``artifacts/fleet_trace.json``) with router-decision instants,
   a full request waterfall reconstructed from a single router-minted
   trace ID, and a forced alert producing a postmortem artifact under
   ``artifacts/postmortems/``.

The run writes the deterministic results to ``BENCH_trace.json`` at
the repository root, and the artifacts under the checkout's
``artifacts/`` whatever the working directory. ``payload(artifacts)``
writes them under any other directory; the report records them under
``artifacts/`` either way.

Run:  PYTHONPATH=src:. python benchmarks/bench_trace.py
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from benchmarks import REPO, write_report
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
from tests.specs import (
    PIPE_FRAMES,
    SEED_CYCLES,
    SEED_EVENTS,
    SERVE_SPEC,
    build_trace,
)

#: Frames through the profiling pipeline.
BENCH_FRAMES = 16

#: Minimum fraction of the esp_run window the critical-path analyzer
#: must attribute to a named group.
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

#: Where the Chrome traces and postmortems of a run land.
ARTIFACTS = REPO / "artifacts"


def recorded(path, artifacts):
    """``path`` under ``artifacts`` as the report stores it: under the
    checkout's ``artifacts/``."""
    return (Path("artifacts") / Path(path).relative_to(artifacts)).as_posix()


# -- section 1: pipeline profiling ------------------------------------------

def run_app(n_frames, tracing):
    """One nv->cl p2p run; returns (runtime, result, tracer|None)."""
    runtime = EspRuntime(build_soc1())
    tracer = attach_tracer(runtime.soc) if tracing else None
    frames, _ = nv_cl_inputs(n_frames, seed=0)
    result = runtime.esp_run(dataflow_nv_cl(1, 1), frames, mode="p2p")
    return runtime, result, tracer


def profile_pipeline(trace_path):
    """Traced + untraced runs, export, validation and attribution."""
    runtime, traced, tracer = run_app(BENCH_FRAMES, tracing=True)
    _, untraced, _ = run_app(BENCH_FRAMES, tracing=False)

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


# -- section 2: pinned arms -------------------------------------------------

def _run_pipeline(mode, n_frames, arm):
    config = APP_CONFIGS["4nv_4cl"]
    frames, _ = config.make_inputs(n_frames, seed=0)
    runtime = fresh_runtime(config)
    tracer = None
    if arm == "traced":
        tracer = attach_tracer(runtime.soc.env)
    elif arm == "ring":
        tracer = attach_tracer(runtime.soc.env, capacity=RING_CAPACITY)
    runtime.esp_run(config.build_dataflow(), frames, mode=mode)
    env = runtime.soc.env
    return env.now, env.events_processed, tracer


#: The serve trace's stack per arm.
SERVE_ARMS = {
    "off": SERVE_SPEC,
    "traced": replace(SERVE_SPEC, tracing=True),
    "ring": replace(SERVE_SPEC, tracing=True,
                    trace_capacity=RING_CAPACITY),
    "armed": replace(SERVE_SPEC, tracing=True,
                     trace_capacity=RING_CAPACITY, metrics=True),
}


def _run_serve(arm, artifacts):
    stack = build_stack(SERVE_ARMS[arm])
    if stack.monitor is not None:
        FlightRecorder(artifacts / "postmortems", stack.tracer,
                       clock_mhz=stack.soc.clock_mhz).arm(stack.monitor)
    stack.server.run_trace(build_trace(2, 2))
    if stack.monitor is not None:
        stack.monitor.evaluate()
    env = stack.soc.env
    return env.now, env.events_processed, stack.tracer


def _arm_runner(name, artifacts):
    if name == "serve":
        return lambda arm: _run_serve(arm, artifacts)
    mode = "p2p" if name == "p2p" else "pipe"
    return lambda arm: _run_pipeline(mode, PIPE_FRAMES, arm)


def _records_of(tracer):
    return (len(tracer.spans) + len(tracer.instants)
            + len(tracer.counters))


def measure_arms(name, artifacts):
    """Every arm of one workload once, pins enforced; the
    deterministic row."""
    run = _arm_runner(name, artifacts)
    expected_cycles = SEED_CYCLES[name]
    expected_events = SEED_EVENTS[name]
    arms = ("off", "traced", "ring") + (
        ("armed",) if name == "serve" else ())
    tracers = {}
    for arm in arms:
        cycles, events, tracers[arm] = run(arm)
        if cycles != expected_cycles:
            raise AssertionError(
                f"cycle drift on {name!r} (arm {arm!r}): {cycles} "
                f"!= pinned {expected_cycles} — tracing, ring "
                f"eviction and armed recorders must be timing-neutral")
        if events != expected_events:
            raise AssertionError(
                f"event drift on {name!r} (arm {arm!r}): {events} "
                f"!= pinned {expected_events}")

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

    return {
        "cycles": expected_cycles,
        "events": expected_events,
        "records_unbounded": records_unbounded,
        "records_ring": records_ring,
        "dropped_ring": ring.dropped,
        "ring_memory_ratio": round(
            records_ring / records_unbounded, 3),
    }


# -- section 3: the fleet flight-recorder scenario --------------------------

def run_fleet_scenario(artifacts):
    """Traced mini-fleet: merged trace, waterfall, forced postmortem."""
    scenario = run_traced_fleet_scenario(out_dir=artifacts / "postmortems")
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

    fleet_trace_path = artifacts / "fleet_trace.json"
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
        "fleet_trace": recorded(fleet_trace_path, artifacts),
        "waterfall_id": waterfall_id,
        "waterfall_events": len(timeline.events),
        "waterfall_routed_to": timeline.routed_to,
        "waterfall_latency_cycles": timeline.latency_cycles,
        "waterfall_queue_cycles": timeline.queue_cycles,
        "waterfall_busy_cycles": timeline.busy_cycles,
        "postmortem": recorded(postmortem_path, artifacts),
        "postmortem_spans": window_spans,
        "postmortem_trace_ids": len(artifact["trace_ids"]),
        "timeline": timeline,
    }


# -- report -----------------------------------------------------------------

def payload(artifacts):
    """All three sections, printed and checked, with the traces and the
    postmortem written under the ``artifacts`` directory; the
    ``BENCH_trace.json`` payload."""
    artifacts = Path(artifacts)
    artifacts.mkdir(exist_ok=True)
    profile = profile_pipeline(artifacts / "trace.json")
    print(render(profile))
    check(profile)
    arms = {name: measure_arms(name, artifacts)
            for name in ("p2p", "dma", "serve")}
    print(f"\npinned arms (ring={RING_CAPACITY}):")
    for name, row in arms.items():
        print(f"  {name:6s} {row['cycles']:>7d} cycles  "
              f"{row['events']:>6d} events  "
              f"ring holds {row['records_ring']}/"
              f"{row['records_unbounded']} records "
              f"({row['ring_memory_ratio']:.0%})")
    fleet = run_fleet_scenario(artifacts)
    timeline = fleet.pop("timeline")
    print(f"\nfleet scenario: {fleet['instances']} instances, "
          f"{fleet['arrivals']} arrivals, {fleet['trace_ids']} trace "
          f"IDs, {fleet['merged_events']} merged events -> "
          f"{fleet['fleet_trace']}")
    print(timeline.render(limit=12))
    print(f"postmortem: {fleet['postmortem']} "
          f"({fleet['postmortem_spans']} spans, "
          f"{fleet['postmortem_trace_ids']} trace IDs in window)\n")
    return {
        "benchmark": "bench_trace",
        "ring_capacity": RING_CAPACITY,
        "pipeline": {
            "frames": BENCH_FRAMES,
            "cycles": profile["traced"].cycles,
            "coverage": round(profile["report"].coverage, 4),
            "trace_events": len(profile["trace"]["traceEvents"]),
            "trace_path": recorded(profile["trace_path"], artifacts),
        },
        "workloads": arms,
        "fleet": fleet,
    }


def main():
    write_report("BENCH_trace.json", payload(ARTIFACTS))
    print("tracing benchmark: all assertions passed")


if __name__ == "__main__":
    main()
