"""The six ledger workloads.

Each workload generates its inputs once, in its constructor (set-up
time), together with the outputs a plain software evaluation of the
same kernels gives for them. It then builds a fresh stack per
iteration: ``build`` returns new SoC/runtime/server/fleet objects,
``simulate`` drives them over the pre-generated inputs, and ``outcome``
reads the results out through public APIs only and compares the
simulated outputs with the software ones. The seed changes the data
(frame payloads), never the amount of work: every workload has a fixed
shape, so simulated cycles and event counts are the same for every seed
and host-time medians compare across seeds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.eval.apps import (
    APP_CONFIGS,
    build_soc1,
    classifier_inputs,
    de_cl_inputs,
    fresh_runtime,
    nv_cl_inputs,
)
from repro.eval.fleet import (
    build_standard_fleet,
    overload_workload,
    standard_inputs,
    standard_tenants,
)
from repro.fleet import generate_arrivals
from repro.metrics import HealthMonitor, default_rules, instrument_server
from repro.runtime import EspRuntime
from repro.serve import InferenceServer, ServerConfig, TracedRequest
from repro.soc import read_monitors
from repro.trace import FlightRecorder, attach_tracer
from repro.tune import ablation_workloads

#: Frames through the 4nv_4cl pipeline (the bench_perf size).
PIPE_FRAMES = 32
#: The bench_serve trace: every tenant submits this many requests of
#: this many frames at cycle 0.
SERVE_REQUESTS = 2
SERVE_FRAMES = 2
#: Ring capacity of the observed server's tracer (bench_trace's arm).
RING_CAPACITY = 256
#: Fleet size and routing policy.
FLEET_INSTANCES = 4
FLEET_POLICY = "least-loaded"
#: The fleet's arrival trace is the seed-0 smoke overload trace (105
#: arrivals): the benchmark seed varies the payloads, not the schedule,
#: because the schedule sets how much work an iteration does.
FLEET_ARRIVAL_SEED = 0
#: Where the observed server's flight recorder would dump a postmortem
#: (inside the checkout, ignored by git). A healthy run writes nothing.
POSTMORTEM_DIR = Path(__file__).resolve().parent.parent / ".bench_build"

#: Counter names of :class:`Outcome`, all present on every workload.
COUNTERS = (
    "sim.events", "noc.packets", "noc.flit_hops", "noc.coh_flits",
    "soc.dma_ops", "soc.dram_words", "soc.llc_hits", "soc.llc_misses",
    "soc.tlb_misses", "accelerators.invocations",
    "accelerators.busy_cycles", "serve.admitted", "serve.batches",
    "serve.peak_queue_depth", "fleet.routed", "trace.records",
    "trace.dropped",
)


@dataclass
class Outcome:
    """What one iteration simulated, read out after the run.

    Two iterations of one workload and seed must produce equal
    outcomes; any difference is a determinism failure.
    """

    cycles: int
    frames: int
    clock_mhz: float
    offered: int
    #: Simulated latency of every completed request, from its
    #: scheduled arrival (a whole pipeline run counts as one request).
    latencies: Tuple[int, ...]
    #: sha256 over every output array and modelled decision.
    digest: str
    #: Every output equals the software evaluation of its input.
    outputs_ok: bool
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def events(self) -> int:
        return self.counters["sim.events"]


def _digest(parts: Sequence) -> str:
    sha = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            sha.update(str(part.dtype).encode())
            sha.update(str(part.shape).encode())
            sha.update(np.ascontiguousarray(part).tobytes())
        else:
            sha.update(repr(part).encode())
    return sha.hexdigest()


def software_outputs(soc, dataflow, frames) -> np.ndarray:
    """``dataflow`` over ``frames`` evaluated in software, frame by frame.

    Frame ``i`` passes through device ``i mod k`` of each level of ``k``
    devices, the runtime's round-robin split, and each device applies
    its kernel (``spec.run``) directly, with no simulation.
    """
    levels = dataflow.levels()
    outputs = []
    for index, frame in enumerate(frames):
        for level in levels:
            frame = soc.accelerator(level[index % len(level)]).spec.run(frame)
        outputs.append(frame)
    return np.stack(outputs)


def _soc_counters(socs) -> Dict[str, int]:
    """The SoC monitor read-outs, summed over ``socs``."""
    counters = dict.fromkeys(COUNTERS, 0)
    for soc in socs:
        report = read_monitors(soc)
        counters["sim.events"] += soc.env.events_processed
        counters["noc.packets"] += report.noc_packets
        counters["noc.flit_hops"] += report.noc_flit_hops
        counters["noc.coh_flits"] += sum(
            flits for plane, flits in report.noc_plane_flits.items()
            if plane.startswith("coh"))
        counters["soc.dram_words"] += report.total_dram_words
        for acc in report.accelerators:
            counters["soc.dma_ops"] += (acc.dma_loads + acc.dma_stores
                                        + acc.p2p_loads + acc.p2p_stores)
            counters["soc.tlb_misses"] += acc.tlb_misses
            counters["accelerators.invocations"] += acc.invocations
            counters["accelerators.busy_cycles"] += acc.busy_cycles
        for mem in report.memories:
            counters["soc.llc_hits"] += mem.llc_hits or 0
            counters["soc.llc_misses"] += mem.llc_misses or 0
    return counters


def _runs_outcome(socs, results, expected) -> Outcome:
    """Outcome of independent ``esp_run`` calls, one per SoC."""
    return Outcome(
        cycles=sum(soc.env.now for soc in socs),
        frames=sum(result.frames for result in results),
        clock_mhz=socs[0].clock_mhz,
        offered=len(results),
        latencies=tuple(result.cycles for result in results),
        digest=_digest([result.outputs for result in results]),
        outputs_ok=all(np.array_equal(result.outputs, want)
                       for result, want in zip(results, expected)),
        counters=_soc_counters(socs),
    )


class Pipeline:
    """``PIPE_FRAMES`` SVHN frames through the 4nv_4cl pipeline."""

    def __init__(self, seed: int, mode: str) -> None:
        self.config = APP_CONFIGS["4nv_4cl"]
        self.mode = mode
        self.frames, _ = self.config.make_inputs(PIPE_FRAMES, seed=seed)
        self.expected = software_outputs(
            fresh_runtime(self.config).soc, self.config.build_dataflow(),
            self.frames)

    def build(self):
        return fresh_runtime(self.config), self.config.build_dataflow()

    def simulate(self, stack):
        runtime, dataflow = stack
        return runtime.esp_run(dataflow, self.frames, mode=self.mode)

    def outcome(self, stack, result) -> Outcome:
        runtime, _ = stack
        return _runs_outcome([runtime.soc], [result], [self.expected])


class Coherent:
    """The three auto-tuner ablation SoCs, every device fully coherent.

    The seed draws the frame payloads (the tuner's own frames are a
    fixed ramp) with the same shapes and value range.
    """

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.workloads = ablation_workloads()
        self.frames = [rng.integers(0, 97, w.frames.shape).astype(np.float64)
                       for w in self.workloads]
        self.expected = [
            software_outputs(soc, workload.dataflow, frames)
            for workload, frames, (soc, _)
            in zip(self.workloads, self.frames, self.build())]

    def build(self):
        return [workload.build() for workload in self.workloads]

    def simulate(self, stack):
        return [runtime.esp_run(workload.dataflow, frames,
                                mode=workload.mode,
                                coherence="fully-coherent")
                for workload, frames, (_, runtime)
                in zip(self.workloads, self.frames, stack)]

    def outcome(self, stack, results) -> Outcome:
        return _runs_outcome([soc for soc, _ in stack], results,
                             self.expected)


class Serve:
    """The bench_serve trace on SoC-1, optionally fully instrumented.

    ``observed`` adds what an operator would switch on: server metrics,
    a ring tracer, a health monitor with the default rules, and an
    armed flight recorder.
    """

    def __init__(self, seed: int, observed: bool = False) -> None:
        n_frames = SERVE_REQUESTS * SERVE_FRAMES
        inputs = {
            "night-vision": nv_cl_inputs(n_frames, seed=seed)[0],
            "classifier": classifier_inputs(n_frames, seed=seed + 1)[0],
            "denoiser": de_cl_inputs(n_frames, seed=seed + 2)[0],
        }
        self.requests = [
            (tenant, frames[index * SERVE_FRAMES:
                            (index + 1) * SERVE_FRAMES])
            for tenant, frames in inputs.items()
            for index in range(SERVE_REQUESTS)]
        soc = build_soc1()
        dataflows = {t.name: t.dataflow for t in standard_tenants()}
        self.expected = [software_outputs(soc, dataflows[tenant], frames)
                         for tenant, frames in self.requests]
        self.observed = observed

    def build(self):
        runtime = EspRuntime(build_soc1())
        server = InferenceServer(runtime, ServerConfig())
        for tenant in standard_tenants():
            server.register(tenant)
        tracer = monitor = recorder = None
        if self.observed:
            tracer = attach_tracer(runtime.soc.env, capacity=RING_CAPACITY)
            monitor = HealthMonitor(instrument_server(server),
                                    default_rules(server))
            recorder = FlightRecorder(
                POSTMORTEM_DIR / "postmortems", tracer,
                clock_mhz=runtime.soc.clock_mhz).arm(monitor)
        trace = [TracedRequest(0, tenant, frames)
                 for tenant, frames in self.requests]
        return server, trace, tracer, monitor, recorder

    def simulate(self, stack):
        server, trace, _, monitor, _ = stack
        report = server.run_trace(trace)
        alerts = [] if monitor is None else monitor.evaluate()
        return report, alerts

    def outcome(self, stack, result) -> Outcome:
        server, trace, tracer, _, recorder = stack
        report, alerts = result
        completions = sorted(report.completions,
                             key=lambda c: c.request_id)
        counters = _soc_counters([server.soc])
        counters["serve.admitted"] = report.admitted
        counters["serve.batches"] = sum(report.batches_by_tenant.values())
        counters["serve.peak_queue_depth"] = report.peak_queue_depth
        if tracer is not None:
            counters["trace.records"] = (len(tracer.spans)
                                         + len(tracer.instants)
                                         + len(tracer.counters))
            counters["trace.dropped"] = tracer.dropped
        return Outcome(
            cycles=server.soc.env.now,
            frames=report.completed_frames,
            clock_mhz=report.clock_mhz,
            offered=len(trace),
            latencies=tuple(c.latency_cycles for c in completions),
            digest=_digest(
                [(c.tenant, c.submitted_at, c.completed_at)
                 for c in completions]
                + [c.outputs for c in completions]
                + [len(report.rejections), len(report.failures),
                   [alert.rule for alert in alerts],
                   0 if recorder is None else len(recorder.dumps)]),
            # Requests get increasing IDs, so sorted completions line up
            # with the trace order of ``self.requests``.
            outputs_ok=(len(completions) == len(self.expected) and all(
                np.array_equal(c.outputs, want)
                for c, want in zip(completions, self.expected))),
            counters=counters,
        )


class Fleet:
    """Four SoC-1 instances behind the least-loaded router, open loop."""

    def __init__(self, seed: int) -> None:
        self.arrivals = generate_arrivals(
            overload_workload(FLEET_ARRIVAL_SEED, smoke=True))
        self.inputs = standard_inputs(seed=seed)
        # The coordinator slices each tenant's pool per arrival and a
        # completion does not say which rows it got, so an output row
        # is checked against the software outputs of the whole pool.
        soc = build_soc1()
        dataflows = {t.name: t.dataflow for t in standard_tenants()}
        self.expected_rows = {
            tenant: {row.tobytes() for row in
                     software_outputs(soc, dataflows[tenant], pool)}
            for tenant, pool in self.inputs.items()}

    def build(self):
        return build_standard_fleet(FLEET_INSTANCES, FLEET_POLICY)

    def simulate(self, fleet):
        return fleet.run(self.arrivals, self.inputs)

    def outcome(self, fleet, report) -> Outcome:
        completions: List = []
        for name in sorted(report.per_instance):
            completions.extend(
                (name, c) for c in sorted(
                    report.per_instance[name].completions,
                    key=lambda c: c.request_id))
        counters = _soc_counters(
            [instance.soc for instance in fleet.instances])
        instances = report.per_instance.values()
        counters["serve.admitted"] = report.admitted
        counters["serve.batches"] = sum(
            sum(r.batches_by_tenant.values()) for r in instances)
        counters["serve.peak_queue_depth"] = max(
            r.peak_queue_depth for r in instances)
        counters["fleet.routed"] = len(report.decisions)
        return Outcome(
            cycles=report.makespan_cycles,
            frames=report.completed_frames,
            clock_mhz=report.clock_mhz,
            offered=report.offered_requests,
            latencies=tuple(c.latency_cycles for _, c in completions),
            digest=_digest(
                [(d.instance, d.tenant) for d in report.decisions]
                + [(name, r.reason) for name, r in report.rejections]
                + [(name, c.tenant, c.submitted_at, c.completed_at)
                   for name, c in completions]
                + [c.outputs for _, c in completions]),
            outputs_ok=all(
                row.tobytes() in self.expected_rows[c.tenant]
                for _, c in completions for row in c.outputs),
            counters=counters,
        )


#: Workload name -> factory taking the seed. Names match BENCHMARK.json.
WORKLOADS = {
    "pipe-p2p": lambda seed: Pipeline(seed, mode="p2p"),
    "pipe-dma": lambda seed: Pipeline(seed, mode="pipe"),
    "coherent": Coherent,
    "serve": Serve,
    "serve-observed": lambda seed: Serve(seed, observed=True),
    "fleet": Fleet,
}
