"""The prepass: each run evaluates its kernels ahead of the timing model.

A run holds one kernel memo on the tiles it drives
(``repro.soc.run_memo``): ``{kernel: {input frame bytes: result}}``,
where the kernel is a spec's ``kernel`` object. Before a plan's driver
starts, ``repro.soc.fill_memo`` runs each (level, spec) of the plan as
one batch call over the frames the memo does not hold yet. COMPUTE looks
a result up under its tile's kernel and the exact bytes LOAD
delivered, and never takes it out, so a frame corrupted in DRAM
misses and runs the kernel on its corrupted words, and a frame that
appears twice hits twice.

The outermost run owns the memo and clears it when it returns or
raises: ``execute``/``run_process`` for a lone plan,
``InferenceServer.run_trace`` for a trace, ``Fleet.run`` for a fleet.
A plan nested in a trace or fleet run adds its misses to that run's
memo. A fleet run knows every frame its arrivals carry before the
first cycle, so it fills the memo with each tenant's offered frames
first, one batch per level, across all instances, and the plans it
dispatches batch nothing.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.accelerators import AcceleratorSpec
from repro.eval.apps import (build_soc1, build_soc2, classifier_inputs,
                             dataflow_de_cl, dataflow_multitile,
                             dataflow_nv_cl, de_cl_inputs, nv_cl_inputs)
from repro.eval.fleet import build_standard_fleet, standard_inputs
from repro.faults import FaultInjector, FaultPlan, FaultSpec, RecoveryPolicy
from repro.fleet import Arrival, Fleet
from repro.runtime import EspRuntime, chain
from repro.runtime import executor
from repro.serve import InferenceServer, TenantConfig, TracedRequest
from repro.sim import Interrupt
from repro.tune.workloads import llc_resident
from tests.conftest import make_soc, make_spec, per_frame


@pytest.fixture
def calls(monkeypatch):
    """Records each batch call by spec name, and every single-frame
    kernel run as ``(name, frame)``. ``run`` is the batch of one, which
    is not recorded as a batch. The prepass runs only batches, so on a
    run each single-frame run is a COMPUTE miss."""
    record = {"batch": [], "misses": []}
    run, run_batch = AcceleratorSpec.run, AcceleratorSpec.run_batch
    single = []

    def watched_run(spec, frame):
        record["misses"].append((spec.name, np.array(frame)))
        single.append(spec)
        try:
            return run(spec, frame)
        finally:
            single.pop()

    def watched_run_batch(spec, frames):
        if not single:
            record["batch"].append(spec.name)
        return run_batch(spec, frames)

    monkeypatch.setattr(AcceleratorSpec, "run", watched_run)
    monkeypatch.setattr(AcceleratorSpec, "run_batch", watched_run_batch)
    return record


def held_entries(soc):
    return {name: tile.memo for name, tile in soc.accelerators.items()
            if tile.memo is not None}


def software(soc, dataflow, frames):
    """The dataflow's kernels composed frame by frame, off the SoC."""
    out = []
    for index, frame in enumerate(frames):
        for names in dataflow.levels():
            name = names[index % len(names)]
            frame = soc.accelerators[name].spec.run(frame)
        out.append(frame)
    return np.array(out)


#: (SoC, dataflow, inputs, batch kernels in level order): two batch
#: levels of four devices each, two of one device each, and five.
PIPELINES = {
    "4nv_4cl": (build_soc1, lambda: dataflow_nv_cl(4, 4), nv_cl_inputs,
                ["night_vision", "classifier"]),
    "1de_1cl": (build_soc1, dataflow_de_cl, de_cl_inputs,
                ["denoiser", "classifier"]),
    "1cl_split": (build_soc2, dataflow_multitile, classifier_inputs,
                  [f"svhn_classifier_part{i}" for i in range(5)]),
}


class TestPlanScope:
    @pytest.mark.parametrize("mode", ["base", "pipe", "p2p"])
    @pytest.mark.parametrize("pipeline", sorted(PIPELINES))
    def test_one_batch_per_level_and_every_compute_hits(self, calls,
                                                        pipeline, mode):
        build, make_dataflow, inputs, kernels = PIPELINES[pipeline]
        soc = build()
        runtime = EspRuntime(soc)
        dataflow = make_dataflow()
        frames, _ = inputs(8, seed=3)
        want = software(soc, dataflow, frames)
        calls["misses"].clear()
        for run in (1, 2):
            result = runtime.esp_run(dataflow, frames, mode=mode)
            assert result.outputs.tobytes() == want.tobytes()
            assert calls["batch"] == kernels * run
            assert calls["misses"] == []
            assert held_entries(soc) == {}

    def test_degraded_run_leaves_no_entry(self, calls, monkeypatch):
        """A hung classifier kills the p2p stream; the run degrades to a
        ``pipe`` re-plan that runs it in software. The run fills the
        memo once: the re-plan finds its frames there."""
        fill = executor.fill_memo
        fills = []

        def counted_fill(*args):
            fills.append(args)
            fill(*args)

        monkeypatch.setattr(executor, "fill_memo", counted_fill)
        soc = build_soc1()
        FaultInjector(FaultPlan([FaultSpec(
            kind="acc_hang", target="cl0", at_cycle=0,
            count=1)])).attach(soc)
        runtime = EspRuntime(soc, recovery=RecoveryPolicy(
            watchdog_cycles=150_000))
        frames, _ = de_cl_inputs(4, seed=0)
        result = runtime.esp_run(dataflow_de_cl(), frames, mode="p2p")
        assert result.degraded
        assert len(fills) == 1
        assert result.outputs.tobytes() == software(
            soc, dataflow_de_cl(), frames).tobytes()
        assert calls["batch"] == ["denoiser", "classifier"]
        assert held_entries(soc) == {}

    def test_coherent_ablation_run_hits_every_compute(self, calls):
        """A tuner ablation SoC, fully coherent: its two levels share
        one kernel, and each is one batch; every COMPUTE hits."""
        workload = llc_resident()
        soc, runtime = workload.build()
        result = runtime.esp_run(workload.dataflow, workload.frames,
                                 mode=workload.mode,
                                 coherence="fully-coherent")
        assert calls["batch"] == ["mid", "mid"]
        assert calls["misses"] == []
        assert result.outputs.tobytes() == software(
            soc, workload.dataflow, workload.frames).tobytes()
        assert held_entries(soc) == {}

    def test_interrupted_run_process_leaves_no_entry(self, calls):
        soc = build_soc1()
        runtime = EspRuntime(soc)
        env = soc.env
        frames, _ = de_cl_inputs(4, seed=0)
        outcome = []

        def request():
            try:
                yield from runtime.executor.run_process(
                    dataflow_de_cl(), frames, "pipe")
            except Interrupt:
                outcome.append("interrupted")

        process = env.process(request(), name="request")
        env.run(until=env.timeout(5_000))
        assert held_entries(soc)   # in flight: entries still to take
        process.interrupt("cancelled")
        env.run()
        assert outcome == ["interrupted"]
        assert calls["batch"] == ["denoiser", "classifier"]
        assert held_entries(soc) == {}


class TestFaultInterplay:
    def test_frame_corrupted_after_prepass_misses(self, calls,
                                                  monkeypatch):
        """A bit flipped in DRAM after the prepass, as the
        ``dram_bitflip`` fault flips it: that frame's COMPUTE misses,
        the kernel runs on the corrupted words, and its output row is
        the software composition over the corrupted frame."""
        soc = build_soc1()
        runtime = EspRuntime(soc)
        dataflow = dataflow_de_cl()
        frames, _ = de_cl_inputs(4, seed=0)
        words = frames.shape[1]
        victim, word = 2, int(np.argmax(frames[2]))
        prepare = runtime.executor._prepare
        delivered = []

        def prepare_then_flip(*args):
            prepared, plan = prepare(*args)
            start = plan.input_buffer.offset + victim * words
            tile, local = soc.memory_map.owner(start + word)
            tile.storage[local:local + 1].view(np.int64)[0] ^= \
                np.int64(1) << np.int64(51)
            delivered.append(soc.memory_map.read_words(start, words))
            return prepared, plan

        monkeypatch.setattr(runtime.executor, "_prepare",
                            prepare_then_flip)
        result = runtime.esp_run(dataflow, frames, mode="pipe")
        misses = list(calls["misses"])

        corrupted = delivered[0]
        assert corrupted.tobytes() != frames[victim].tobytes()
        denoiser = soc.accelerators["de0"].spec
        # Only the corrupted frame misses: on the denoiser, with the
        # corrupted words, and downstream where its output changed.
        assert [name for name, _ in misses] == ["denoiser", "classifier"]
        assert misses[0][1].tobytes() == corrupted.tobytes()
        assert misses[1][1].tobytes() == \
            denoiser.run(corrupted).tobytes()
        want = software(soc, dataflow, frames)
        want[victim] = software(soc, dataflow, corrupted[None])[0]
        assert result.outputs.tobytes() == want.tobytes()
        assert held_entries(soc) == {}

    def test_entry_differing_by_a_zero_sign_misses(self, calls,
                                                   monkeypatch):
        """An entry is used only for its input frame's exact bytes:
        here the victim's entry is keyed by its frame with -0.0 where
        the delivered frame holds 0.0, values that compare equal. That
        frame's COMPUTE misses and runs the kernel on the delivered
        words; every other frame hits."""
        soc = build_soc1()
        runtime = EspRuntime(soc)
        dataflow = dataflow_nv_cl(4, 4)
        frames, _ = nv_cl_inputs(8, seed=3)
        victim, word = 5, 100
        frames[victim, word] = 0.0
        fill = executor.fill_memo

        def fill_then_sign(memo, levels, filled):
            fill(memo, levels, filled)
            table = memo[levels[0][0].kernel]
            signed = frames[victim].copy()
            signed[word] = -0.0
            table[signed.tobytes()] = table.pop(frames[victim].tobytes())

        monkeypatch.setattr(executor, "fill_memo", fill_then_sign)
        result = runtime.esp_run(dataflow, frames, mode="p2p")
        misses = [(name, frame.tobytes())
                  for name, frame in calls["misses"]]
        assert misses == [("night_vision", frames[victim].tobytes())]
        assert result.outputs.tobytes() == \
            software(soc, dataflow, frames).tobytes()
        assert held_entries(soc) == {}


def test_kernel_error_is_raised_where_the_run_reaches_it(calls):
    """The prepass is speculative: a kernel that raises ends it, and
    the run reaches the error itself, or not. Level 0's kernel raises
    on one frame: the run fails from inside the simulation, as it
    would without a prepass. Or it raises only on batches of more than
    one row, which only the prepass makes: the run completes, every
    frame a COMPUTE miss. Neither leaves an entry behind."""
    def picky(frame):
        if frame[0] == 3.0:
            raise ValueError("bad frame")
        return frame + 1.0

    def one_row_only(frames):
        if len(frames) > 1:
            raise ValueError("batch of more than one row")
        return frames + 1.0

    frames = np.arange(4.0)[:, None] + np.zeros((4, 16))
    dataflow = chain("ab", ["a0", "b0"])

    def soc_with(kernel):
        return make_soc([("a0", replace(make_spec(name="a"),
                                        kernel=kernel)),
                         ("b0", make_spec(name="b"))])

    soc = soc_with(per_frame(picky))
    with pytest.raises(ValueError, match="bad frame"):
        EspRuntime(soc).esp_run(dataflow, frames, mode="pipe")
    assert soc.env.now > 0
    assert calls["batch"] == ["a"]
    assert held_entries(soc) == {}

    calls["batch"].clear()
    calls["misses"].clear()
    soc = soc_with(one_row_only)
    result = EspRuntime(soc).esp_run(dataflow, frames, mode="pipe")
    assert result.outputs.tobytes() == (frames + 2.0).tobytes()
    assert calls["batch"] == ["a"]
    assert sorted(name for name, _ in calls["misses"]) == \
        ["a"] * 4 + ["b"] * 4
    assert held_entries(soc) == {}


def fleet_outputs(report):
    """Every completion's output rows, by tenant, in instance and
    request order."""
    rows = {}
    for name in sorted(report.per_instance):
        for c in sorted(report.per_instance[name].completions,
                        key=lambda c: c.request_id):
            rows.setdefault(c.tenant, []).extend(c.outputs)
    return rows


def software_rows(fleet, inputs):
    """tenant -> the bytes of its software outputs over its whole pool."""
    soc = fleet.instances[0].soc
    server = fleet.instances[0].server
    return {tenant: {row.tobytes() for row in software(
        soc, server.dataflow(tenant), pool)}
        for tenant, pool in inputs.items()}


def fleet_held(fleet):
    return [(instance.name, name)
            for instance in fleet.instances
            for name, tile in instance.soc.accelerators.items()
            if tile.memo is not None]


#: A few requests per tenant, spread so that none is rejected and no
#: pool row is offered twice in one batch.
FLEET_ARRIVALS = [Arrival(0, "classifier", 3),
                  Arrival(200, "night-vision", 2),
                  Arrival(400, "denoiser", 1),
                  Arrival(600, "classifier", 2),
                  Arrival(30_000, "night-vision", 2),
                  Arrival(30_200, "classifier", 3)]
#: One batch per (tenant, level), sorted: night-vision's two levels,
#: then one level each for the classifier and the denoiser.
FLEET_BATCHES = ["classifier", "classifier", "denoiser", "night_vision"]
#: One request of nine frames from a pool of eight: pool row 0 reaches
#: one classifier tile twice in one batch.
TWICE_ARRIVALS = [Arrival(0, "classifier", 9)]


class TestFleetScope:
    """``Fleet.run`` evaluates each tenant's offered frames once, across
    its instances, before the first arrival; each plan finds its frames
    in that run-scoped memo."""

    def test_one_batch_per_tenant_level_and_every_compute_hits(
            self, calls, monkeypatch):
        """Two arrival sets: requests spread so that no pool row
        repeats in a batch, and one request whose pool row 0 reaches
        one classifier tile twice in one batch."""
        inputs = standard_inputs(n_frames=8, seed=4)
        for arrivals, batches in [(FLEET_ARRIVALS, FLEET_BATCHES),
                                  (TWICE_ARRIVALS, ["classifier"])]:
            calls["batch"].clear()
            calls["misses"].clear()
            fleet = build_standard_fleet(n_instances=2,
                                         policy="round-robin")
            report = fleet.run(arrivals, inputs)
            assert report.completed_requests == len(arrivals)
            # Every batch call is the fleet pass's: none in a dispatch.
            assert sorted(calls["batch"]) == batches
            assert calls["misses"] == []
            outputs = fleet_outputs(report)
            want = software_rows(fleet, inputs)
            assert all(row.tobytes() in want[tenant]
                       for tenant, rows in outputs.items() for row in rows)
            # Byte-identical to the same run with per-plan prepasses
            # only.
            with monkeypatch.context() as patch:
                patch.setattr(Fleet, "_kernel_pass", lambda *args: None)
                alone = build_standard_fleet(n_instances=2,
                                             policy="round-robin")
                reference = fleet_outputs(alone.run(arrivals, inputs))
            assert {t: np.array(r).tobytes()
                    for t, r in outputs.items()} == \
                {t: np.array(r).tobytes() for t, r in reference.items()}

    def test_no_table_outlives_the_run(self, calls, monkeypatch):
        inputs = standard_inputs(n_frames=8, seed=4)
        fleet = build_standard_fleet(n_instances=2, policy="round-robin")
        for run in (1, 2):
            fleet.run(FLEET_ARRIVALS, inputs)
            assert fleet_held(fleet) == []
            assert sorted(calls["batch"]) == sorted(FLEET_BATCHES * run)

        failing = build_standard_fleet(n_instances=2,
                                       policy="round-robin")
        route = failing.router.route
        routed = []

        def route_then_fail(tenant, at):
            if len(routed) == 3:
                raise RuntimeError("router down")
            routed.append(tenant)
            return route(tenant, at=at)

        monkeypatch.setattr(failing.router, "route", route_then_fail)
        with pytest.raises(RuntimeError, match="router down"):
            failing.run(FLEET_ARRIVALS, inputs)
        assert fleet_held(failing) == []
        # The plans still in flight install no memo of their own.
        for instance in failing.instances:
            instance.drain()
        assert fleet_held(failing) == []

    def test_entry_of_one_kernel_never_reaches_another(self, calls,
                                                       monkeypatch):
        """The classifier and the denoiser are offered the same frames
        (equal input bytes, equal keys): each tile still reads only its
        own kernel's results."""
        pool = standard_inputs(n_frames=8, seed=4)
        inputs = dict(pool, denoiser=pool["classifier"].copy())
        shared = []
        kernel_pass = Fleet._kernel_pass

        def watched_pass(fleet, memo, *args):
            kernel_pass(fleet, memo, *args)
            shared.append(memo)

        monkeypatch.setattr(Fleet, "_kernel_pass", watched_pass)
        fleet = build_standard_fleet(n_instances=2, policy="round-robin")
        report = fleet.run(FLEET_ARRIVALS, inputs)
        soc = fleet.instances[0].soc
        tables = shared[0]
        classifier = tables[soc.accelerators["cl1"].spec.kernel]
        denoiser = tables[soc.accelerators["de0"].spec.kernel]
        assert classifier is not denoiser
        assert set(denoiser) <= set(classifier)
        assert calls["misses"] == []
        want = software_rows(fleet, inputs)
        for tenant, rows in fleet_outputs(report).items():
            assert all(row.tobytes() in want[tenant] for row in rows)

    def test_frame_flipped_in_dram_misses_on_its_instance(self, calls):
        """A ``dram_bitflip`` on one instance after the fleet pass: the
        first load there delivers one classifier frame with one bit
        flipped. That frame misses and the classifier runs on its
        corrupted words; every other frame takes its row."""
        inputs = standard_inputs(n_frames=8, seed=4)
        fleet = build_standard_fleet(n_instances=2, policy="round-robin")
        flipped = fleet.instances[0]
        FaultInjector(FaultPlan([FaultSpec(
            kind="dram_bitflip", at_cycle=0, count=1)])).attach(flipped.soc)
        report = fleet.run(FLEET_ARRIVALS, inputs)
        assert report.completed_requests == len(FLEET_ARRIVALS)

        [(name, corrupted)] = calls["misses"]
        assert name == "classifier"
        differs = (corrupted != inputs["classifier"]).sum(axis=1)
        assert sorted(differs)[0] == 1
        spec = flipped.soc.accelerators["cl1"].spec
        want = software_rows(fleet, inputs)
        rows = {}
        for instance, served in report.per_instance.items():
            rows[instance] = [row.tobytes() for c in served.completions
                              if c.tenant == "classifier"
                              for row in c.outputs]
        assert spec.run(corrupted).tobytes() in rows[flipped.name]
        other = [row for instance, served in rows.items()
                 if instance != flipped.name for row in served]
        assert other and all(row in want["classifier"] for row in other)


class TestTraceScope:
    """``InferenceServer.run_trace`` owns one memo for the trace."""

    def test_frames_a_request_repeats_are_not_batched_again(self, calls):
        soc = build_soc1()
        server = InferenceServer(EspRuntime(soc))
        server.register(TenantConfig(name="de", dataflow=dataflow_de_cl(),
                                     mode="pipe"))
        frames, _ = de_cl_inputs(2, seed=0)
        report = server.run_trace([TracedRequest(0, "de", frames),
                                   TracedRequest(200_000, "de",
                                                 frames.copy())])
        assert report.batches_by_tenant == {"de": 2}
        assert [len(c.outputs) for c in report.completions] == [2, 2]
        # The first request's plan batched both levels; the second
        # found every frame in the trace's memo.
        assert calls["batch"] == ["denoiser", "classifier"]
        assert calls["misses"] == []
        want = software(soc, dataflow_de_cl(), frames).tobytes()
        assert all(np.array(c.outputs).tobytes() == want
                   for c in report.completions)
        assert held_entries(soc) == {}
