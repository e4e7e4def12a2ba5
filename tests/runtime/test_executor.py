"""Tests for the dataflow executor: planning and the three modes."""

import numpy as np
import pytest

from repro.runtime import EspRuntime, chain, replicated_stage
from tests.conftest import make_runtime, make_spec


def two_stage_runtime(n_extra=0, **kwargs):
    """SoC with a producer and consumer (plus optional extra tiles)."""
    specs = [("prod0", make_spec(name="prod", input_words=8,
                                 output_words=8, latency=100)),
             ("cons0", make_spec(name="cons", input_words=8,
                                 output_words=8, latency=60))]
    for index in range(n_extra):
        specs.append((f"x{index}", make_spec(name=f"x{index}",
                                             input_words=8,
                                             output_words=8)))
    return make_runtime(specs, **kwargs)


class TestPlanning:
    def test_plan_allocates_buffers(self):
        rt = two_stage_runtime()
        df = chain("df", ["prod0", "cons0"])
        plan = rt.executor.plan(df, n_frames=4, mode="pipe")
        assert plan.input_buffer.words == 4 * 8
        assert plan.output_buffer.words == 4 * 8
        assert plan.inter_buffers[0].words == 4 * 8

    def test_p2p_plan_skips_intermediate_buffers(self):
        rt = two_stage_runtime()
        df = chain("df", ["prod0", "cons0"])
        plan = rt.executor.plan(df, n_frames=4, mode="p2p")
        assert plan.inter_buffers == [None]

    def test_unknown_mode(self):
        rt = two_stage_runtime()
        df = chain("df", ["prod0", "cons0"])
        with pytest.raises(ValueError):
            rt.executor.plan(df, 4, mode="turbo")

    def test_frames_must_split_evenly(self):
        specs = [("a0", make_spec(input_words=8, output_words=8)),
                 ("a1", make_spec(input_words=8, output_words=8)),
                 ("c0", make_spec(input_words=8, output_words=8))]
        rt = make_runtime(specs)
        df = replicated_stage("df", ["a0", "a1"], ["c0"])
        with pytest.raises(ValueError, match="split evenly"):
            rt.executor.plan(df, n_frames=5, mode="pipe")

    def test_geometry_mismatch_between_levels(self):
        specs = [("a0", make_spec(input_words=8, output_words=8)),
                 ("c0", make_spec(input_words=16, output_words=4))]
        rt = make_runtime(specs)
        df = chain("df", ["a0", "c0"])
        with pytest.raises(ValueError, match="outputs"):
            rt.executor.plan(df, 4, mode="pipe")


class TestExecutionModes:
    @pytest.mark.parametrize("mode", ["base", "pipe", "p2p"])
    def test_outputs_correct(self, mode, rng):
        rt = two_stage_runtime()
        df = chain("df", ["prod0", "cons0"])
        frames = rng.uniform(0, 1, (4, 8))
        result = rt.esp_run(df, frames, mode=mode)
        np.testing.assert_allclose(result.outputs, frames + 2.0)
        assert result.frames == 4
        assert result.mode == mode

    def test_modes_produce_identical_outputs(self, rng):
        frames = np.random.default_rng(1).uniform(0, 1, (8, 8))
        outputs = {}
        for mode in ("base", "pipe", "p2p"):
            rt = two_stage_runtime()
            df = chain("df", ["prod0", "cons0"])
            outputs[mode] = rt.esp_run(df, frames, mode=mode).outputs
        np.testing.assert_array_equal(outputs["base"], outputs["pipe"])
        np.testing.assert_array_equal(outputs["base"], outputs["p2p"])

    def test_pipe_faster_than_base(self, rng):
        frames = rng.uniform(0, 1, (8, 8))
        cycles = {}
        for mode in ("base", "pipe"):
            rt = two_stage_runtime()
            df = chain("df", ["prod0", "cons0"])
            cycles[mode] = rt.esp_run(df, frames, mode=mode).cycles
        assert cycles["pipe"] < cycles["base"]

    def test_p2p_reduces_dram_traffic(self, rng):
        frames = rng.uniform(0, 1, (8, 8))
        dram = {}
        for mode in ("pipe", "p2p"):
            rt = two_stage_runtime()
            df = chain("df", ["prod0", "cons0"])
            dram[mode] = rt.esp_run(df, frames, mode=mode).dram_accesses
        # no-p2p: in + inter(write+read) + out = 4 passes; p2p: 2.
        assert dram["pipe"] == pytest.approx(2 * dram["p2p"], rel=0.01)

    def test_p2p_fewer_ioctls(self, rng):
        frames = rng.uniform(0, 1, (8, 8))
        ioctls = {}
        for mode in ("base", "pipe", "p2p"):
            rt = two_stage_runtime()
            df = chain("df", ["prod0", "cons0"])
            ioctls[mode] = rt.esp_run(df, frames, mode=mode).ioctl_calls
        assert ioctls["base"] == 16    # 2 devices x 8 frames
        assert ioctls["pipe"] == 16
        assert ioctls["p2p"] == 2      # one streaming start per device

    def test_replicated_producers_gather(self, rng):
        specs = [(f"p{i}", make_spec(name="p", input_words=8,
                                     output_words=8, latency=400))
                 for i in range(4)]
        specs.append(("c0", make_spec(name="c", input_words=8,
                                      output_words=8, latency=50)))
        frames = rng.uniform(0, 1, (8, 8))
        for mode in ("pipe", "p2p"):
            rt = make_runtime(specs, cols=4, rows=3)
            df = replicated_stage("df", [f"p{i}" for i in range(4)],
                                  ["c0"])
            result = rt.esp_run(df, frames, mode=mode)
            np.testing.assert_allclose(result.outputs, frames + 2.0)

    def test_replication_improves_throughput(self, rng):
        frames = rng.uniform(0, 1, (16, 8))

        def run(n_producers):
            specs = [(f"p{i}", make_spec(name="p", input_words=8,
                                         output_words=8, latency=500))
                     for i in range(n_producers)]
            specs.append(("c0", make_spec(name="c", input_words=8,
                                          output_words=8, latency=50)))
            rt = make_runtime(specs, cols=4, rows=3)
            df = replicated_stage("df", [f"p{i}" for i in range(n_producers)],
                                  ["c0"])
            return rt.esp_run(df, frames, mode="p2p").cycles

        assert run(4) < run(1) * 0.5

    def test_input_size_validated(self, rng):
        rt = two_stage_runtime()
        df = chain("df", ["prod0", "cons0"])
        with pytest.raises(ValueError, match="words"):
            rt.esp_run(df, rng.uniform(0, 1, (4, 7)), mode="base")

    @pytest.mark.parametrize("mode", ["pipe", "p2p"])
    def test_rejected_input_width_leaks_no_buffer(self, mode, rng):
        rt = two_stage_runtime()
        df = chain("df", ["prod0", "cons0"])
        live = rt.allocator.live_buffers
        words = rt.allocator.words_in_use
        with pytest.raises(ValueError, match="words"):
            rt.esp_run(df, rng.uniform(0, 1, (4, 7)), mode=mode)
        assert rt.allocator.live_buffers == live
        assert rt.allocator.words_in_use == words

    def test_single_device_dataflow(self, rng):
        rt = two_stage_runtime()
        from repro.runtime import Dataflow
        df = Dataflow(name="solo", devices=["prod0"])
        frames = rng.uniform(0, 1, (4, 8))
        result = rt.esp_run(df, frames, mode="p2p")
        np.testing.assert_allclose(result.outputs, frames + 1.0)


class TestRunResult:
    def test_fps_and_energy(self, rng):
        rt = two_stage_runtime()
        df = chain("df", ["prod0", "cons0"])
        result = rt.esp_run(df, rng.uniform(0, 1, (4, 8)), mode="p2p")
        assert result.frames_per_second == pytest.approx(
            4 / result.seconds)
        assert result.frames_per_joule(2.0) == pytest.approx(
            result.frames_per_second / 2.0)
        with pytest.raises(ValueError):
            result.frames_per_joule(0.0)


class TestApiSurface:
    def test_esp_alloc_and_cleanup(self):
        rt = two_stage_runtime()
        buf = rt.esp_alloc(64, label="user")
        assert len(buf) == 64
        rt.esp_cleanup()
        with pytest.raises(RuntimeError):
            buf.read()

    def test_device_names_and_location(self):
        rt = two_stage_runtime()
        assert set(rt.device_names()) == {"prod0", "cons0"}
        assert rt.device_location("prod0") == \
            rt.soc.accelerator("prod0").coord
