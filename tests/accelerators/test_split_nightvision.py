"""Tests for the 3-tile split Night-Vision variant (Fig. 1 mapping)."""

import numpy as np
import pytest

from repro.accelerators import AcceleratorSpec, night_vision_spec
from repro.accelerators.nightvision import HISTOGRAM_BINS
from repro.datasets import FRAME_PIXELS, darken, flatten_frames, generate
from repro.fixed import DEFAULT_FORMAT, FixedFormat
from repro.hls import (
    ResourceEstimate,
    pipelined_loop_schedule,
    sequential_schedule,
)
from repro.runtime import chain
from tests.accelerators.nightvision import (
    histogram_equalization_kernel,
    histogram_kernel,
    noise_filter_kernel,
)
from tests.conftest import make_runtime, per_frame


def night_vision_stage_specs(fmt: FixedFormat = DEFAULT_FORMAT):
    """The three Night-Vision kernels as *separate* accelerator tiles.

    Fig. 1 of the paper draws the vision kernels as individual boxes
    that the NoC chains together; the evaluation fuses them into one
    tile (:func:`night_vision_spec`), but the flow supports either
    mapping. Because the equalization kernel needs both the filtered
    frame and its histogram, the histogram stage forwards the frame
    alongside the 64 bin counts (1024 + 64 = 1088 words).
    """
    def filter_stage_compute(frame: np.ndarray) -> np.ndarray:
        return noise_filter_kernel(frame, fmt)

    def hist_stage_compute(frame: np.ndarray) -> np.ndarray:
        hist = histogram_kernel(frame)
        return np.concatenate([np.asarray(frame, dtype=np.float64),
                               hist])

    def eq_stage_compute(packed: np.ndarray) -> np.ndarray:
        frame = packed[:FRAME_PIXELS]
        hist = packed[FRAME_PIXELS:]
        return histogram_equalization_kernel(frame, hist, fmt)

    window_cost = ResourceEstimate(luts=9_500, ffs=8_800, brams=6)
    filter_sched = pipelined_loop_schedule(FRAME_PIXELS, interval=3,
                                           depth=12,
                                           body_resources=window_cost)
    hist_cost = ResourceEstimate(luts=2_500, ffs=2_400, brams=2)
    hist_sched = pipelined_loop_schedule(FRAME_PIXELS, interval=2, depth=4,
                                         body_resources=hist_cost)
    eq_cost = ResourceEstimate(luts=5_000, ffs=4_200, brams=4)
    eq_sched = sequential_schedule(
        pipelined_loop_schedule(HISTOGRAM_BINS, interval=1, depth=4),
        pipelined_loop_schedule(FRAME_PIXELS, interval=3, depth=6,
                                body_resources=eq_cost))

    return [
        AcceleratorSpec(
            name="nv_filter", input_words=FRAME_PIXELS,
            output_words=FRAME_PIXELS, kernel=per_frame(filter_stage_compute),
            latency_cycles=filter_sched.latency,
            interval_cycles=filter_sched.interval,
            resources=filter_sched.resources, word_bits=fmt.width,
            design_flow="stratus"),
        AcceleratorSpec(
            name="nv_histogram", input_words=FRAME_PIXELS,
            output_words=FRAME_PIXELS + HISTOGRAM_BINS,
            kernel=per_frame(hist_stage_compute),
            latency_cycles=hist_sched.latency,
            interval_cycles=hist_sched.interval,
            resources=hist_sched.resources, word_bits=fmt.width,
            design_flow="stratus"),
        AcceleratorSpec(
            name="nv_equalize",
            input_words=FRAME_PIXELS + HISTOGRAM_BINS,
            output_words=FRAME_PIXELS, kernel=per_frame(eq_stage_compute),
            latency_cycles=eq_sched.latency,
            interval_cycles=eq_sched.interval,
            resources=eq_sched.resources, word_bits=fmt.width,
            design_flow="stratus"),
    ]


@pytest.fixture(scope="module")
def stages():
    return night_vision_stage_specs()


class TestStageGeometry:
    def test_three_stages(self, stages):
        assert [s.name for s in stages] == ["nv_filter", "nv_histogram",
                                            "nv_equalize"]

    def test_chainable(self, stages):
        for prev, nxt in zip(stages, stages[1:]):
            assert prev.output_words == nxt.input_words

    def test_histogram_forwards_frame_plus_bins(self, stages):
        assert stages[1].output_words == FRAME_PIXELS + HISTOGRAM_BINS

    def test_split_resources_sum_close_to_fused(self, stages):
        fused = night_vision_spec()
        split_dsp_luts = sum(s.resources.luts for s in stages)
        # Same kernel bodies; the split variant repeats control logic.
        assert split_dsp_luts >= fused.resources.luts - 1000


class TestFunctional:
    def test_split_equals_fused(self, stages):
        fused = night_vision_spec()
        frames, _ = generate(4, seed=1)
        dark = flatten_frames(darken(frames))
        for frame in dark:
            packed = stages[1].run(stages[0].run(frame))
            out = stages[2].run(packed)
            np.testing.assert_array_equal(out, fused.run(frame))

    def test_split_pipeline_on_soc(self, stages):
        rt = make_runtime([("f0", stages[0]), ("h0", stages[1]),
                           ("e0", stages[2])])
        frames, _ = generate(4, seed=2)
        dark = flatten_frames(darken(frames))
        result = rt.esp_run(chain("nv3", ["f0", "h0", "e0"]), dark,
                            mode="p2p")
        fused = night_vision_spec()
        expected = np.stack([fused.run(f) for f in dark])
        np.testing.assert_array_equal(result.outputs, expected)

    def test_split_pipeline_throughput_beats_fused_tile(self, stages):
        """The split mapping pipelines the three kernels across tiles,
        so per-frame cadence drops from the sum of the three kernels
        to the slowest one."""
        fused = night_vision_spec()
        rt_split = make_runtime([("f0", stages[0]), ("h0", stages[1]),
                                 ("e0", stages[2])])
        rt_fused = make_runtime([("nv0", fused)])
        frames, _ = generate(8, seed=3)
        dark = flatten_frames(darken(frames))
        from repro.runtime import Dataflow
        split = rt_split.esp_run(chain("nv3", ["f0", "h0", "e0"]), dark,
                                 mode="p2p")
        fused_run = rt_fused.esp_run(
            Dataflow(name="nv1", devices=["nv0"]), dark, mode="p2p")
        assert split.frames_per_second > fused_run.frames_per_second
