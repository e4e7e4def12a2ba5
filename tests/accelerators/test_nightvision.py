"""Tests for the Night-Vision kernels and accelerator."""

import numpy as np
import pytest

from repro.accelerators import (
    histogram_equalization_kernel,
    histogram_kernel,
    night_vision_spec,
    noise_filter_kernel,
)
from repro.accelerators.nightvision import HISTOGRAM_BINS, night_vision_compute
from repro.datasets import (FRAME_PIXELS, FRAME_SIDE, darken, flatten_frames,
                            generate)
from repro.eval.apps import nv_cl_inputs
from repro.fixed import DEFAULT_FORMAT


@pytest.fixture(scope="module")
def frames():
    imgs, _ = generate(4, seed=0)
    return flatten_frames(imgs)


class TestNoiseFilter:
    def test_shape_preserved(self, frames):
        out = noise_filter_kernel(frames[0])
        assert out.shape == (FRAME_PIXELS,)

    def test_removes_salt_and_pepper(self, frames):
        frame = frames[0].copy()
        rng = np.random.default_rng(1)
        idx = rng.choice(FRAME_PIXELS, 40, replace=False)
        corrupted = frame.copy()
        corrupted[idx[:20]] = 1.0
        corrupted[idx[20:]] = 0.0
        restored = noise_filter_kernel(corrupted)
        clean = noise_filter_kernel(frame)
        assert np.abs(restored - clean).mean() < 0.02

    def test_constant_frame_unchanged(self):
        frame = np.full(FRAME_PIXELS, 0.5)
        np.testing.assert_allclose(noise_filter_kernel(frame), 0.5,
                                   atol=1e-3)


class TestHistogram:
    def test_counts_sum_to_pixels(self, frames):
        hist = histogram_kernel(frames[0])
        assert hist.sum() == FRAME_PIXELS
        assert len(hist) == HISTOGRAM_BINS

    def test_dark_frame_concentrates_low_bins(self, frames):
        dark = darken(frames[0].reshape(1, -1), factor=0.2)[0]
        hist = histogram_kernel(dark)
        low = hist[:HISTOGRAM_BINS // 4].sum()
        assert low > 0.9 * FRAME_PIXELS

    def test_values_at_one_clip_to_last_bin(self):
        hist = histogram_kernel(np.ones(16))
        assert hist[-1] == 16


class TestEqualization:
    def test_stretches_dark_frames(self, frames):
        dark = darken(frames[0].reshape(1, -1), factor=0.2)[0]
        hist = histogram_kernel(dark)
        out = histogram_equalization_kernel(dark, hist)
        assert out.max() > 0.9
        assert out.max() - out.min() > dark.max() - dark.min()

    def test_monotone_mapping(self, frames):
        dark = darken(frames[0].reshape(1, -1), factor=0.3)[0]
        hist = histogram_kernel(dark)
        out = histogram_equalization_kernel(dark, hist)
        order = np.argsort(dark)
        assert np.all(np.diff(out[order]) >= -1e-9)

    def test_constant_frame_handled(self):
        frame = np.full(FRAME_PIXELS, 0.3)
        hist = histogram_kernel(frame)
        out = histogram_equalization_kernel(frame, hist)
        assert np.all(np.isfinite(out))


class TestNightVisionSpec:
    def test_geometry(self):
        spec = night_vision_spec()
        assert spec.input_words == FRAME_PIXELS
        assert spec.output_words == FRAME_PIXELS
        assert spec.design_flow == "stratus"

    def test_compute_matches_kernel_composition(self, frames):
        spec = night_vision_spec()
        dark = darken(frames[:1], factor=0.25)[0]
        np.testing.assert_array_equal(spec.run(dark),
                                      night_vision_compute(dark))

    def test_is_slow_stage_of_nv_cl_pipeline(self):
        """The paper replicates NV because it is the slower stage."""
        from repro.accelerators import classifier_spec
        nv = night_vision_spec()
        cl = classifier_spec()
        assert nv.latency_cycles > cl.latency_cycles

    def test_restores_classifier_accuracy_on_dark_frames(self):
        """The motivating property: equalized dark frames look like
        normal frames to downstream consumers (dynamic range restored)."""
        imgs, _ = generate(8, seed=5)
        flat = flatten_frames(imgs)
        dark = darken(flat, factor=0.2)
        spec = night_vision_spec()
        restored = np.stack([spec.run(f) for f in dark])
        # Restored frames span most of the dynamic range again.
        assert restored.max() > 0.9
        assert dark.max() <= 0.2 + 1e-9


def _partition_median(frame, fmt=DEFAULT_FORMAT):
    """The former noise filter: ``np.partition`` over sliding windows."""
    img = np.asarray(frame, dtype=np.float64).reshape(FRAME_SIDE, FRAME_SIDE)
    padded = np.pad(img, 1, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, (3, 3))
    flat = windows.reshape(FRAME_PIXELS, 9)
    return fmt.quantize(np.partition(flat, 4, axis=1)[:, 4])


def _gathered_equalization(frame, hist, fmt=DEFAULT_FORMAT):
    """The former equalization: quantize the 1024 gathered values."""
    bins = len(hist)
    cdf = np.cumsum(hist)
    nonzero = cdf[cdf > 0]
    cdf_min = nonzero[0] if len(nonzero) else 0.0
    total = cdf[-1]
    if total <= cdf_min:
        return fmt.quantize(frame)
    mapping = np.clip((cdf - cdf_min) / (total - cdf_min), 0.0, 1.0)
    idx = np.clip((frame * bins).astype(np.int64), 0, bins - 1)
    return fmt.quantize(mapping[idx])


@pytest.fixture(scope="module")
def exactness_frames():
    """Seeded frames: constant, tie-heavy, saturated, and the 4nv_4cl
    pipeline inputs."""
    rng = np.random.default_rng(15)
    out = [np.full(FRAME_PIXELS, value) for value in (0.0, 0.5, 1.0)]
    for levels in (2, 3, 5):
        out.append(rng.integers(0, levels, FRAME_PIXELS) / (levels - 1))
    for _ in range(3):
        out.append(np.clip(rng.normal(0.5, 0.8, FRAME_PIXELS), 0.0, 1.0))
        out.append(rng.uniform(0.0, 1.0, FRAME_PIXELS))
    out.extend(nv_cl_inputs(32, seed=0)[0])
    return out


class TestFusedKernelsExact:
    """The sorting-network median and the fused pipeline equal the
    formulations they replaced, bit for bit (``tobytes`` also tells
    -0.0 from 0.0)."""

    def test_median_network_on_every_binary_window(self):
        # 0-1 principle: a min/max network that selects the 5th order
        # statistic of every 0/1 window selects it for all inputs.
        for code in range(512):
            bits = (code >> np.arange(9)) & 1
            img = np.zeros((FRAME_SIDE, FRAME_SIDE))
            img[10:13, 10:13] = bits.reshape(3, 3)
            got = noise_filter_kernel(img.reshape(-1))
            assert got[11 * FRAME_SIDE + 11] == (bits.sum() >= 5)
            assert got.tobytes() == _partition_median(img).tobytes()

    def test_median_matches_partition(self, exactness_frames):
        for index, frame in enumerate(exactness_frames):
            assert (noise_filter_kernel(frame).tobytes()
                    == _partition_median(frame).tobytes()), index

    def test_equalization_matches_gathered_quantize(self, exactness_frames):
        for index, frame in enumerate(exactness_frames):
            filtered = noise_filter_kernel(frame)
            hist = histogram_kernel(filtered)
            assert (histogram_equalization_kernel(filtered, hist).tobytes()
                    == _gathered_equalization(filtered, hist).tobytes()), index

    def test_fused_compute_matches_public_kernels(self, exactness_frames):
        for index, frame in enumerate(exactness_frames):
            filtered = noise_filter_kernel(frame)
            composed = histogram_equalization_kernel(
                filtered, histogram_kernel(filtered))
            assert (night_vision_compute(frame).tobytes()
                    == composed.tobytes()), index
