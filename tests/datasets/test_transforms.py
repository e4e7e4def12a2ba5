"""Tests for the frame transforms (darken, noise, pixel conversion)."""

import numpy as np
import pytest

from repro.datasets import (
    FRAME_PIXELS,
    add_gaussian_noise,
    darken,
    flatten_frames,
    generate,
)


def to_pixels(frames: np.ndarray, levels: int = 256) -> np.ndarray:
    """[0,1] floats -> integer pixel values 0..levels-1 (uint8 range)."""
    q = np.floor(np.clip(frames, 0.0, 1.0) * (levels - 1) + 0.5)
    return q.astype(np.int64)


def from_pixels(pixels: np.ndarray, levels: int = 256) -> np.ndarray:
    """Integer pixels -> [0,1] floats."""
    return np.asarray(pixels, dtype=np.float64) / (levels - 1)


def normalize(frames: np.ndarray) -> np.ndarray:
    """Per-frame min-max normalization to [0, 1]."""
    frames = np.asarray(frames, dtype=np.float64)
    flat = frames.reshape(frames.shape[0], -1)
    lo = flat.min(axis=1, keepdims=True)
    hi = flat.max(axis=1, keepdims=True)
    span = np.where(hi - lo == 0.0, 1.0, hi - lo)
    return ((flat - lo) / span).reshape(frames.shape)


class TestFlatten:
    def test_roundtrip(self):
        frames, _ = generate(3, seed=0)
        flat = flatten_frames(frames)
        assert flat.shape == (3, FRAME_PIXELS)
        np.testing.assert_array_equal(flat.reshape(frames.shape), frames)

    def test_row_major_order(self):
        frame = np.arange(1024).reshape(1, 32, 32)
        flat = flatten_frames(frame)
        assert flat[0, 0] == 0
        assert flat[0, 33] == 33   # row 1, col 1


class TestNoise:
    def test_clipped_to_unit_range(self, rng):
        frames = rng.uniform(0, 1, (4, 16))
        noisy = add_gaussian_noise(frames, stddev=0.5, seed=1)
        assert noisy.min() >= 0.0 and noisy.max() <= 1.0

    def test_noise_magnitude(self):
        frames = np.full((50, 100), 0.5)
        noisy = add_gaussian_noise(frames, stddev=0.1, seed=2)
        assert (noisy - frames).std() == pytest.approx(0.1, rel=0.1)

    def test_deterministic(self):
        frames = np.full((2, 8), 0.5)
        a = add_gaussian_noise(frames, seed=3)
        b = add_gaussian_noise(frames, seed=3)
        np.testing.assert_array_equal(a, b)


class TestDarken:
    def test_scales_down(self, rng):
        frames = rng.uniform(0, 1, (2, 8))
        dark = darken(frames, factor=0.25)
        np.testing.assert_allclose(dark, frames * 0.25)

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            darken(np.zeros((1, 4)), factor=0.0)
        with pytest.raises(ValueError):
            darken(np.zeros((1, 4)), factor=1.5)

    def test_floor_offset(self):
        dark = darken(np.ones((1, 4)), factor=0.5, floor=0.1)
        np.testing.assert_allclose(dark, 0.6)


class TestPixels:
    def test_roundtrip_quantized(self, rng):
        frames = rng.uniform(0, 1, (2, 64))
        pixels = to_pixels(frames)
        assert pixels.dtype == np.int64
        assert pixels.min() >= 0 and pixels.max() <= 255
        back = from_pixels(pixels)
        assert np.abs(back - frames).max() <= 1 / 255 / 2 + 1e-9

    def test_extremes(self):
        assert to_pixels(np.array([[0.0, 1.0]])).tolist() == [[0, 255]]


class TestNormalize:
    def test_output_spans_unit_interval(self, rng):
        frames = rng.uniform(0.3, 0.5, (3, 32, 32))
        out = normalize(frames)
        for frame in out:
            assert frame.min() == pytest.approx(0.0)
            assert frame.max() == pytest.approx(1.0)

    def test_constant_frame_handled(self):
        out = normalize(np.full((1, 4, 4), 0.7))
        assert np.all(np.isfinite(out))
