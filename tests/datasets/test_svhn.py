"""Tests for the synthetic SVHN generator."""

import numpy as np
import pytest

from repro.datasets import (
    FRAME_SIDE,
    N_CLASSES,
    generate,
    generate_frame,
    glyph,
)


def all_glyphs():
    return np.stack([glyph(digit) for digit in range(10)])


def splits(n_train: int, n_test: int, n_extra: int = 0, seed: int = 0):
    """Train/test/extra splits, mirroring SVHN's three-way structure."""
    train = generate(n_train, seed=seed)
    test = generate(n_test, seed=seed + 1)
    if n_extra:
        extra = generate(n_extra, seed=seed + 2)
        return train, test, extra
    return train, test


class TestGlyphs:
    def test_all_ten_digits(self):
        stack = all_glyphs()
        assert stack.shape == (10, 7, 5)

    def test_glyphs_binary(self):
        stack = all_glyphs()
        assert set(np.unique(stack)) <= {0.0, 1.0}

    def test_glyphs_distinct(self):
        stack = all_glyphs()
        flat = stack.reshape(10, -1)
        for i in range(10):
            for j in range(i + 1, 10):
                assert not np.array_equal(flat[i], flat[j])

    def test_invalid_digit(self):
        with pytest.raises(ValueError):
            glyph(10)


class TestGenerate:
    def test_shapes_and_range(self):
        frames, labels = generate(12, seed=0)
        assert frames.shape == (12, FRAME_SIDE, FRAME_SIDE)
        assert labels.shape == (12, N_CLASSES)
        assert frames.min() >= 0.0
        assert frames.max() <= 1.0

    def test_labels_one_hot(self):
        _, labels = generate(20, seed=1)
        np.testing.assert_array_equal(labels.sum(axis=1), 1.0)

    def test_deterministic_per_seed(self):
        a, la = generate(5, seed=7)
        b, lb = generate(5, seed=7)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(la, lb)

    def test_different_seeds_differ(self):
        a, _ = generate(5, seed=1)
        b, _ = generate(5, seed=2)
        assert not np.array_equal(a, b)

    def test_digit_region_brighter_than_background(self):
        # The labelled digit should add energy near the center.
        rng = np.random.default_rng(0)
        frame = generate_frame(8, rng, noise_stddev=0.0)
        center = frame[8:24, 8:24]
        border = np.concatenate([frame[:4].ravel(), frame[-4:].ravel()])
        assert center.max() > border.mean()

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            generate(0)

    def test_classes_roughly_balanced(self):
        _, labels = generate(600, seed=3)
        counts = labels.sum(axis=0)
        assert counts.min() > 600 / N_CLASSES * 0.5

    def test_environmental_noise_present(self):
        # Default config has noise: two frames of the same digit differ.
        rng = np.random.default_rng(0)
        f1 = generate_frame(3, rng)
        f2 = generate_frame(3, rng)
        assert not np.array_equal(f1, f2)


class TestSplits:
    def test_two_way(self):
        (xtr, ytr), (xte, yte) = splits(10, 4)
        assert len(xtr) == 10 and len(xte) == 4

    def test_three_way_mirrors_svhn(self):
        (xtr, _), (xte, _), (xex, _) = splits(6, 3, n_extra=9)
        assert len(xex) == 9

    def test_splits_disjoint_content(self):
        (xtr, _), (xte, _) = splits(5, 5, seed=0)
        assert not np.array_equal(xtr, xte)
