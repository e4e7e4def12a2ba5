"""Tests for the evaluation metrics of Sec. VI."""

import numpy as np
import pytest

from repro.nn import accuracy


def reconstruction_error(pred: np.ndarray, target: np.ndarray) -> float:
    """Relative L2 reconstruction error ("3.1% reconstruction error").

    Defined as ``||pred - target|| / ||target||`` averaged over the
    batch, which is the conventional autoencoder figure of merit.
    """
    pred = np.atleast_2d(pred)
    target = np.atleast_2d(target)
    num = np.linalg.norm(pred - target, axis=-1)
    den = np.linalg.norm(target, axis=-1)
    den = np.where(den == 0.0, 1.0, den)
    return float(np.mean(num / den))


def psnr(pred: np.ndarray, target: np.ndarray, peak: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB (extra denoising metric)."""
    mse = float(np.mean((np.asarray(pred) - np.asarray(target)) ** 2))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(peak * peak / mse)


def confusion_matrix(probs: np.ndarray, onehot: np.ndarray,
                     n_classes: int) -> np.ndarray:
    """Counts[c_true, c_pred] over a batch."""
    pred = np.argmax(np.atleast_2d(probs), axis=-1)
    truth = np.argmax(np.atleast_2d(onehot), axis=-1)
    matrix = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(matrix, (truth, pred), 1)
    return matrix


class TestAccuracy:
    def test_perfect(self):
        probs = np.eye(10)
        assert accuracy(probs, probs) == 1.0

    def test_half_right(self):
        probs = np.array([[0.9, 0.1], [0.9, 0.1]])
        onehot = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert accuracy(probs, onehot) == 0.5

    def test_single_sample(self):
        assert accuracy(np.array([0.2, 0.8]), np.array([0.0, 1.0])) == 1.0


class TestReconstructionError:
    def test_zero_for_identical(self, rng):
        x = rng.uniform(0, 1, (4, 16))
        assert reconstruction_error(x, x) == 0.0

    def test_scales_with_perturbation(self, rng):
        x = rng.uniform(0.5, 1.0, (8, 64))
        small = reconstruction_error(x + 0.01, x)
        large = reconstruction_error(x + 0.1, x)
        assert small < large

    def test_paper_metric_definition(self):
        target = np.array([[3.0, 4.0]])      # norm 5
        pred = target + np.array([[0.3, 0.4]])  # error norm 0.5
        assert reconstruction_error(pred, target) == pytest.approx(0.1)

    def test_zero_target_guarded(self):
        assert np.isfinite(reconstruction_error(np.ones((1, 4)),
                                                np.zeros((1, 4))))


class TestPsnr:
    def test_identical_is_infinite(self):
        x = np.ones((2, 4))
        assert psnr(x, x) == float("inf")

    def test_known_value(self):
        pred = np.zeros((1, 4))
        target = np.full((1, 4), 0.1)
        assert psnr(pred, target) == pytest.approx(20.0)


class TestConfusionMatrix:
    def test_diagonal_for_perfect(self):
        probs = np.eye(3)
        matrix = confusion_matrix(probs, probs, 3)
        np.testing.assert_array_equal(matrix, np.eye(3, dtype=int))

    def test_counts_sum_to_samples(self, rng):
        probs = rng.uniform(0, 1, (20, 4))
        onehot = np.eye(4)[rng.integers(0, 4, 20)]
        matrix = confusion_matrix(probs, onehot, 4)
        assert matrix.sum() == 20
