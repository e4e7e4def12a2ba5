"""Tests for losses, optimizers and the training loop."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    Dense,
    ReLU,
    Sequential,
    Sigmoid,
    Softmax,
    accuracy,
    categorical_crossentropy,
    fit,
    iterate_minibatches,
    mean_squared_error,
)
from repro.nn.training import Optimizer


def toy_classification(n=200, seed=0):
    """Two linearly separable blobs in 4-D, one-hot labels."""
    rng = np.random.default_rng(seed)
    x0 = rng.normal(-1.0, 0.4, (n // 2, 4))
    x1 = rng.normal(+1.0, 0.4, (n // 2, 4))
    x = np.vstack([x0, x1])
    y = np.zeros((n, 2))
    y[:n // 2, 0] = 1.0
    y[n // 2:, 1] = 1.0
    return x, y


class SGD(Optimizer):
    def __init__(self, lr: float = 0.01, momentum: float = 0.0) -> None:
        self.lr = lr
        self.momentum = momentum
        self._velocity = {}

    def step(self, model: Sequential) -> None:
        for layer, key, param, grad in model.trainable():
            slot = self._velocity.setdefault(id(layer), {})
            vel = slot.get(key)
            if vel is None:
                vel = np.zeros_like(param)
                slot[key] = vel
            vel *= self.momentum
            vel -= self.lr * grad
            param += vel


class TestLosses:
    def test_crossentropy_perfect_prediction_near_zero(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        onehot = probs.copy()
        loss, _ = categorical_crossentropy(probs, onehot)
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_crossentropy_gradient_direction(self):
        probs = np.array([[0.7, 0.3]])
        onehot = np.array([[1.0, 0.0]])
        _, grad = categorical_crossentropy(probs, onehot)
        assert grad[0, 0] < 0   # push prob of true class up
        assert grad[0, 1] > 0

    def test_mse_zero_for_equal(self):
        pred = np.ones((3, 4))
        loss, grad = mean_squared_error(pred, pred.copy())
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_mse_value(self):
        loss, _ = mean_squared_error(np.zeros((1, 4)), np.ones((1, 4)))
        assert loss == pytest.approx(1.0)


class TestOptimizers:
    def _one_step_decreases_loss(self, optimizer):
        x, y = toy_classification()
        model = Sequential([Dense(8), ReLU(), Dense(2),
                            Softmax()]).build(4, seed=1)
        before = categorical_crossentropy(model.predict(x), y)[0]
        for _ in range(5):
            pred = model.forward(x, training=True)
            _, grad = categorical_crossentropy(pred, y)
            model.backward(grad)
            optimizer.step(model)
        after = categorical_crossentropy(model.predict(x), y)[0]
        assert after < before

    def test_sgd_decreases_loss(self):
        self._one_step_decreases_loss(SGD(lr=0.5))

    def test_sgd_momentum_decreases_loss(self):
        self._one_step_decreases_loss(SGD(lr=0.2, momentum=0.9))

    def test_adam_decreases_loss(self):
        self._one_step_decreases_loss(Adam(lr=0.01))


class TestFit:
    def test_learns_separable_problem(self):
        x, y = toy_classification()
        model = Sequential([Dense(16), ReLU(), Dense(2),
                            Softmax()]).build(4, seed=1)
        history = fit(model, x, y, epochs=20, batch_size=32,
                      optimizer=Adam(0.01))
        assert accuracy(model.predict(x), y) > 0.95
        assert history.loss[-1] < history.loss[0]

    def test_autoencoder_mse_decreases(self, rng):
        x = rng.uniform(0, 1, (128, 8))
        model = Sequential([Dense(4), ReLU(), Dense(8),
                            Sigmoid()]).build(8, seed=2)
        history = fit(model, x, x, loss="mse", epochs=15,
                      optimizer=Adam(0.01))
        assert history.loss[-1] < history.loss[0]

    def test_unknown_loss_rejected(self):
        model = Sequential([Dense(2), Softmax()]).build(4)
        with pytest.raises(ValueError):
            fit(model, np.zeros((4, 4)), np.zeros((4, 2)), loss="hinge")

    def test_history_lengths(self):
        x, y = toy_classification(n=64)
        model = Sequential([Dense(2), Softmax()]).build(4, seed=1)
        history = fit(model, x, y, epochs=3)
        assert len(history.loss) == 3

    def test_reproducible_with_seed(self):
        x, y = toy_classification(n=64)

        def run():
            model = Sequential([Dense(4), ReLU(), Dense(2),
                                Softmax()]).build(4, seed=5)
            fit(model, x, y, epochs=2, seed=9, optimizer=SGD(lr=0.1))
            return model.predict(x)

        np.testing.assert_array_equal(run(), run())


class TestMinibatches:
    def test_covers_all_samples(self, rng):
        x = np.arange(10).reshape(10, 1).astype(float)
        y = x.copy()
        seen = []
        for xb, yb in iterate_minibatches(x, y, 3, rng):
            np.testing.assert_array_equal(xb, yb)
            seen.extend(xb[:, 0].tolist())
        assert sorted(seen) == list(range(10))

    def test_batch_sizes(self, rng):
        x = np.zeros((10, 1))
        sizes = [len(xb) for xb, _ in iterate_minibatches(x, x, 4, rng)]
        assert sizes == [4, 4, 2]
