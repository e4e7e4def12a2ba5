"""Losses, optimizers and the training loop (Keras substitute)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .model import Sequential


# ---------------------------------------------------------------------------
# Losses: each returns (loss_value, gradient_wrt_model_output)
# ---------------------------------------------------------------------------

def categorical_crossentropy(probs: np.ndarray,
                             onehot: np.ndarray) -> Tuple[float, np.ndarray]:
    """Cross-entropy against one-hot targets, fused-softmax gradient."""
    batch = probs.shape[0]
    eps = 1e-12
    loss = float(-np.sum(onehot * np.log(probs + eps)) / batch)
    grad = (probs - onehot) / batch
    return loss, grad


def mean_squared_error(pred: np.ndarray,
                       target: np.ndarray) -> Tuple[float, np.ndarray]:
    diff = pred - target
    loss = float(np.mean(diff * diff))
    grad = 2.0 * diff / diff.size
    return loss, grad


LOSSES: Dict[str, Callable] = {
    "categorical_crossentropy": categorical_crossentropy,
    "mse": mean_squared_error,
}


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------

class Optimizer:
    def step(self, model: Sequential) -> None:
        raise NotImplementedError


class Adam(Optimizer):
    def __init__(self, lr: float = 0.001, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8) -> None:
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._t = 0
        self._m: Dict[int, Dict[str, np.ndarray]] = {}
        self._v: Dict[int, Dict[str, np.ndarray]] = {}

    def step(self, model: Sequential) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        for layer, key, param, grad in model.trainable():
            m_slot = self._m.setdefault(id(layer), {})
            v_slot = self._v.setdefault(id(layer), {})
            m = m_slot.setdefault(key, np.zeros_like(param))
            v = v_slot.setdefault(key, np.zeros_like(param))
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            param -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@dataclass
class History:
    """Per-epoch training record (Keras History substitute)."""

    loss: List[float] = field(default_factory=list)


def iterate_minibatches(x: np.ndarray, y: np.ndarray, batch_size: int,
                        rng: np.random.Generator):
    """Shuffled mini-batches over a dataset."""
    order = rng.permutation(len(x))
    for start in range(0, len(x), batch_size):
        idx = order[start:start + batch_size]
        yield x[idx], y[idx]


def fit(model: Sequential, x: np.ndarray, y: np.ndarray, *,
        loss: str = "categorical_crossentropy",
        optimizer: Optional[Optimizer] = None,
        epochs: int = 10, batch_size: int = 64,
        seed: int = 0) -> History:
    """Train ``model``; returns the per-epoch :class:`History`."""
    if loss not in LOSSES:
        raise ValueError(f"unknown loss {loss!r}; options: {sorted(LOSSES)}")
    loss_fn = LOSSES[loss]
    optimizer = optimizer or Adam()
    rng = np.random.default_rng(seed)
    history = History()

    for _ in range(epochs):
        epoch_losses = []
        for xb, yb in iterate_minibatches(x, y, batch_size, rng):
            pred = model.forward(xb, training=True)
            value, grad = loss_fn(pred, yb)
            model.backward(grad)
            optimizer.step(model)
            epoch_losses.append(value)
        history.loss.append(float(np.mean(epoch_losses)))
    return history
