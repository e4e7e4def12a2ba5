"""Neural-network layers (Keras substitute).

The ESP4ML flow consumes models "developed with KERAS TensorFlow"
(paper Sec. I, contribution 5). This module provides the minimal layer
set the paper's two models need — Dense, ReLU, Softmax, Sigmoid,
Dropout, GaussianNoise — with forward and backward passes over NumPy,
so models can be trained offline and handed to the HLS4ML-substitute
compiler as topology + weights.

All layers operate on batches shaped ``(batch, features)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np


class Layer:
    """Base layer: forward/backward plus parameter bookkeeping."""

    #: set by subclasses that carry trainable parameters
    has_weights = False

    def __init__(self, name: Optional[str] = None) -> None:
        self.name = name or f"{type(self).__name__.lower()}"
        self.built = False

    def build(self, input_dim: int, rng: np.random.Generator) -> int:
        """Allocate parameters; returns the layer's output dimension."""
        self.built = True
        return input_dim

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Propagate ``dL/dout`` to ``dL/din``; stash parameter grads."""
        raise NotImplementedError

    def params(self) -> Dict[str, np.ndarray]:
        return {}

    def grads(self) -> Dict[str, np.ndarray]:
        return {}

    def config(self) -> Dict:
        """JSON-serializable layer description (Keras model.json style)."""
        return {"class_name": type(self).__name__, "name": self.name}


class Dense(Layer):
    """Fully connected layer: ``y = x @ W + b``."""

    has_weights = True

    def __init__(self, units: int, name: Optional[str] = None) -> None:
        super().__init__(name)
        if units < 1:
            raise ValueError(f"units must be >= 1, got {units}")
        self.units = units
        self.input_dim: Optional[int] = None
        self.weights: Optional[np.ndarray] = None  # (input_dim, units)
        self.bias: Optional[np.ndarray] = None
        self._x: Optional[np.ndarray] = None
        self._dw: Optional[np.ndarray] = None
        self._db: Optional[np.ndarray] = None

    def build(self, input_dim: int, rng: np.random.Generator) -> int:
        self.input_dim = input_dim
        # Glorot-uniform, the Keras Dense default.
        limit = np.sqrt(6.0 / (input_dim + self.units))
        self.weights = rng.uniform(-limit, limit, size=(input_dim, self.units))
        self.bias = np.zeros(self.units)
        self.built = True
        return self.units

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._x = x if training else None
        return x @ self.weights + self.bias

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward() before forward(training=True)")
        self._dw = self._x.T @ grad
        self._db = grad.sum(axis=0)
        return grad @ self.weights.T

    def params(self) -> Dict[str, np.ndarray]:
        return {"weights": self.weights, "bias": self.bias}

    def grads(self) -> Dict[str, np.ndarray]:
        return {"weights": self._dw, "bias": self._db}

    def config(self) -> Dict:
        return {"class_name": "Dense", "name": self.name,
                "units": self.units, "input_dim": self.input_dim}

    @property
    def n_weights(self) -> int:
        """Multiplier count seen by HLS4ML (weights, excluding biases)."""
        return int(self.input_dim * self.units)


class ReLU(Layer):
    def __init__(self, name: Optional[str] = None) -> None:
        super().__init__(name)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad * self._mask


class Sigmoid(Layer):
    def __init__(self, name: Optional[str] = None) -> None:
        super().__init__(name)
        self._y: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        y = 1.0 / (1.0 + np.exp(-np.clip(x, -60, 60)))
        if training:
            self._y = y
        return y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad * self._y * (1.0 - self._y)


class Softmax(Layer):
    """Softmax output; pairs with categorical cross-entropy.

    The backward pass assumes the loss is cross-entropy and the incoming
    gradient is ``(probs - onehot) / batch`` computed by the loss, so it
    passes gradients through unchanged (the standard fused form).
    """

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        shifted = x - x.max(axis=-1, keepdims=True)
        expx = np.exp(shifted)
        return expx / expx.sum(axis=-1, keepdims=True)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad


class BatchNormalization(Layer):
    """Batch normalization (Keras semantics).

    Training normalizes with batch statistics and maintains moving
    averages; inference uses the moving statistics. HLS4ML folds an
    inference-time batch norm into the preceding Dense layer's weights
    (the ``fuse_batch_norm`` optimizer pass), which
    :mod:`repro.hls4ml_flow.compiler` reproduces.
    """

    has_weights = True

    def __init__(self, momentum: float = 0.99, eps: float = 1e-3,
                 name: Optional[str] = None) -> None:
        super().__init__(name)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if eps <= 0:
            raise ValueError(f"eps must be > 0, got {eps}")
        self.momentum = momentum
        self.eps = eps
        self.gamma: Optional[np.ndarray] = None
        self.beta: Optional[np.ndarray] = None
        self.moving_mean: Optional[np.ndarray] = None
        self.moving_var: Optional[np.ndarray] = None
        self._cache = None
        self._dgamma: Optional[np.ndarray] = None
        self._dbeta: Optional[np.ndarray] = None

    def build(self, input_dim: int, rng: np.random.Generator) -> int:
        self.gamma = np.ones(input_dim)
        self.beta = np.zeros(input_dim)
        self.moving_mean = np.zeros(input_dim)
        self.moving_var = np.ones(input_dim)
        self.built = True
        return input_dim

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            mean = x.mean(axis=0)
            var = x.var(axis=0)
            self.moving_mean *= self.momentum
            self.moving_mean += (1 - self.momentum) * mean
            self.moving_var *= self.momentum
            self.moving_var += (1 - self.momentum) * var
        else:
            mean, var = self.moving_mean, self.moving_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean) * inv_std
        if training:
            self._cache = (x_hat, inv_std)
        return self.gamma * x_hat + self.beta

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward() before forward(training=True)")
        x_hat, inv_std = self._cache
        batch = grad.shape[0]
        self._dgamma = (grad * x_hat).sum(axis=0)
        self._dbeta = grad.sum(axis=0)
        # Standard batch-norm input gradient.
        dx_hat = grad * self.gamma
        return inv_std * (dx_hat - dx_hat.mean(axis=0)
                          - x_hat * (dx_hat * x_hat).mean(axis=0))

    def params(self) -> Dict[str, np.ndarray]:
        return {"gamma": self.gamma, "beta": self.beta,
                "moving_mean": self.moving_mean,
                "moving_var": self.moving_var}

    def grads(self) -> Dict[str, np.ndarray]:
        # Moving statistics are not trained: zero gradients keep the
        # optimizers' parameter walk a no-op on them.
        return {"gamma": self._dgamma, "beta": self._dbeta,
                "moving_mean": np.zeros_like(self.moving_mean),
                "moving_var": np.zeros_like(self.moving_var)}

    def config(self) -> Dict:
        return {"class_name": "BatchNormalization", "name": self.name,
                "momentum": self.momentum, "eps": self.eps}


class Dropout(Layer):
    """Inverted dropout; active only while training.

    The paper uses "dropout layers with a 0.2 rate to prevent
    overfitting" in the SVHN classifier (Sec. VI).
    """

    def __init__(self, rate: float, name: Optional[str] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__(name)
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng or np.random.default_rng(0)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate == 0.0:
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad
        return grad * self._mask

    def config(self) -> Dict:
        return {"class_name": "Dropout", "name": self.name, "rate": self.rate}


class GaussianNoise(Layer):
    """Additive Gaussian noise during training (denoiser regularizer)."""

    def __init__(self, stddev: float, name: Optional[str] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__(name)
        if stddev < 0:
            raise ValueError(f"stddev must be >= 0, got {stddev}")
        self.stddev = stddev
        self._rng = rng or np.random.default_rng(0)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.stddev == 0.0:
            return x
        return x + self._rng.normal(0.0, self.stddev, size=x.shape)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad

    def config(self) -> Dict:
        return {"class_name": "GaussianNoise", "name": self.name,
                "stddev": self.stddev}


_LAYER_CLASSES = {
    "BatchNormalization": BatchNormalization,
    "Dense": Dense,
    "ReLU": ReLU,
    "Sigmoid": Sigmoid,
    "Softmax": Softmax,
    "Dropout": Dropout,
    "GaussianNoise": GaussianNoise,
}


def layer_from_config(config: Dict) -> Layer:
    """Rebuild a layer from its :meth:`Layer.config` dict."""
    class_name = config["class_name"]
    if class_name not in _LAYER_CLASSES:
        raise ValueError(f"unknown layer class {class_name!r}")
    cls = _LAYER_CLASSES[class_name]
    kwargs = {k: v for k, v in config.items()
              if k not in ("class_name", "input_dim")}
    return cls(**kwargs)


def inference_layers(layers: List[Layer]) -> List[Layer]:
    """Layers that exist at inference time (drops training-only ones).

    HLS4ML ignores Dropout and GaussianNoise when generating firmware;
    the same pruning happens here before compilation.
    """
    return [l for l in layers if not isinstance(l, (Dropout, GaussianNoise))]
