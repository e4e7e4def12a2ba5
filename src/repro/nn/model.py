"""Sequential model container (Keras substitute)."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .layers import Dense, Layer, inference_layers


class Sequential:
    """A linear stack of layers with forward/backward passes.

    Mirrors the small slice of the Keras API that the ESP4ML flow needs:
    build, predict, and (de)serialization of topology/weights.
    """

    def __init__(self, layers: Optional[List[Layer]] = None,
                 name: str = "model") -> None:
        self.name = name
        self.layers: List[Layer] = list(layers or [])
        self.input_dim: Optional[int] = None
        self.output_dim: Optional[int] = None

    def add(self, layer: Layer) -> None:
        if self.input_dim is not None:
            raise RuntimeError("cannot add layers after build()")
        self.layers.append(layer)

    def build(self, input_dim: int, seed: int = 0) -> "Sequential":
        """Allocate all parameters for a given input dimension."""
        if input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {input_dim}")
        rng = np.random.default_rng(seed)
        dim = input_dim
        names = set()
        for index, layer in enumerate(self.layers):
            if layer.name in names:
                layer.name = f"{layer.name}_{index}"
            names.add(layer.name)
            dim = layer.build(dim, rng)
        self.input_dim = input_dim
        self.output_dim = dim
        return self

    def _require_built(self) -> None:
        if self.input_dim is None:
            raise RuntimeError(f"model {self.name!r} is not built")

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._require_built()
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Inference pass (training-only layers are identity)."""
        return self.forward(x, training=False)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def trainable(self) -> Iterator[Tuple[Layer, str, np.ndarray, np.ndarray]]:
        """Yields (layer, param_name, param, grad) for every parameter."""
        for layer in self.layers:
            if not layer.has_weights:
                continue
            grads = layer.grads()
            for key, param in layer.params().items():
                yield layer, key, param, grads[key]

    def dense_layers(self) -> List[Dense]:
        """The Dense layers, in order (what HLS4ML compiles)."""
        return [l for l in inference_layers(self.layers)
                if isinstance(l, Dense)]

    @property
    def topology(self) -> List[int]:
        """Layer sizes as the paper quotes them, e.g. 1024x256x...x10."""
        self._require_built()
        sizes = [self.input_dim]
        sizes.extend(l.units for l in self.dense_layers())
        return sizes

    def get_weights(self) -> Dict[str, np.ndarray]:
        """Flat name->array mapping (HDF5-file substitute)."""
        out = {}
        for layer in self.layers:
            for key, param in layer.params().items():
                out[f"{layer.name}/{key}"] = param
        return out

    def set_weights(self, weights: Dict[str, np.ndarray]) -> None:
        for layer in self.layers:
            for key in layer.params():
                name = f"{layer.name}/{key}"
                if name not in weights:
                    raise KeyError(f"missing weight {name!r}")
                value = np.asarray(weights[name], dtype=np.float64)
                current = layer.params()[key]
                if value.shape != current.shape:
                    raise ValueError(
                        f"shape mismatch for {name!r}: "
                        f"{value.shape} vs {current.shape}")
                current[...] = value

    def config(self) -> Dict:
        """Topology description (the model.json of the Keras flow)."""
        self._require_built()
        return {
            "name": self.name,
            "input_dim": self.input_dim,
            "layers": [layer.config() for layer in self.layers],
        }
