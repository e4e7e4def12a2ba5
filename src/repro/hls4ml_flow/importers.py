"""Model importers for non-Keras front ends.

HLS4ML accepts models from "Keras, PyTorch, and ONNX" (paper Sec. II).
The Keras-substitute path lives in :mod:`repro.hls4ml_flow.compiler`;
this module adds the other two front ends over the same intermediate
form:

- :func:`from_onnx_graph` consumes an ONNX-like graph dictionary
  (nodes with ``Gemm``/``Relu``/``Sigmoid``/``Softmax`` ops plus an
  initializer map, the structure ``onnx.GraphProto`` flattens to);
- :func:`from_torch_state` consumes a PyTorch-style ``state_dict``
  (``<idx>.weight`` of shape (out, in), ``<idx>.bias``) plus the
  activation list of the ``nn.Sequential`` it came from.

Both produce a compiled :class:`~repro.hls4ml_flow.hls_model.HlsModel`
identical to what the Keras path yields for the same math.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import HlsConfig
from .hls_model import HlsDenseLayer, HlsModel, build_layer

_ONNX_ACTIVATIONS = {"Relu": "relu", "Sigmoid": "sigmoid",
                     "Softmax": "softmax"}
_TORCH_ACTIVATIONS = ("linear", "relu", "sigmoid", "softmax")


def _assemble(name: str, fused: List[Dict],
              config: Optional[HlsConfig]) -> HlsModel:
    config = config or HlsConfig()
    layers: List[HlsDenseLayer] = []
    for index, spec in enumerate(fused):
        layer_name = spec.get("name") or f"dense_{index}"
        layers.append(build_layer(
            name=layer_name,
            weights=spec["weights"],
            bias=spec["bias"],
            activation=spec["activation"],
            precision=config.precision,
            reuse_factor=config.reuse_for(layer_name),
        ))
    return HlsModel(name=name, layers=layers, clock_mhz=config.clock_mhz)


def from_onnx_graph(graph: Dict,
                    config: Optional[HlsConfig] = None) -> HlsModel:
    """Compile an ONNX-like graph dictionary.

    Expected structure::

        {"name": "model",
         "nodes": [
             {"op_type": "Gemm", "inputs": ["x", "W0", "B0"],
              "outputs": ["h0"], "name": "gemm0"},
             {"op_type": "Relu", "inputs": ["h0"], "outputs": ["h1"]},
             ...],
         "initializers": {"W0": ndarray(out, in), "B0": ndarray(out)}}

    ONNX ``Gemm`` convention: ``Y = X @ W.T + B`` (transB=1, the
    PyTorch exporter default), so weights arrive as (out, in) and are
    transposed into the compiler's (in, out) layout.
    """
    initializers = graph.get("initializers", {})
    fused: List[Dict] = []
    for node in graph.get("nodes", []):
        op = node["op_type"]
        if op == "Gemm":
            inputs = node["inputs"]
            if len(inputs) < 3:
                raise ValueError(
                    f"Gemm node {node.get('name')!r} needs data, weight "
                    f"and bias inputs")
            w_name, b_name = inputs[1], inputs[2]
            if w_name not in initializers or b_name not in initializers:
                raise KeyError(
                    f"initializers {w_name!r}/{b_name!r} not found")
            weights = np.asarray(initializers[w_name], dtype=np.float64)
            bias = np.asarray(initializers[b_name], dtype=np.float64)
            fused.append({"name": node.get("name"),
                          "weights": weights.T, "bias": bias,
                          "activation": "linear"})
        elif op in _ONNX_ACTIVATIONS:
            if not fused:
                raise ValueError(f"{op} node precedes any Gemm")
            if fused[-1]["activation"] != "linear":
                raise ValueError(f"two consecutive activations at {op}")
            fused[-1]["activation"] = _ONNX_ACTIVATIONS[op]
        elif op in ("Dropout", "Identity"):
            continue   # inference no-ops, as in hls4ml
        else:
            raise ValueError(f"unsupported ONNX op {op!r}")
    if not fused:
        raise ValueError("graph contains no Gemm nodes")
    return _assemble(graph.get("name", "onnx_model"), fused, config)


def from_torch_state(state_dict: Dict[str, np.ndarray],
                     activations: Sequence[str],
                     name: str = "torch_model",
                     config: Optional[HlsConfig] = None) -> HlsModel:
    """Compile a PyTorch-style Sequential state dict.

    ``state_dict`` holds ``"<idx>.weight"`` arrays of shape (out, in)
    and ``"<idx>.bias"`` of shape (out,), one pair per Linear module;
    ``activations`` gives the post-activation of each Linear in order
    ("linear", "relu", "sigmoid" or "softmax").
    """
    indices = sorted({int(key.split(".")[0]) for key in state_dict
                      if key.endswith(".weight")})
    if not indices:
        raise ValueError("state_dict contains no '<idx>.weight' entries")
    if len(activations) != len(indices):
        raise ValueError(
            f"{len(indices)} Linear layers but {len(activations)} "
            f"activations given")
    fused: List[Dict] = []
    for index, activation in zip(indices, activations):
        if activation not in _TORCH_ACTIVATIONS:
            raise ValueError(
                f"activation must be one of {_TORCH_ACTIVATIONS}, got "
                f"{activation!r}")
        weight = np.asarray(state_dict[f"{index}.weight"],
                            dtype=np.float64)
        bias_key = f"{index}.bias"
        bias = np.asarray(state_dict[bias_key], dtype=np.float64) \
            if bias_key in state_dict else np.zeros(weight.shape[0])
        fused.append({"name": f"linear_{index}", "weights": weight.T,
                      "bias": bias, "activation": activation})
    return _assemble(name, fused, config)
