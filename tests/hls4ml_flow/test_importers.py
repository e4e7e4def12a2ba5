"""Tests for the ONNX-like and PyTorch-like model importers."""

import numpy as np
import pytest

from repro.hls4ml_flow import (
    HlsConfig,
    compile_model,
    from_onnx_graph,
    from_torch_state,
)
from repro.nn import Dense, ReLU, Sequential, Softmax


def to_onnx_graph(model) -> dict:
    """Export a compiled model back to the ONNX-like dictionary.

    Round-trips with :func:`from_onnx_graph`.
    """
    nodes = []
    initializers = {}
    prev = "input"
    for index, layer in enumerate(model.layers):
        w_name, b_name = f"W{index}", f"B{index}"
        initializers[w_name] = layer.weights.T.copy()
        initializers[b_name] = layer.bias.copy()
        out = f"gemm{index}_out"
        nodes.append({"op_type": "Gemm", "name": f"gemm{index}",
                      "inputs": [prev, w_name, b_name],
                      "outputs": [out]})
        prev = out
        if layer.activation != "linear":
            op = {"relu": "Relu", "sigmoid": "Sigmoid",
                  "softmax": "Softmax"}[layer.activation]
            act_out = f"act{index}_out"
            nodes.append({"op_type": op, "inputs": [prev],
                          "outputs": [act_out]})
            prev = act_out
    return {"name": model.name, "nodes": nodes,
            "initializers": initializers}


def reference_model(seed=0):
    model = Sequential([Dense(16), ReLU(), Dense(4), Softmax()],
                       name="ref").build(8, seed=seed)
    return model, compile_model(model, HlsConfig(reuse_factor=4))


def onnx_graph_for(model):
    """Build the ONNX-like dict by hand from a Keras-substitute model."""
    dense = model.dense_layers()
    nodes, initializers = [], {}
    prev = "x"
    for index, layer in enumerate(dense):
        w, b = f"W{index}", f"B{index}"
        initializers[w] = layer.weights.T.copy()   # ONNX: (out, in)
        initializers[b] = layer.bias.copy()
        out = f"h{index}"
        nodes.append({"op_type": "Gemm", "name": f"gemm{index}",
                      "inputs": [prev, w, b], "outputs": [out]})
        prev = out
        act = "Relu" if index < len(dense) - 1 else "Softmax"
        nodes.append({"op_type": act, "inputs": [prev],
                      "outputs": [f"a{index}"]})
        prev = f"a{index}"
    return {"name": "ref_onnx", "nodes": nodes,
            "initializers": initializers}


class TestOnnxImport:
    def test_matches_keras_path(self, rng):
        model, keras_hls = reference_model()
        onnx_hls = from_onnx_graph(onnx_graph_for(model),
                                   HlsConfig(reuse_factor=4))
        x = rng.uniform(0, 1, (8, 8))
        np.testing.assert_array_equal(onnx_hls.predict(x),
                                      keras_hls.predict(x))
        assert onnx_hls.topology == keras_hls.topology

    def test_dropout_identity_skipped(self):
        model, _ = reference_model()
        graph = onnx_graph_for(model)
        graph["nodes"].insert(1, {"op_type": "Dropout", "inputs": ["h0"],
                                  "outputs": ["d0"]})
        hls = from_onnx_graph(graph, HlsConfig(reuse_factor=4))
        assert len(hls.layers) == 2

    def test_unsupported_op(self):
        graph = {"nodes": [{"op_type": "Conv", "inputs": [],
                            "outputs": []}], "initializers": {}}
        with pytest.raises(ValueError, match="unsupported"):
            from_onnx_graph(graph)

    def test_missing_initializer(self):
        graph = {"nodes": [{"op_type": "Gemm", "name": "g",
                            "inputs": ["x", "W", "B"], "outputs": ["y"]}],
                 "initializers": {}}
        with pytest.raises(KeyError):
            from_onnx_graph(graph)

    def test_empty_graph(self):
        with pytest.raises(ValueError):
            from_onnx_graph({"nodes": [], "initializers": {}})

    def test_roundtrip_export(self, rng):
        _, keras_hls = reference_model()
        graph = to_onnx_graph(keras_hls)
        back = from_onnx_graph(graph, HlsConfig(reuse_factor=4))
        x = rng.uniform(0, 1, (4, 8))
        np.testing.assert_array_equal(back.predict(x),
                                      keras_hls.predict(x))


class TestTorchImport:
    def _state_dict(self, model):
        state = {}
        for index, layer in enumerate(model.dense_layers()):
            state[f"{2 * index}.weight"] = layer.weights.T.copy()
            state[f"{2 * index}.bias"] = layer.bias.copy()
        return state

    def test_matches_keras_path(self, rng):
        model, keras_hls = reference_model()
        torch_hls = from_torch_state(self._state_dict(model),
                                     activations=["relu", "softmax"],
                                     config=HlsConfig(reuse_factor=4))
        x = rng.uniform(0, 1, (8, 8))
        np.testing.assert_array_equal(torch_hls.predict(x),
                                      keras_hls.predict(x))

    def test_missing_bias_defaults_to_zero(self, rng):
        model, _ = reference_model()
        state = self._state_dict(model)
        del state["0.bias"]
        hls = from_torch_state(state, activations=["relu", "softmax"],
                               config=HlsConfig(reuse_factor=4))
        np.testing.assert_array_equal(hls.layers[0].bias, 0.0)

    def test_activation_count_mismatch(self):
        model, _ = reference_model()
        with pytest.raises(ValueError, match="activations"):
            from_torch_state(self._state_dict(model),
                             activations=["relu"])

    def test_unknown_activation(self):
        model, _ = reference_model()
        with pytest.raises(ValueError):
            from_torch_state(self._state_dict(model),
                             activations=["gelu", "softmax"])

    def test_empty_state_dict(self):
        with pytest.raises(ValueError):
            from_torch_state({}, activations=[])
