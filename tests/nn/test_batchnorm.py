"""Tests for BatchNormalization and its hls4ml fusion pass."""

import numpy as np
import pytest

from repro.hls4ml_flow import HlsConfig, compile_model
from repro.nn import (
    Adam,
    BatchNormalization,
    Dense,
    ReLU,
    Sequential,
    Softmax,
    fit,
    layer_from_config,
    model_from_json,
    model_to_json,
)


def build_bn(dim=8):
    layer = BatchNormalization()
    layer.build(dim, np.random.default_rng(0))
    return layer


class TestLayer:
    def test_validation(self):
        with pytest.raises(ValueError):
            BatchNormalization(momentum=1.0)
        with pytest.raises(ValueError):
            BatchNormalization(eps=0.0)

    def test_training_normalizes_batch(self, rng):
        layer = build_bn()
        x = rng.normal(5.0, 3.0, (256, 8))
        out = layer.forward(x, training=True)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_moving_stats_converge(self, rng):
        layer = BatchNormalization(momentum=0.5)
        layer.build(4, rng)
        x = rng.normal(2.0, 1.5, (512, 4))
        for _ in range(20):
            layer.forward(x, training=True)
        np.testing.assert_allclose(layer.moving_mean, x.mean(axis=0),
                                   rtol=0.05)
        np.testing.assert_allclose(layer.moving_var, x.var(axis=0),
                                   rtol=0.1)

    def test_inference_uses_moving_stats(self, rng):
        layer = build_bn()
        x = rng.normal(0, 1, (32, 8))
        layer.forward(x, training=True)
        # Inference on a constant input is deterministic and affine.
        y1 = layer.forward(np.zeros((1, 8)))
        y2 = layer.forward(np.zeros((1, 8)))
        np.testing.assert_array_equal(y1, y2)

    def test_backward_gradient_numeric(self, rng):
        layer = build_bn(4)
        x = rng.normal(0, 1, (16, 4))
        out = layer.forward(x, training=True)
        grad_out = rng.normal(0, 1, out.shape)
        layer.backward(grad_out)
        eps = 1e-6
        layer.gamma[1] += eps
        up = (layer.forward(x, training=True) * grad_out).sum()
        layer.gamma[1] -= 2 * eps
        down = (layer.forward(x, training=True) * grad_out).sum()
        layer.gamma[1] += eps
        layer.forward(x, training=True)
        grads = layer.backward(grad_out)
        numeric = (up - down) / (2 * eps)
        assert layer.grads()["gamma"][1] == pytest.approx(numeric,
                                                          rel=1e-4)

    def test_fold_constants(self, rng):
        layer = build_bn(4)
        x = rng.normal(3.0, 2.0, (64, 4))
        for _ in range(50):
            layer.forward(x, training=True)
        scale = layer.gamma / np.sqrt(layer.moving_var + layer.eps)
        shift = layer.beta - scale * layer.moving_mean
        expected = layer.forward(x, training=False)
        np.testing.assert_allclose(scale * x + shift, expected,
                                   rtol=1e-10)

    def test_config_roundtrip(self):
        layer = BatchNormalization(momentum=0.9, eps=1e-2, name="bn0")
        rebuilt = layer_from_config(layer.config())
        assert isinstance(rebuilt, BatchNormalization)
        assert rebuilt.momentum == 0.9
        assert rebuilt.eps == 1e-2

    def test_trainable_in_model(self, rng):
        model = Sequential([Dense(8), BatchNormalization(), ReLU(),
                            Dense(2), Softmax()]).build(4, seed=0)
        x = rng.normal(0, 1, (64, 4))
        y = np.eye(2)[rng.integers(0, 2, 64)]
        history = fit(model, x, y, epochs=10, optimizer=Adam(0.01))
        assert history.loss[-1] < history.loss[0]

    def test_serialization_carries_moving_stats(self, rng):
        model = Sequential([Dense(8), BatchNormalization(),
                            ReLU()]).build(4, seed=0)
        x = rng.normal(0, 1, (32, 4))
        model.forward(x, training=True)
        weights = model.get_weights()
        assert any("moving_mean" in key for key in weights)
        clone = model_from_json(model_to_json(model))
        clone.set_weights(weights)
        np.testing.assert_array_equal(clone.predict(x), model.predict(x))


class TestFusion:
    def _trained_bn_model(self, rng):
        model = Sequential([Dense(16), BatchNormalization(), ReLU(),
                            Dense(4), Softmax()], name="bn").build(8,
                                                                   seed=0)
        x = rng.normal(0, 1, (128, 8))
        y = np.eye(4)[rng.integers(0, 4, 128)]
        fit(model, x, y, epochs=3, optimizer=Adam(0.01))
        return model

    def test_bn_folds_into_dense(self, rng):
        model = self._trained_bn_model(rng)
        hls = compile_model(model, HlsConfig(reuse_factor=4))
        # Only the two Dense layers survive; the BN disappeared.
        assert len(hls.layers) == 2
        assert hls.layers[0].activation == "relu"

    def test_folded_model_matches_float_inference(self, rng):
        model = self._trained_bn_model(rng)
        hls = compile_model(
            model, HlsConfig(precision="ap_fixed<28,14>", reuse_factor=4))
        x = rng.normal(0, 1, (32, 8))
        # High precision: the folded fixed-point model tracks the float
        # model (which applies BN at inference) very closely.
        np.testing.assert_allclose(hls.predict(x), model.predict(x),
                                   atol=1e-3)

    def test_bn_before_dense_rejected(self):
        model = Sequential([BatchNormalization(), Dense(4)],
                           name="bad").build(4)
        with pytest.raises(ValueError, match="precedes"):
            compile_model(model, HlsConfig(reuse_factor=1))

    def test_bn_after_activation_rejected(self):
        model = Sequential([Dense(4), ReLU(), BatchNormalization()],
                           name="bad").build(4)
        with pytest.raises(ValueError, match="folded"):
            compile_model(model, HlsConfig(reuse_factor=1))

    def test_double_bn_rejected(self):
        model = Sequential([Dense(4), BatchNormalization(),
                            BatchNormalization()], name="bad").build(4)
        with pytest.raises(ValueError, match="two BatchNormalization"):
            compile_model(model, HlsConfig(reuse_factor=1))
