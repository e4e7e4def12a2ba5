"""Tests for the Sequential model container."""

import numpy as np
import pytest

from repro.nn import Dense, Dropout, ReLU, Sequential, Softmax


def mlp(units=(8, 4), input_dim=6, seed=0):
    layers = []
    for u in units[:-1]:
        layers += [Dense(u), ReLU()]
    layers += [Dense(units[-1]), Softmax()]
    return Sequential(layers).build(input_dim, seed=seed)


class TestBuild:
    def test_build_sets_dims(self):
        model = mlp()
        assert model.input_dim == 6
        assert model.output_dim == 4

    def test_add_after_build_fails(self):
        model = mlp()
        with pytest.raises(RuntimeError):
            model.add(Dense(2))

    def test_forward_before_build_fails(self):
        model = Sequential([Dense(4)])
        with pytest.raises(RuntimeError):
            model.predict(np.zeros(4))

    def test_invalid_input_dim(self):
        with pytest.raises(ValueError):
            Sequential([Dense(4)]).build(0)

    def test_duplicate_layer_names_uniquified(self):
        model = Sequential([Dense(4), Dense(4), Dense(4)]).build(4)
        names = [l.name for l in model.layers]
        assert len(set(names)) == 3

    def test_deterministic_init_per_seed(self):
        a, b = mlp(seed=3), mlp(seed=3)
        np.testing.assert_array_equal(a.layers[0].weights,
                                      b.layers[0].weights)
        c = mlp(seed=4)
        assert not np.array_equal(a.layers[0].weights, c.layers[0].weights)


class TestForward:
    def test_predict_shape(self, rng):
        model = mlp()
        out = model.predict(rng.uniform(-1, 1, (5, 6)))
        assert out.shape == (5, 4)

    def test_single_vector_promoted_to_batch(self, rng):
        model = mlp()
        out = model.predict(rng.uniform(-1, 1, 6))
        assert out.shape == (1, 4)

    def test_softmax_output_normalized(self, rng):
        model = mlp()
        out = model.predict(rng.uniform(-1, 1, (5, 6)))
        np.testing.assert_allclose(out.sum(axis=1), 1.0)

    def test_dropout_inactive_in_predict(self, rng):
        model = Sequential([Dense(8), Dropout(0.9), Dense(4),
                            Softmax()]).build(6)
        x = rng.uniform(-1, 1, (3, 6))
        np.testing.assert_array_equal(model.predict(x), model.predict(x))


class TestIntrospection:
    def test_topology_matches_paper_style(self):
        model = mlp(units=(256, 128, 64, 32, 10), input_dim=1024)
        assert model.topology == [1024, 256, 128, 64, 32, 10]

    def test_dense_layers_excludes_activations(self):
        model = mlp(units=(8, 4))
        assert len(model.dense_layers()) == 2


class TestWeights:
    def test_get_set_roundtrip(self, rng):
        model = mlp()
        weights = model.get_weights()
        other = mlp(seed=99)
        other.set_weights(weights)
        x = rng.uniform(-1, 1, (3, 6))
        np.testing.assert_array_equal(model.predict(x), other.predict(x))

    def test_set_weights_missing_key(self):
        model = mlp()
        with pytest.raises(KeyError):
            model.set_weights({})

    def test_set_weights_shape_mismatch(self):
        model = mlp()
        weights = model.get_weights()
        key = next(iter(weights))
        weights[key] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            model.set_weights(weights)

    def test_config_lists_all_layers(self):
        model = mlp()
        config = model.config()
        assert config["input_dim"] == 6
        assert len(config["layers"]) == len(model.layers)
