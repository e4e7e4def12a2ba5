"""Tests for model serialization (JSON topology + NPZ weights)."""

import json

import numpy as np
import pytest

from repro.nn import (
    Dense,
    Dropout,
    ReLU,
    Sequential,
    Softmax,
    load_model,
    model_artifacts,
    model_from_json,
    model_to_json,
    save_model,
)


def sample_model(seed=0):
    return Sequential([Dense(8), ReLU(), Dropout(0.2), Dense(3),
                       Softmax()], name="sample").build(6, seed=seed)


class TestJson:
    def test_json_is_valid_and_complete(self):
        text = model_to_json(sample_model())
        config = json.loads(text)
        assert config["name"] == "sample"
        assert config["input_dim"] == 6
        assert len(config["layers"]) == 5

    def test_from_json_rebuilds_topology(self):
        model = sample_model()
        rebuilt = model_from_json(model_to_json(model))
        assert rebuilt.topology == model.topology
        assert rebuilt.input_dim == model.input_dim

    def test_rebuilt_model_has_fresh_weights(self):
        model = sample_model()
        rebuilt = model_from_json(model_to_json(model))
        # Weights are re-initialized, not carried by the JSON.
        shapes = {name: w.shape for name, w in model.get_weights().items()}
        assert {name: w.shape for name, w in
                rebuilt.get_weights().items()} == shapes


class TestSaveLoad:
    def test_roundtrip_preserves_predictions(self, tmp_path, rng):
        model = sample_model()
        save_model(model, tmp_path / "m.json", tmp_path / "m.npz")
        loaded = load_model(tmp_path / "m.json", tmp_path / "m.npz")
        x = rng.uniform(-1, 1, (4, 6))
        np.testing.assert_array_equal(loaded.predict(x), model.predict(x))

    def test_files_created(self, tmp_path):
        save_model(sample_model(), tmp_path / "m.json", tmp_path / "m.npz")
        assert (tmp_path / "m.json").exists()
        assert (tmp_path / "m.npz").exists()

    def test_artifacts_pair(self):
        model = sample_model()
        json_text, weights = model_artifacts(model)
        assert json.loads(json_text)["name"] == "sample"
        assert "dense/weights" in weights
        assert "dense/bias" in weights
