"""Tests for the training bridge (presets, caching, datasets)."""

import numpy as np
import pytest

from repro.datasets import darken, flatten_frames, generate
from repro.flow import PRESETS, train_classifier, train_denoiser
from repro.flow.keras_bridge import TrainingPreset


def night_vision_dataset(n_frames: int, seed: int = 0,
                         factor: float = 0.25):
    """Darkened SVHN frames + labels for the Night-Vision pipeline."""
    frames, labels = generate(n_frames, seed=seed)
    return flatten_frames(darken(frames, factor=factor)), labels


class TestPresets:
    def test_both_presets_defined(self):
        assert set(PRESETS) == {"fast", "full"}

    def test_full_is_bigger(self):
        assert PRESETS["full"].n_train > PRESETS["fast"].n_train
        assert PRESETS["full"].epochs > PRESETS["fast"].epochs

    def test_unknown_preset_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            train_classifier(preset="turbo", cache_dir=tmp_path)
        with pytest.raises(ValueError):
            train_denoiser(preset="turbo", cache_dir=tmp_path)


class TestCaching:
    def _tiny(self):
        # Patch in a minute preset for cache-behaviour tests.
        PRESETS["_tiny"] = TrainingPreset(n_train=60, n_test=30,
                                          epochs=1, batch_size=16)
        return "_tiny"

    def teardown_method(self):
        PRESETS.pop("_tiny", None)

    def test_cache_files_written_and_reused(self, tmp_path):
        preset = self._tiny()
        model1, acc1 = train_classifier(preset=preset,
                                        cache_dir=tmp_path)
        files = sorted(p.name for p in tmp_path.iterdir())
        assert f"classifier_{preset}.json" in files
        assert f"classifier_{preset}.npz" in files
        # Second call loads the cache: identical weights.
        model2, acc2 = train_classifier(preset=preset,
                                        cache_dir=tmp_path)
        np.testing.assert_array_equal(
            model1.layers[0].weights, model2.layers[0].weights)
        assert acc1 == acc2

    def test_force_retrains(self, tmp_path):
        preset = self._tiny()
        train_classifier(preset=preset, cache_dir=tmp_path)
        stamp = (tmp_path / f"classifier_{preset}.npz").stat().st_mtime_ns
        train_classifier(preset=preset, cache_dir=tmp_path, force=True)
        assert (tmp_path / f"classifier_{preset}.npz"
                ).stat().st_mtime_ns != stamp

    def test_denoiser_cache(self, tmp_path):
        preset = self._tiny()
        model, err = train_denoiser(preset=preset, cache_dir=tmp_path)
        assert 0.0 <= err <= 1.0
        model2, err2 = train_denoiser(preset=preset, cache_dir=tmp_path)
        assert err == err2


class TestNightVisionDataset:
    def test_shapes_and_darkness(self):
        frames, labels = night_vision_dataset(8, seed=1, factor=0.2)
        assert frames.shape == (8, 1024)
        assert labels.shape == (8, 10)
        assert frames.max() <= 0.2 + 1e-9

    def test_deterministic(self):
        a, _ = night_vision_dataset(4, seed=2)
        b, _ = night_vision_dataset(4, seed=2)
        np.testing.assert_array_equal(a, b)
