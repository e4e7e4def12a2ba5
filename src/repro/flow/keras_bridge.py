"""Model training entry points (the "Keras training" box of Fig. 3).

Trains the paper's two models on the synthetic SVHN stream and caches
weights on disk so the flow (and the benchmarks) do not retrain on
every run. The cache is the checkout's ``artifacts/models``, found
from this file's path, so a run from any working directory reuses the
models the last run trained; ``cache_dir=`` names another. Two
quality presets:

- ``fast``: small sample budget, for tests and quick demos;
- ``full``: the budget used to reproduce the paper's accuracy numbers
  (92% classification, 3.1% reconstruction error band).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Tuple

import numpy as np

from ..accelerators.classifier import classifier_model
from ..accelerators.denoiser import denoiser_model, TRAINING_NOISE_STDDEV
from ..datasets import add_gaussian_noise, flatten_frames, generate
from ..nn import (
    Adam,
    Sequential,
    accuracy,
    fit,
    load_model,
    save_model,
)

#: Default cache directory for trained model artifacts: the
#: checkout's ``artifacts/models`` (src/repro/flow -> repository root).
DEFAULT_CACHE = Path(__file__).resolve().parents[3] / "artifacts" / "models"


@dataclass(frozen=True)
class TrainingPreset:
    n_train: int
    n_test: int
    epochs: int
    batch_size: int
    learning_rate: float = 1e-3


PRESETS = {
    "fast": TrainingPreset(n_train=2500, n_test=400, epochs=12,
                           batch_size=64, learning_rate=2e-3),
    "full": TrainingPreset(n_train=12000, n_test=2000, epochs=30,
                           batch_size=64),
}


def _load_or_fit(name: str, preset: str, cache_dir: Optional[Path],
                 force: bool, build: Callable[[], Sequential],
                 train_data: Callable[[int], Tuple[np.ndarray, np.ndarray]],
                 loss: str) -> Tuple[Sequential, TrainingPreset]:
    """Load ``<name>_<preset>`` from the cache, or build, fit and cache
    it; returns the model and the preset."""
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; options: "
                         f"{sorted(PRESETS)}")
    config = PRESETS[preset]
    cache_dir = Path(cache_dir) if cache_dir else DEFAULT_CACHE
    cache_dir.mkdir(parents=True, exist_ok=True)
    json_path = cache_dir / f"{name}_{preset}.json"
    npz_path = cache_dir / f"{name}_{preset}.npz"
    if not force and json_path.exists() and npz_path.exists():
        return load_model(json_path, npz_path), config
    x, y = train_data(config.n_train)
    model = build()
    fit(model, x, y, loss=loss, optimizer=Adam(config.learning_rate),
        epochs=config.epochs, batch_size=config.batch_size, seed=0)
    save_model(model, json_path, npz_path)
    return model, config


def _svhn(n: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """``n`` flattened SVHN frames and their one-hot labels."""
    frames, labels = generate(n, seed=seed)
    return flatten_frames(frames), labels


def train_classifier(preset: str = "fast",
                     cache_dir: Optional[Path] = None,
                     force: bool = False) -> Tuple[Sequential, float]:
    """Train (or load) the SVHN classifier; returns (model, accuracy)."""
    model, config = _load_or_fit(
        "classifier", preset, cache_dir, force,
        lambda: classifier_model(seed=7),
        lambda n: _svhn(n, seed=0), "categorical_crossentropy")
    x_test, y_test = _svhn(config.n_test, seed=1)
    return model, accuracy(model.predict(x_test), y_test)


def _clean_frames(n: int, seed: int) -> np.ndarray:
    """Frames rendered without the sensor-noise term: the denoiser's
    targets (it cannot, and should not, reproduce per-pixel noise)."""
    return flatten_frames(generate(n, seed=seed, noise_stddev=0.0)[0])


def train_denoiser(preset: str = "fast",
                   cache_dir: Optional[Path] = None,
                   force: bool = False) -> Tuple[Sequential, float]:
    """Train (or load) the denoiser; returns (model, reconstruction err).

    The model's GaussianNoise input layer corrupts each training frame
    on the fly (the paper: "We added Gaussian noise to the SVHN dataset
    and trained the model"), so fitting frames against themselves
    trains denoising. The returned reconstruction error is the mean
    squared error of denoising a held-out noisy set, the conventional
    Keras autoencoder figure (paper: 3.1%).
    """
    def train_data(n):
        clean = _clean_frames(n, seed=2)
        return clean, clean

    model, config = _load_or_fit("denoiser", preset, cache_dir, force,
                                 lambda: denoiser_model(seed=11),
                                 train_data, "mse")
    clean_test = _clean_frames(config.n_test, seed=3)
    noisy_test = add_gaussian_noise(clean_test,
                                    stddev=TRAINING_NOISE_STDDEV, seed=4)
    pred = model.predict(noisy_test)
    return model, float(np.mean((pred - clean_test) ** 2))
