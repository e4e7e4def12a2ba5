"""Model training entry points (the "Keras training" box of Fig. 3).

Trains the paper's two models on the synthetic SVHN stream and caches
weights on disk so the flow (and the benchmarks) do not retrain on
every run. Two quality presets:

- ``fast``: small sample budget, for tests and quick demos;
- ``full``: the budget used to reproduce the paper's accuracy numbers
  (92% classification, 3.1% reconstruction error band).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from ..accelerators.classifier import classifier_model
from ..accelerators.denoiser import denoiser_model, TRAINING_NOISE_STDDEV
from ..datasets import add_gaussian_noise, flatten_frames, generate
from ..datasets.svhn import SvhnConfig
from ..nn import (
    Adam,
    Sequential,
    accuracy,
    fit,
    load_model,
    save_model,
)

#: Default cache directory for trained model artifacts.
DEFAULT_CACHE = Path("artifacts/models")


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

#: The denoiser trains against noise-free structure: its targets are
#: frames rendered without the sensor-noise term (a denoiser cannot —
#: and should not — reproduce incompressible per-pixel noise).
DENOISER_DATA = SvhnConfig(noise_stddev=0.0)


def _cache_paths(cache_dir: Path, name: str) -> Tuple[Path, Path]:
    cache_dir.mkdir(parents=True, exist_ok=True)
    return cache_dir / f"{name}.json", cache_dir / f"{name}.npz"


def train_classifier(preset: str = "fast", seed: int = 0,
                     cache_dir: Optional[Path] = None,
                     force: bool = False) -> Tuple[Sequential, float]:
    """Train (or load) the SVHN classifier; returns (model, accuracy)."""
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; options: "
                         f"{sorted(PRESETS)}")
    cache_dir = Path(cache_dir) if cache_dir else DEFAULT_CACHE
    json_path, npz_path = _cache_paths(cache_dir, f"classifier_{preset}")
    config = PRESETS[preset]

    x_test_img, y_test = generate(config.n_test, seed=seed + 1)
    x_test = flatten_frames(x_test_img)

    if not force and json_path.exists() and npz_path.exists():
        model = load_model(json_path, npz_path)
    else:
        x_train_img, y_train = generate(config.n_train, seed=seed)
        x_train = flatten_frames(x_train_img)
        model = classifier_model(seed=seed + 7)
        fit(model, x_train, y_train,
            loss="categorical_crossentropy",
            optimizer=Adam(config.learning_rate),
            epochs=config.epochs, batch_size=config.batch_size, seed=seed)
        save_model(model, json_path, npz_path)
    test_accuracy = accuracy(model.predict(x_test), y_test)
    return model, test_accuracy


def train_denoiser(preset: str = "fast", seed: int = 0,
                   cache_dir: Optional[Path] = None,
                   force: bool = False) -> Tuple[Sequential, float]:
    """Train (or load) the denoiser; returns (model, reconstruction err).

    The model's GaussianNoise input layer corrupts each training frame
    on the fly (the paper: "We added Gaussian noise to the SVHN dataset
    and trained the model"), so fitting frames against themselves
    trains denoising. The returned reconstruction error is the mean
    squared error of denoising a held-out noisy set, the conventional
    Keras autoencoder figure (paper: 3.1%); see EXPERIMENTS.md for the
    stricter relative-L2 number as well.
    """
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; options: "
                         f"{sorted(PRESETS)}")
    cache_dir = Path(cache_dir) if cache_dir else DEFAULT_CACHE
    json_path, npz_path = _cache_paths(cache_dir, f"denoiser_{preset}")
    config = PRESETS[preset]

    clean_test_img, _ = generate(config.n_test, seed=seed + 3,
                                 config=DENOISER_DATA)
    clean_test = flatten_frames(clean_test_img)
    noisy_test = add_gaussian_noise(clean_test,
                                    stddev=TRAINING_NOISE_STDDEV,
                                    seed=seed + 4)

    if not force and json_path.exists() and npz_path.exists():
        model = load_model(json_path, npz_path)
    else:
        clean_img, _ = generate(config.n_train, seed=seed + 2,
                                config=DENOISER_DATA)
        clean = flatten_frames(clean_img)
        model = denoiser_model(seed=seed + 11)
        fit(model, clean, clean, loss="mse",
            optimizer=Adam(config.learning_rate),
            epochs=config.epochs, batch_size=config.batch_size, seed=seed)
        save_model(model, json_path, npz_path)
    pred = model.predict(noisy_test)
    error = float(np.mean((pred - clean_test) ** 2))
    return model, error
