"""Minimal NumPy neural-network library (Keras substitute).

Provides the layer set, training loop and JSON+NPZ serialization that
the ESP4ML flow needs to produce the paper's two models: the SVHN MLP
classifier (1024x256x128x64x32x10) and the denoising autoencoder
(1024x256x128x1024).
"""

from .layers import (
    BatchNormalization,
    Dense,
    Dropout,
    GaussianNoise,
    Layer,
    ReLU,
    Sigmoid,
    Softmax,
    inference_layers,
    layer_from_config,
)
from .model import Sequential
from .training import (
    Adam,
    History,
    categorical_crossentropy,
    fit,
    iterate_minibatches,
    mean_squared_error,
)
from .serialize import (
    load_model,
    model_artifacts,
    model_from_json,
    model_to_json,
    save_model,
)
from .metrics import accuracy

__all__ = [
    "Adam",
    "BatchNormalization",
    "Dense",
    "Dropout",
    "GaussianNoise",
    "History",
    "Layer",
    "ReLU",
    "Sequential",
    "Sigmoid",
    "Softmax",
    "accuracy",
    "categorical_crossentropy",
    "fit",
    "inference_layers",
    "iterate_minibatches",
    "layer_from_config",
    "load_model",
    "mean_squared_error",
    "model_artifacts",
    "model_from_json",
    "model_to_json",
    "save_model",
]
