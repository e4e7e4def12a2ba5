"""Accelerator library: the paper's four case-study accelerators."""

from .base import AcceleratorSpec
from .classifier import classifier_model, classifier_spec
from .denoiser import denoiser_model, denoiser_spec
from .multitile import partition_classifier
from .nightvision import night_vision_spec

__all__ = [
    "AcceleratorSpec",
    "classifier_model",
    "classifier_spec",
    "denoiser_model",
    "denoiser_spec",
    "night_vision_spec",
    "partition_classifier",
]
