"""The SVHN denoiser accelerator (HLS4ML flow).

Paper Sec. VI: "we designed an autoencoder model. The network size is
1024x256x128x1024, and the compression factor in the bottleneck is 8.
We added Gaussian noise to the SVHN dataset and trained the model with
a 3.1% reconstruction error."
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from ..hls4ml_flow import HlsConfig, HlsModel, compile_model
from ..nn import Dense, GaussianNoise, ReLU, Sequential, Sigmoid
from .base import AcceleratorSpec
from .classifier import spec_from_hls

#: The paper's autoencoder: 1024x256x128x1024 (compression factor 8:
#: 1024 inputs squeeze into the 128-wide bottleneck).
DENOISER_TOPOLOGY = (1024, 256, 128, 1024)
TRAINING_NOISE_STDDEV = 0.15

#: Per-layer reuse factors, as hls4ml users tune them layer by layer:
#: the wide decoder layer (128x1024 weights) gets the largest reuse to
#: stay within its tile's DSP column, the bottleneck layer the
#: smallest. The resulting latency matches the paper's Denoiser+
#: Classifier throughput anchor (Table I: 5,220 frames/s).
DEFAULT_REUSE_FACTOR = 4096
REUSE_PROFILE = (4096, 2048, 8192)


def denoiser_model(seed: int = 11) -> Sequential:
    """The untrained autoencoder with the paper's topology."""
    layers = [GaussianNoise(TRAINING_NOISE_STDDEV)]
    for units in DENOISER_TOPOLOGY[1:-1]:
        layers.append(Dense(units))
        layers.append(ReLU())
    layers.append(Dense(DENOISER_TOPOLOGY[-1]))
    layers.append(Sigmoid())
    model = Sequential(layers, name="svhn_denoiser")
    model.build(DENOISER_TOPOLOGY[0], seed=seed)
    return model


def denoiser_hls(model: Optional[Sequential] = None,
                 reuse_factor: int = DEFAULT_REUSE_FACTOR,
                 clock_mhz: float = 78.0) -> HlsModel:
    """Compile the denoiser (default model cached as in classifier_hls)."""
    if model is None:
        return _default_denoiser_hls(reuse_factor, clock_mhz)
    layer_reuse = {}
    if reuse_factor == DEFAULT_REUSE_FACTOR:
        names = [layer.name for layer in model.dense_layers()]
        layer_reuse = dict(zip(names, REUSE_PROFILE))
    config = HlsConfig(reuse_factor=reuse_factor, layer_reuse=layer_reuse,
                       clock_mhz=clock_mhz)
    return compile_model(model, config)


@lru_cache(maxsize=None)
def _default_denoiser_hls(reuse_factor: int, clock_mhz: float) -> HlsModel:
    return denoiser_hls(denoiser_model(), reuse_factor, clock_mhz)


def denoiser_spec(model: Optional[Sequential] = None,
                  reuse_factor: int = DEFAULT_REUSE_FACTOR,
                  clock_mhz: float = 78.0) -> AcceleratorSpec:
    """The denoiser as an SoC-ready accelerator."""
    return spec_from_hls(denoiser_hls(model, reuse_factor, clock_mhz),
                         name="denoiser")
