"""Frame transforms used by the case-study applications.

The paper evaluates three application variants of the SVHN stream:
plain classification, denoising (Gaussian noise added, Sec. VI) and
night vision ("we darkened the SVHN dataset"). These transforms produce
the corresponding inputs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

FRAME_SIDE = 32
FRAME_PIXELS = FRAME_SIDE * FRAME_SIDE


def flatten_frames(frames: np.ndarray) -> np.ndarray:
    """(N, 32, 32) -> (N, 1024) in row-major order (the DMA layout)."""
    frames = np.asarray(frames)
    return frames.reshape(frames.shape[0], -1)


def add_gaussian_noise(frames: np.ndarray, stddev: float = 0.15,
                       seed: int = 0,
                       rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Additive Gaussian noise, clipped to [0, 1] (denoiser input)."""
    rng = rng or np.random.default_rng(seed)
    noisy = frames + rng.normal(0.0, stddev, size=np.shape(frames))
    return np.clip(noisy, 0.0, 1.0)


def darken(frames: np.ndarray, factor: float = 0.25,
           floor: float = 0.0) -> np.ndarray:
    """Scale intensities down (night-vision input).

    ``factor`` compresses the dynamic range toward ``floor``, which is
    what makes plain classification fail and motivates the night-vision
    pre-processing pipeline (noise filter + histogram equalization).
    """
    if not 0.0 < factor <= 1.0:
        raise ValueError(f"factor must be in (0, 1], got {factor}")
    return floor + np.asarray(frames) * factor
