"""Synthetic SVHN-like dataset and the paper's frame transforms."""

from .glyphs import GLYPH_COLS, GLYPH_ROWS, glyph
from .svhn import N_CLASSES, SvhnConfig, generate, generate_frame
from .transforms import (
    FRAME_PIXELS,
    FRAME_SIDE,
    add_gaussian_noise,
    darken,
    flatten_frames,
)

__all__ = [
    "FRAME_PIXELS",
    "FRAME_SIDE",
    "GLYPH_COLS",
    "GLYPH_ROWS",
    "N_CLASSES",
    "SvhnConfig",
    "add_gaussian_noise",
    "darken",
    "flatten_frames",
    "generate",
    "generate_frame",
    "glyph",
]
