"""Digit glyph bitmaps used by the synthetic SVHN generator.

Each digit is a 7x5 binary matrix (classic seven-row font). The
generator scales, shifts and distorts these into 32x32 frames.
"""

from __future__ import annotations

import numpy as np

_GLYPH_ART = {
    0: ("01110",
        "10001",
        "10011",
        "10101",
        "11001",
        "10001",
        "01110"),
    1: ("00100",
        "01100",
        "00100",
        "00100",
        "00100",
        "00100",
        "01110"),
    2: ("01110",
        "10001",
        "00001",
        "00010",
        "00100",
        "01000",
        "11111"),
    3: ("11111",
        "00010",
        "00100",
        "00010",
        "00001",
        "10001",
        "01110"),
    4: ("00010",
        "00110",
        "01010",
        "10010",
        "11111",
        "00010",
        "00010"),
    5: ("11111",
        "10000",
        "11110",
        "00001",
        "00001",
        "10001",
        "01110"),
    6: ("00110",
        "01000",
        "10000",
        "11110",
        "10001",
        "10001",
        "01110"),
    7: ("11111",
        "00001",
        "00010",
        "00100",
        "01000",
        "01000",
        "01000"),
    8: ("01110",
        "10001",
        "10001",
        "01110",
        "10001",
        "10001",
        "01110"),
    9: ("01110",
        "10001",
        "10001",
        "01111",
        "00001",
        "00010",
        "01100"),
}

GLYPH_ROWS = 7
GLYPH_COLS = 5


def glyph(digit: int) -> np.ndarray:
    """The 7x5 binary bitmap for ``digit`` (0-9), as float64 {0,1}."""
    if digit not in _GLYPH_ART:
        raise ValueError(f"digit must be 0-9, got {digit}")
    rows = _GLYPH_ART[digit]
    return np.array([[float(c) for c in row] for row in rows])
