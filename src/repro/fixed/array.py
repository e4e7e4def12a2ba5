"""Bit-accurate fixed-point array arithmetic.

The HLS4ML-generated firmware computes layers in fixed point; this
module provides the activation functions evaluated on quantized values
and the flit count of a packed word transfer over the 64-bit NoC flits
of the ESP platform.
"""

from __future__ import annotations

from functools import lru_cache
import numpy as np

from .format import FixedFormat


def quantize(values: np.ndarray, fmt: FixedFormat) -> np.ndarray:
    """Quantize an array to ``fmt`` (returns float64 values on the grid)."""
    return fmt.quantize(values)


@lru_cache(maxsize=None)
def _sigmoid_table(fmt: FixedFormat, table_bits: int,
                   table_range: float) -> np.ndarray:
    """The quantized sigmoid LUT for one (format, geometry) pair.

    In hardware the table is a ROM synthesized once; rebuilding it per
    call (1k-entry linspace + exp + quantize) dominated the denoiser's
    simulation cost. ``FixedFormat`` is a frozen dataclass, so it keys
    an ``lru_cache`` directly; the cached array is returned read-only
    so a caller cannot corrupt the shared ROM.
    """
    size = 1 << table_bits
    centers = np.linspace(-table_range, table_range, size, endpoint=False)
    table = fmt.quantize(1.0 / (1.0 + np.exp(-centers)))
    table.setflags(write=False)
    return table


def fixed_sigmoid(x: np.ndarray, fmt: FixedFormat,
                  table_bits: int = 10, table_range: float = 8.0) -> np.ndarray:
    """Sigmoid via lookup table, as HLS4ML implements it in hardware.

    The table has ``2**table_bits`` entries spanning
    ``[-table_range, table_range)``; inputs outside the range clamp to
    the table ends. The output is cast to ``fmt``.
    """
    size = 1 << table_bits
    table = _sigmoid_table(fmt, table_bits, table_range)
    idx = np.floor((np.asarray(x) + table_range) / (2 * table_range) * size)
    idx = np.clip(idx, 0, size - 1).astype(np.int64)
    return table[idx]


def fixed_softmax(x: np.ndarray, fmt: FixedFormat) -> np.ndarray:
    """Softmax cast to ``fmt``.

    HLS4ML offers LUT-based softmax; for classification only the argmax
    matters, which quantized softmax preserves as long as the format
    resolves the logit gaps. We compute in float then cast, which is the
    same monotone mapping.
    """
    x = np.asarray(x, dtype=np.float64)
    expx = np.exp(x - x.max(axis=-1, keepdims=True))
    expx /= expx.sum(axis=-1, keepdims=True)
    return fmt.snap(expx, out=expx)


def words_to_flits(num_words: int, word_bits: int, flit_bits: int) -> int:
    """Number of flits needed to carry ``num_words`` packed words."""
    per_flit = flit_bits // word_bits
    if per_flit < 1:
        raise ValueError(
            f"word width {word_bits} exceeds flit width {flit_bits}")
    return (num_words + per_flit - 1) // per_flit
