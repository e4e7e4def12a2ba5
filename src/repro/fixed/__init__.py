"""Fixed-point arithmetic (``ap_fixed`` emulation) for HLS accelerators."""

from .format import (
    DEFAULT_FORMAT,
    PIXEL_FORMAT,
    FixedFormat,
)
from .array import (
    fixed_sigmoid,
    fixed_softmax,
    quantize,
    words_to_flits,
)

__all__ = [
    "DEFAULT_FORMAT",
    "PIXEL_FORMAT",
    "FixedFormat",
    "fixed_sigmoid",
    "fixed_softmax",
    "quantize",
    "words_to_flits",
]
