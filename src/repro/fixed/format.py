"""Fixed-point number formats in the style of Vivado HLS ``ap_fixed<W,I>``.

HLS4ML implements neural-network inference with fixed-point arithmetic;
the precision (e.g. ``ap_fixed<16,6>``) is part of the accelerator
configuration. This module provides bit-accurate quantization and the
value-range bookkeeping needed by the HLS resource estimator.

Conventions follow Vivado HLS: ``width`` is the total number of bits,
``integer_bits`` counts the bits left of the binary point *including*
the sign bit for signed formats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class FixedFormat:
    """An ``ap_fixed``-style format: Q(integer_bits).(fraction_bits).

    Quantization truncates (``AP_TRN``) and saturates (``AP_SAT``).

    Attributes:
        width: total bit width W.
        integer_bits: bits left of the binary point I (sign included).
        signed: two's-complement when True, unsigned otherwise.
    """

    width: int
    integer_bits: int
    signed: bool = True

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        if self.width > 64:
            raise ValueError(f"width must be <= 64, got {self.width}")
        if self.integer_bits > self.width:
            raise ValueError(
                f"integer_bits ({self.integer_bits}) exceeds width "
                f"({self.width})")
        if self.signed and self.integer_bits < 1:
            raise ValueError("signed formats need integer_bits >= 1 "
                             "for the sign bit")
        # Quantization constants, precomputed once: to_raw/from_raw are
        # the hottest functions of the whole simulation (every frame of
        # every accelerator kernel round-trips through them), so the
        # per-call property arithmetic and the int->ndarray scalar
        # conversions are hoisted here. object.__setattr__ because the
        # dataclass is frozen.
        fraction = self.width - self.integer_bits
        raw_min = -(1 << (self.width - 1)) if self.signed else 0
        raw_max = (1 << (self.width - 1 if self.signed else self.width)) - 1
        #: Value of one least-significant bit.
        object.__setattr__(self, "scale", 2.0 ** (-fraction))
        # Exact reciprocal: both are powers of two, so multiplying by
        # 2**fraction is bit-identical to dividing by 2**-fraction.
        object.__setattr__(self, "_inv_scale", 2.0 ** fraction)
        object.__setattr__(self, "_raw_min", raw_min)
        object.__setattr__(self, "_raw_max", raw_max)
        try:
            # ap_ufixed<64,...> has raw_max above int64; those formats
            # keep the generic np.clip path (as before this cache).
            object.__setattr__(self, "_raw_min_i64", np.int64(raw_min))
            object.__setattr__(self, "_raw_max_i64", np.int64(raw_max))
        except OverflowError:
            object.__setattr__(self, "_raw_min_i64", None)
            object.__setattr__(self, "_raw_max_i64", None)
        # Formats whose grid snap runs entirely in float64 (see snap).
        object.__setattr__(self, "_float_snap", self.width <= 53)

    @property
    def raw_min(self) -> int:
        return self._raw_min

    @property
    def raw_max(self) -> int:
        return self._raw_max

    def to_raw(self, values: np.ndarray) -> np.ndarray:
        """Quantize real values to integer raw codes (int64).

        Hot path: ``scaled`` is always a fresh array (the multiply
        allocates), so the rounding and saturation steps work in place,
        and the bounds are pre-converted ``np.int64`` scalars. The
        arithmetic is bit-identical to the straightforward
        divide/floor/clip formulation (multiplying by the exact
        power-of-two reciprocal only adjusts the float exponent) —
        pinned by ``tests/sim/test_fastpath_equivalence.py`` against a
        reference implementation.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == 0 or self._raw_min_i64 is None:
            # Scalar (numpy hands back 0-d scalars that reject out=)
            # or ufixed<64>: the straightforward formulation.
            raw = np.floor(values * self._inv_scale).astype(np.int64)
            return np.clip(raw, self.raw_min, self.raw_max)
        scaled = values * self._inv_scale
        np.floor(scaled, out=scaled)
        raw = scaled.astype(np.int64)
        np.maximum(raw, self._raw_min_i64, out=raw)
        np.minimum(raw, self._raw_max_i64, out=raw)
        return raw

    def from_raw(self, raw: np.ndarray) -> np.ndarray:
        """Convert integer raw codes back to real values."""
        out = np.asarray(raw)
        if out.ndim == 0:
            return np.asarray(raw, dtype=np.float64) * self.scale
        out = out.astype(np.float64)
        out *= self.scale
        return out

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Round-trip real values through this format.

        Arrays go through :meth:`snap`; 0-d scalars take the int64
        round-trip ``from_raw(to_raw(...))``.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == 0:
            return self.from_raw(self.to_raw(values))
        return self.snap(values)

    def snap(self, values: np.ndarray, lower: Optional[float] = None,
             out: Optional[np.ndarray] = None) -> np.ndarray:
        """Quantize a float64 array, optionally clamped below at ``lower``.

        ``snap(a) == quantize(a)`` bit for bit, and
        ``snap(a, lower=0.0) == quantize(max(quantize(a), 0))``: ``lower``
        must be on the grid, and quantize is monotone and keeps on-grid
        values, so clamping the raw code at ``lower`` equals clamping
        the quantized value. With ``out`` (``values`` itself, for a
        freshly computed accumulator) the float path writes no new
        array. The result is returned either way.

        Formats up to 53 bits snap entirely in float64; wider formats
        take the int64 round-trip ``from_raw(to_raw(...))``. The float
        path is bit-identical to it: ``floor`` produces exact integral
        floats, the raw bounds are exactly representable
        (|raw| < 2**53), and the final multiply by the power-of-two
        ``scale`` is the same operation ``from_raw`` performs — two
        array conversions per call saved.
        This is the hottest numpy entry point of the whole simulation
        (every layer of every frame passes through it).
        """
        if not self._float_snap:
            result = self.from_raw(self.to_raw(values))
            if lower is not None:
                np.maximum(result, lower, out=result)
            if out is None:
                return result
            out[...] = result
            return out
        lo = float(self._raw_min)
        if lower is not None:
            lo = max(lo, lower * self._inv_scale)
        scaled = np.multiply(values, self._inv_scale, out=out)
        np.floor(scaled, out=scaled)
        np.maximum(scaled, lo, out=scaled)
        np.minimum(scaled, float(self._raw_max), out=scaled)
        scaled *= self.scale
        return scaled

    def __str__(self) -> str:
        kind = "ap_fixed" if self.signed else "ap_ufixed"
        return f"{kind}<{self.width},{self.integer_bits}>"

    @classmethod
    def parse(cls, spec: str) -> "FixedFormat":
        """Parse ``"ap_fixed<16,6>"`` / ``"ap_ufixed<8,1>"`` strings."""
        spec = spec.strip()
        for prefix, signed in (("ap_fixed", True), ("ap_ufixed", False)):
            if spec.startswith(prefix + "<") and spec.endswith(">"):
                body = spec[len(prefix) + 1:-1]
                parts = [p.strip() for p in body.split(",")]
                if len(parts) != 2:
                    break
                return cls(width=int(parts[0]), integer_bits=int(parts[1]),
                           signed=signed)
        raise ValueError(f"cannot parse fixed-point spec {spec!r}")


#: The precision used throughout the paper's accelerators ("16-bits
#: fixed-point", Sec. III).
DEFAULT_FORMAT = FixedFormat(width=16, integer_bits=6)

#: Unsigned 8-bit pixels, as stored in the SVHN frame buffers.
PIXEL_FORMAT = FixedFormat(width=8, integer_bits=8, signed=False)
