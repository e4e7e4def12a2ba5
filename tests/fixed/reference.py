"""The layer-by-layer fixed-point reference the HLS kernels are
compared against: a dense layer and ReLU, each snapped on every call,
and the accumulator format HLS infers for a dense layer's MAC."""

import numpy as np

from repro.fixed import FixedFormat


def fixed_matvec(weights: np.ndarray, x: np.ndarray, bias: np.ndarray,
                 in_fmt: FixedFormat, weight_fmt: FixedFormat,
                 out_fmt: FixedFormat) -> np.ndarray:
    """Dense layer in fixed point: ``out = cast(W @ x + b)``.

    Inputs and weights are first snapped to their formats; the
    accumulation happens in full precision (as HLS does with a wide
    accumulator) and only the final result is cast to ``out_fmt``.
    """
    xq = in_fmt.quantize(x)
    wq = weight_fmt.quantize(weights)
    bq = weight_fmt.quantize(bias)
    acc = wq @ xq
    # x may be a single vector (n_in,) or a batch (n_in, batch).
    acc += bq[:, None] if acc.ndim == 2 else bq
    return out_fmt.quantize(acc)


def fixed_relu(x: np.ndarray, fmt: FixedFormat) -> np.ndarray:
    """ReLU on quantized values (exact in fixed point)."""
    return fmt.quantize(np.maximum(x, 0.0))


def mac_result_format(a: FixedFormat, b: FixedFormat,
                      terms: int) -> FixedFormat:
    """Format of a full-precision multiply-accumulate of ``terms`` products.

    Mirrors what HLS infers for ``acc += w * x`` reduction trees before
    the final cast back to the layer output precision: the product needs
    ``Wa+Wb`` bits and the accumulation adds ``ceil(log2(terms))`` guard
    bits on the integer side.
    """
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    guard = int(np.ceil(np.log2(terms))) if terms > 1 else 0
    width = min(64, a.width + b.width + guard)
    integer = min(width, a.integer_bits + b.integer_bits + guard)
    return FixedFormat(width=width, integer_bits=integer,
                       signed=a.signed or b.signed)
