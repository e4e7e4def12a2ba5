"""The Night-Vision accelerator (noise filter + histogram + equalization).

Paper Sec. VI: "one application outside the ML domain, which is a night
computer vision application consisting of three kernels: noise
filtering, histogram, and histogram equalization", used as a
pre-processing step in front of the MLP classifier on darkened SVHN
frames. The paper designed these kernels in SystemC and synthesized
them with Cadence Stratus HLS; here the same kernels are NumPy
functions with Stratus-style pipelined-loop schedules.
"""

from __future__ import annotations

import numpy as np

from ..datasets.transforms import FRAME_PIXELS, FRAME_SIDE
from ..fixed import DEFAULT_FORMAT, FixedFormat
from ..hls import (
    ResourceEstimate,
    pipelined_loop_schedule,
    sequential_schedule,
)
from .base import AcceleratorSpec

#: Histogram bins used by the hardware (64 bins over [0, 1]).
HISTOGRAM_BINS = 64


#: Edge-replicated frame geometry: a 34-wide halo row, and the flat
#: length of the 32 rows the median network slides over.
_HALO = FRAME_SIDE + 2
_SPAN = FRAME_SIDE * _HALO
#: Row/column gather that builds the edge-replicated 34x34 halo.
_EDGE = np.concatenate(([0], np.arange(FRAME_SIDE), [FRAME_SIDE - 1]))


def noise_filter_kernel(frame: np.ndarray,
                        fmt: FixedFormat = DEFAULT_FORMAT) -> np.ndarray:
    """3x3 median filter with edge replication (salt-and-pepper removal).

    The median is a min/max sorting network over the edge-replicated
    halo, walked flat so that every step is one contiguous numpy call:
    each vertical triple is sorted once (3 compare-exchanges, shared by
    the three windows that contain it), and a window's median is
    ``med3(max(lows), med3(mids), min(highs))`` over its three
    columns. Windows that straddle a halo row end are computed and
    dropped. Min/max only select input values, and by the 0-1
    principle this network yields exactly the 5th order statistic of
    9 (``tests/accelerators/test_nightvision.py`` checks all 512 0/1
    windows against the former ``np.partition`` formulation). Pixels
    are finite; NaN and ties between -0.0 and 0.0 are out of domain.
    """
    img = np.asarray(frame, dtype=np.float64).reshape(FRAME_SIDE, FRAME_SIDE)
    halo = img[_EDGE[:, None], _EDGE].reshape(-1)
    top, centre, bottom = halo[:_SPAN], halo[_HALO:-_HALO], halo[2 * _HALO:]
    low = np.minimum(top, centre)
    high = np.maximum(top, centre)
    swap = np.minimum(high, bottom)
    np.maximum(high, bottom, out=high)
    mid = np.maximum(low, swap)
    np.minimum(low, swap, out=low)
    # Across each window's three columns: the largest low, the
    # smallest high and the median of the mids, then med3 of those.
    lows = np.maximum(low[:-2], low[1:-1])
    np.maximum(lows, low[2:], out=lows)
    highs = np.minimum(high[:-2], high[1:-1])
    np.minimum(highs, high[2:], out=highs)
    left, centre_mid, right = mid[:-2], mid[1:-1], mid[2:]
    mids = np.maximum(left, centre_mid)
    np.minimum(mids, right, out=mids)
    np.maximum(mids, np.minimum(left, centre_mid), out=mids)
    # med3(a, b, c) == max(min(a, b), min(max(a, b), c)).
    out = np.empty(_SPAN)
    median = out[:-2]
    np.maximum(lows, mids, out=median)
    np.minimum(median, highs, out=median)
    np.minimum(lows, mids, out=lows)
    np.maximum(lows, median, out=median)
    return fmt.quantize(out.reshape(FRAME_SIDE, _HALO)[:, :FRAME_SIDE]
                        ).reshape(-1)


def _bin_index(frame: np.ndarray, bins: int) -> np.ndarray:
    """Histogram bucket of every pixel of a flat float64 frame."""
    idx = (frame * bins).astype(np.int64)
    np.clip(idx, 0, bins - 1, out=idx)
    return idx


def _equalize(frame: np.ndarray, idx: np.ndarray, hist: np.ndarray,
              fmt: FixedFormat) -> np.ndarray:
    """Remap a flat frame, whose pixels fall in buckets ``idx``, through
    the CDF of ``hist``.

    The map (one entry per bin) is quantized before the gather rather
    than the gathered pixels: quantize is elementwise, so it commutes
    with the gather.
    """
    cdf = np.cumsum(hist)
    nonzero = cdf[cdf > 0]
    cdf_min = nonzero[0] if len(nonzero) else 0.0
    total = cdf[-1]
    if total <= cdf_min:
        return fmt.quantize(frame)
    mapping = (cdf - cdf_min) / (total - cdf_min)
    mapping = np.clip(mapping, 0.0, 1.0)
    return fmt.quantize(mapping)[idx]


def night_vision_compute(frame: np.ndarray,
                         fmt: FixedFormat = DEFAULT_FORMAT) -> np.ndarray:
    """The fused three-kernel pipeline of the Night-Vision tile.

    The histogram of ``f = noise_filter_kernel(frame)``, then its CDF
    remapping of ``f``; the bucket index of each pixel is computed
    once and shared by both stages (``tests/accelerators/nightvision.py``
    holds the two stages as separate kernels).
    """
    filtered = noise_filter_kernel(frame, fmt)
    idx = _bin_index(filtered, HISTOGRAM_BINS)
    hist = np.bincount(idx, minlength=HISTOGRAM_BINS).astype(np.float64)
    return _equalize(filtered, idx, hist, fmt)


def night_vision_spec(fmt: FixedFormat = DEFAULT_FORMAT) -> AcceleratorSpec:
    """Synthesize the Night-Vision accelerator (Stratus-flow stand-in).

    The three kernels run back to back on each frame inside the tile.
    Their initiation intervals reflect the classic HLS limits of each
    loop: the 3x3 median uses an area-efficient compare network fed
    over a 16-bit datapath (II=3); the histogram loop carries a
    read-modify-write dependence on the bin memory (II=2); the
    equalization pass shares an iterative divider for the CDF
    normalization (II=3). This makes Night-Vision the slowest stage of
    the NV+Cl pipeline — which is why the paper's evaluation replicates
    it (Sec. V: "multiple instances of the slower accelerator can be
    activated to feed a single accelerator downstream").
    """
    window_cost = ResourceEstimate(luts=9_500, ffs=8_800, brams=6)
    filter_stage = pipelined_loop_schedule(FRAME_PIXELS, interval=3, depth=12,
                                           body_resources=window_cost)
    hist_cost = ResourceEstimate(luts=2_500, ffs=2_400, brams=2)
    hist_stage = pipelined_loop_schedule(FRAME_PIXELS, interval=2, depth=4,
                                         body_resources=hist_cost)
    # CDF scan over the bins, then the remapping pass over the pixels.
    eq_cost = ResourceEstimate(luts=5_000, ffs=4_200, brams=4)
    cdf_stage = pipelined_loop_schedule(HISTOGRAM_BINS, interval=1, depth=4)
    remap_stage = pipelined_loop_schedule(FRAME_PIXELS, interval=3, depth=6,
                                          body_resources=eq_cost)
    schedule = sequential_schedule(filter_stage, hist_stage, cdf_stage,
                                   remap_stage)
    return AcceleratorSpec(
        name="night_vision",
        input_words=FRAME_PIXELS,
        output_words=FRAME_PIXELS,
        compute=lambda frame: night_vision_compute(frame, fmt),
        latency_cycles=schedule.latency,
        interval_cycles=schedule.interval,
        resources=schedule.resources,
        word_bits=fmt.width,
        design_flow="stratus",
    )
