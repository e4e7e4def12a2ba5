"""The Night-Vision accelerator (noise filter + histogram + equalization).

Paper Sec. VI: "one application outside the ML domain, which is a night
computer vision application consisting of three kernels: noise
filtering, histogram, and histogram equalization", used as a
pre-processing step in front of the MLP classifier on darkened SVHN
frames. The paper designed these kernels in SystemC and synthesized
them with Cadence Stratus HLS; here the same kernels are one fused
NumPy batch function (:func:`night_vision_batch`, which the tile also
runs on a single frame) with Stratus-style pipelined-loop schedules.
The per-frame kernels it equals row by row are the tests' oracle
(``tests/accelerators/nightvision.py``).
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Callable

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


#: Edge-replicated frame geometry: a 34-wide halo row.
_HALO = FRAME_SIDE + 2
#: Flat gather from a frame's pixels to its edge-replicated 34x34 halo.
_EDGE = np.concatenate(([0], np.arange(FRAME_SIDE), [FRAME_SIDE - 1]))
_HALO_GATHER = (_EDGE[:, None] * FRAME_SIDE + _EDGE).reshape(-1)
#: Frames per step of :func:`night_vision_batch`: a chunk's float64
#: temporaries (8 x 1156 words, 74 KB) stay in L2 and under glibc's
#: default 128 KiB mmap threshold, so no step maps fresh pages. Chunks
#: of 4, 16 and 32 frames measured slower.
CHUNK_FRAMES = 8


def _median_chunk(frames: np.ndarray) -> np.ndarray:
    """3x3 median with edge replication of each ``(c, 1024)`` row.

    The median is a min/max sorting network over the chunk's
    edge-replicated halos, laid end to end and walked flat so that
    every step is one contiguous numpy call: each vertical triple is
    sorted once (3 compare-exchanges, shared by the three windows that
    contain it), and a window's median is
    ``med3(max(lows), med3(mids), min(highs))`` over its three columns.
    Windows that straddle a halo row end or a frame end are computed
    and dropped. Min/max only select input values, and by the 0-1
    principle this network yields exactly the 5th order statistic of
    9 (``tests/accelerators/test_nightvision.py`` checks all 512 0/1
    windows against an ``np.partition`` formulation).
    """
    count = len(frames)
    halo = np.take(frames, _HALO_GATHER, axis=1).reshape(-1)
    top, centre = halo[:-2 * _HALO], halo[_HALO:-_HALO]
    bottom = halo[2 * _HALO:]
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
    out = np.empty(count * _HALO * _HALO)
    median = out[:len(lows)]
    np.maximum(lows, mids, out=median)
    np.minimum(median, highs, out=median)
    np.minimum(lows, mids, out=lows)
    np.maximum(lows, median, out=median)
    return out.reshape(count, _HALO, _HALO)[:, :FRAME_SIDE, :FRAME_SIDE]


def _night_vision_chunk(frames: np.ndarray, fmt: FixedFormat,
                        out: np.ndarray) -> None:
    """The three kernels on ``(c, 1024)`` frames, written to ``out``."""
    count = len(frames)
    filtered = fmt.quantize(_median_chunk(frames)).reshape(count, -1)
    # Histogram bucket of every pixel, offset by 64 per row, so that
    # one bincount is every row's histogram and one flat take is every
    # row's gather from its own CDF map.
    idx = (filtered * HISTOGRAM_BINS).astype(np.int64)
    np.clip(idx, 0, HISTOGRAM_BINS - 1, out=idx)
    idx += np.arange(0, count * HISTOGRAM_BINS, HISTOGRAM_BINS)[:, None]
    hist = np.bincount(idx.reshape(-1), minlength=count * HISTOGRAM_BINS)
    cdf = hist.reshape(count, HISTOGRAM_BINS).cumsum(axis=1,
                                                     dtype=np.float64)
    cdf_min = cdf[np.arange(count), np.argmax(cdf > 0, axis=1)]
    total = cdf[:, -1]
    # A row whose pixels share one bucket has no range to stretch: it
    # is its filtered pixels, re-quantized.
    single = total <= cdf_min
    span = np.where(single, 1.0, total - cdf_min)
    mapping = (cdf - cdf_min[:, None]) / span[:, None]
    np.clip(mapping, 0.0, 1.0, out=mapping)
    # The map (one entry per bin) is quantized before the gather rather
    # than the gathered pixels: quantize is elementwise, so it commutes
    # with the gather. ``idx`` is in range by construction, so
    # ``mode="clip"`` moves no index; it only skips the bounds check.
    np.take(fmt.quantize(mapping), idx, out=out, mode="clip")
    if single.any():
        out[single] = fmt.quantize(filtered[single])


def night_vision_batch(frames: np.ndarray,
                       fmt: FixedFormat = DEFAULT_FORMAT) -> np.ndarray:
    """The fused three-kernel pipeline of the Night-Vision tile over an
    ``(n, 1024)`` batch: the 3x3 median filter, the 64-bin histogram
    of the filtered frame and its CDF remapping, each pixel's bucket
    computed once for both.

    Every row sees exactly the float64 operations of one frame run
    alone: min/max, the quantize and the bucket index are elementwise,
    histogram counts and their prefix sums are integers (exact in
    float64), and each row's CDF map is divided by its own span. So
    row ``i`` equals the kernel on frame ``i`` byte for byte, -0.0
    included: where a min/max compares -0.0 with 0.0, it does so with
    the operands in the same order as for the frame alone. The batch
    runs :data:`CHUNK_FRAMES` frames at a time; a single frame is a
    batch of one. Pixels are finite; NaN is out of domain.
    """
    frames = np.asarray(frames, dtype=np.float64)
    out = np.empty(frames.shape)
    for start in range(0, len(frames), CHUNK_FRAMES):
        stop = start + CHUNK_FRAMES
        _night_vision_chunk(frames[start:stop], fmt, out[start:stop])
    return out


@lru_cache(maxsize=None)
def _night_vision_kernel(fmt: FixedFormat
                         ) -> Callable[[np.ndarray], np.ndarray]:
    """The batch kernel for ``fmt``: one object per format, shared by
    every spec built for it, as the HLS4ML specs share their model's
    ``predict``. A kernel is known by this object, so results
    evaluated for one spec are valid on every tile that runs it."""
    return partial(night_vision_batch, fmt=fmt)


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
        kernel=_night_vision_kernel(fmt),
        latency_cycles=schedule.latency,
        interval_cycles=schedule.interval,
        resources=schedule.resources,
        word_bits=fmt.width,
        design_flow="stratus",
    )
