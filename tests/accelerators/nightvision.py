"""The Night-Vision kernels frame by frame: the oracle that
``repro.accelerators.nightvision.night_vision_batch`` equals row by row,
and the stages as separate kernels."""

import numpy as np

from repro.accelerators.nightvision import HISTOGRAM_BINS
from repro.datasets import FRAME_SIDE
from repro.fixed import DEFAULT_FORMAT, FixedFormat


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
    dropped: the same network as the batch kernel's, one frame at a
    time.
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
    once and shared by both stages.
    """
    filtered = noise_filter_kernel(frame, fmt)
    idx = _bin_index(filtered, HISTOGRAM_BINS)
    hist = np.bincount(idx, minlength=HISTOGRAM_BINS).astype(np.float64)
    return _equalize(filtered, idx, hist, fmt)


def histogram_kernel(frame: np.ndarray,
                     bins: int = HISTOGRAM_BINS) -> np.ndarray:
    """Intensity histogram over [0, 1] with ``bins`` buckets."""
    frame = np.asarray(frame, dtype=np.float64).reshape(-1)
    return np.bincount(_bin_index(frame, bins),
                       minlength=bins).astype(np.float64)


def histogram_equalization_kernel(frame: np.ndarray, hist: np.ndarray,
                                  fmt: FixedFormat = DEFAULT_FORMAT
                                  ) -> np.ndarray:
    """Classic CDF remapping: stretch the (dark) dynamic range."""
    frame = np.asarray(frame, dtype=np.float64).reshape(-1)
    hist = np.asarray(hist, dtype=np.float64)
    return _equalize(frame, _bin_index(frame, len(hist)), hist, fmt)
