"""The Night-Vision kernels stage by stage: the references the fused
``night_vision_compute`` equals."""

import numpy as np

from repro.accelerators.nightvision import (
    HISTOGRAM_BINS,
    _bin_index,
    _equalize,
)
from repro.fixed import DEFAULT_FORMAT, FixedFormat


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
