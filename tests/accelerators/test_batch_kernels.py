"""Every row of a kernel's batch equals its batch of one, byte for byte.

A run evaluates every kernel over all its frames in one call before
the timing model starts (``repro.soc.fill_memo``), and COMPUTE hands
out those rows as the kernel's results. That is exact only if row
``i`` of ``run_batch`` is ``run(frames[i])``, the batch of one, to the
bit (``tobytes`` also tells -0.0 from 0.0), for every batch size and
every input, including inputs the fixed-point cast saturates, negative
inputs and inputs below one LSB. The kernels are those of the paper's
SoCs and the tuner's ablation SoCs. Night-Vision's rows are also
checked against its per-frame oracle
(``tests/accelerators/nightvision.py``), over batch sizes that cross
its chunk size.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.accelerators import (classifier_spec, denoiser_spec,
                                night_vision_spec, partition_classifier)
from repro.accelerators.nightvision import CHUNK_FRAMES, HISTOGRAM_BINS
from repro.eval.apps import build_soc1
from repro.fixed import DEFAULT_FORMAT, FixedFormat
from repro.hls4ml_flow import HlsModel, build_layer
from repro.tune import ablation_workloads
from tests.accelerators.nightvision import night_vision_compute

LSB = DEFAULT_FORMAT.scale
LIMIT = DEFAULT_FORMAT.raw_max * DEFAULT_FORMAT.scale

KERNELS = {"classifier": classifier_spec(), "denoiser": denoiser_spec(),
           "night_vision": night_vision_spec()}
KERNELS.update((spec.name, spec) for spec in partition_classifier())
KERNELS.update((tile.spec.name, tile.spec)
               for workload in ablation_workloads()
               for tile in workload.build()[0].accelerators.values())
#: Per-frame oracles that rows must equal besides the spec's own ``run``.
ORACLES = {"night_vision": night_vision_compute}


def _frames(rng, n, words, regime):
    """``n`` frames of ``words`` values drawn from one input regime;
    ``mixed`` draws every value from a random one of the others."""
    bucket = rng.integers(0, HISTOGRAM_BINS)
    draws = {
        # Beyond the format's range on both sides: the input cast clamps.
        "saturating": lambda size: rng.choice([-1, 1], size)
        * rng.uniform(LIMIT, 8 * LIMIT, size),
        "negative": lambda size: -rng.uniform(0, LIMIT, size),
        # Both signs below one LSB, and signed zeros.
        "sub_lsb": lambda size: rng.choice([-1.0, 1.0], size)
        * rng.choice([0.0, 1.0], size) * rng.uniform(0, LSB, size),
        "in_range": lambda size: rng.uniform(-LIMIT, LIMIT, size),
        "negative_zero": lambda size: np.full(size, -0.0),
        # Every pixel in one Night-Vision histogram bucket.
        "one_bucket": lambda size: rng.uniform(
            bucket / HISTOGRAM_BINS, (bucket + 1) / HISTOGRAM_BINS, size),
    }
    if regime != "mixed":
        return draws[regime]((n, words))
    pick = rng.integers(0, len(draws), (n, words))
    out = np.empty((n, words))
    for index, draw in enumerate(draws.values()):
        out[pick == index] = draw(int((pick == index).sum()))
    return out


@pytest.mark.parametrize("name", sorted(KERNELS))
@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1),
       regime=st.sampled_from(
           ["saturating", "negative", "sub_lsb", "in_range", "mixed",
            "negative_zero", "one_bucket"]))
def test_batch_row_equals_single_frame(name, n, seed, regime):
    spec = KERNELS[name]
    frames = _frames(np.random.default_rng(seed), n, spec.input_words,
                     regime)
    batch = spec.run_batch(frames)
    assert batch.shape == (n, spec.output_words)
    for frame, row in zip(frames, batch):
        assert row.tobytes() == spec.run(frame).tobytes()
        if name in ORACLES:
            assert row.tobytes() == ORACLES[name](frame).tobytes()


@pytest.mark.parametrize("n", [1, CHUNK_FRAMES - 1, CHUNK_FRAMES,
                               CHUNK_FRAMES + 1, 4 * CHUNK_FRAMES + 3])
@pytest.mark.parametrize("regime", ["sub_lsb", "negative_zero",
                                    "one_bucket"])
def test_night_vision_rows_across_chunks(n, regime):
    """Chunk edges, and the single-bucket branch that returns the
    filtered pixels themselves (where -0.0 survives), on rows that mix
    it with stretched rows in one chunk."""
    rng = np.random.default_rng(n)
    frames = _frames(rng, n, KERNELS["night_vision"].input_words, regime)
    frames[::2] = rng.uniform(0.0, 1.0, frames[::2].shape)
    batch = KERNELS["night_vision"].run_batch(frames)
    for frame, row in zip(frames, batch):
        assert row.tobytes() == night_vision_compute(frame).tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_softmax_sums_each_row_as_a_single_frame(seed):
    """A float sum's rounding follows the memory layout, so the softmax
    must sum a batch row-major, as it sums a single frame. The 16-bit
    kernels above snap away a last-bit difference in the sum; a 53-bit
    format with 52 fraction bits keeps it. Inputs and weights sit on
    coarse grids, so the matrix product is exact and only the softmax
    can differ."""
    rng = np.random.default_rng(seed)
    layer = build_layer("softmax", rng.integers(-2, 3, (16, 12)) / 64,
                        np.zeros(12), "softmax", FixedFormat(53, 1), 1)
    model = HlsModel("fine-softmax", [layer], clock_mhz=78.0)
    frames = rng.integers(-64, 64, (64, 16)) / 128
    for frame, row in zip(frames, model.predict(frames)):
        assert row.tobytes() == model.predict(frame)[0].tobytes()


def test_specs_of_one_kernel_share_its_batch_form():
    """A kernel is known by its ``kernel`` object: a run keys the
    results it evaluates ahead by it. Two SoC-1 builds share each
    kernel's object, Night-Vision's included, and rows of the shared
    Night-Vision kernel equal the per-frame oracle."""
    first, second = build_soc1(), build_soc1()
    for name in ("nv0", "cl0", "de0"):
        assert first.accelerators[name].spec.kernel == \
            second.accelerators[name].spec.kernel
    nv = [soc.accelerators["nv0"].spec for soc in (first, second)]
    assert nv[0].kernel is nv[1].kernel
    assert night_vision_spec(FixedFormat(16, 4)).kernel \
        is not nv[0].kernel
    frames = np.random.default_rng(5).uniform(0.0, 1.0, (3, 1024))
    for frame, row in zip(frames, nv[1].run_batch(frames)):
        assert row.tobytes() == night_vision_compute(frame).tobytes()
        assert row.tobytes() == nv[0].run(frame).tobytes()


def test_run_batch_checks_geometry():
    spec = KERNELS["classifier"]
    with pytest.raises(ValueError, match="input frames"):
        spec.run_batch(np.zeros((2, 16)))
