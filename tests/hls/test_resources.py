"""Tests for the FPGA resource models."""

import pytest

from repro.hls import (
    BRAM_BITS,
    FpgaDevice,
    ResourceEstimate,
    XCVU9P,
    XCZU9EG,
    control_overhead,
    memory_brams,
    multiplier_resources,
)


class TestResourceEstimate:
    def test_addition(self):
        a = ResourceEstimate(luts=10, ffs=20, brams=1, dsps=2)
        b = ResourceEstimate(luts=5, ffs=5, brams=1, dsps=1)
        total = a + b
        assert total == ResourceEstimate(luts=15, ffs=25, brams=2, dsps=3)

    def test_scaled(self):
        a = ResourceEstimate(luts=100, ffs=100, brams=10, dsps=10)
        half = a.scaled(0.5)
        assert half.luts == 50 and half.brams == 5

    def test_as_dict_keys(self):
        assert set(ResourceEstimate().as_dict()) == {"luts", "ffs",
                                                     "brams", "dsps"}


class TestDevice:
    def test_utilization_fractions(self):
        usage = ResourceEstimate(luts=XCVU9P.luts // 2, ffs=0, brams=0,
                                 dsps=0)
        assert XCVU9P.utilization(usage)["luts"] == pytest.approx(0.5)

    def test_fits(self):
        small = XCVU9P.utilization(ResourceEstimate(luts=100))
        huge = XCZU9EG.utilization(ResourceEstimate(luts=10**7))
        assert max(small.values()) <= 1.0
        assert max(huge.values()) > 1.0

    def test_vu9p_is_larger_than_zu9eg(self):
        assert XCVU9P.luts > XCZU9EG.luts
        assert XCVU9P.brams > XCZU9EG.brams


class TestMemoryBrams:
    def test_small_memory_one_block(self):
        assert memory_brams(16, 16) == 1

    def test_exact_block(self):
        words = BRAM_BITS // 16
        assert memory_brams(words, 16) == 1
        assert memory_brams(words + 1, 16) == 2

    def test_partitioning_inflates(self):
        words = BRAM_BITS // 16   # exactly one block unpartitioned
        assert memory_brams(words, 16, partitions=8) == 8

    def test_zero_words(self):
        assert memory_brams(0, 16) == 0

    def test_invalid_partitions(self):
        with pytest.raises(ValueError):
            memory_brams(16, 16, partitions=0)

    def test_classifier_layer1_footprint(self):
        # 1024x256 16-bit weights = 4 Mb ~ 114 blocks minimum.
        assert memory_brams(1024 * 256, 16) == 114


class TestMultipliers:
    def test_narrow_width_one_dsp_each(self):
        assert multiplier_resources(10, width=16).dsps == 10

    def test_wide_width_two_dsps_each(self):
        assert multiplier_resources(10, width=24).dsps == 20

    def test_zero_multipliers(self):
        r = multiplier_resources(0, width=16)
        assert r.dsps == 0 and r.luts == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            multiplier_resources(-1, 16)


def test_control_overhead_scales_with_loops():
    assert control_overhead(2).luts == 2 * control_overhead(1).luts
