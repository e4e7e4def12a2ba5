"""Tests for fixed-point formats (ap_fixed emulation)."""

import numpy as np
import pytest

from repro.fixed import (DEFAULT_FORMAT, FixedFormat, fixed_relu,
                         mac_result_format)


class TestConstruction:
    def test_default_paper_format(self):
        assert DEFAULT_FORMAT.width == 16
        assert DEFAULT_FORMAT.integer_bits == 6
        assert DEFAULT_FORMAT.fraction_bits == 10

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            FixedFormat(width=0, integer_bits=0)
        with pytest.raises(ValueError):
            FixedFormat(width=65, integer_bits=6)

    def test_integer_bits_exceeding_width(self):
        with pytest.raises(ValueError):
            FixedFormat(width=8, integer_bits=9)

    def test_signed_needs_sign_bit(self):
        with pytest.raises(ValueError):
            FixedFormat(width=8, integer_bits=0, signed=True)
        FixedFormat(width=8, integer_bits=0, signed=False)  # ok

    def test_invalid_rounding_overflow(self):
        with pytest.raises(ValueError):
            FixedFormat(width=8, integer_bits=4, rounding="banker")
        with pytest.raises(ValueError):
            FixedFormat(width=8, integer_bits=4, overflow="ignore")


class TestRanges:
    def test_signed_range(self):
        fmt = FixedFormat(width=16, integer_bits=6)
        assert fmt.max_value == pytest.approx(32.0 - fmt.scale)
        assert fmt.min_value == pytest.approx(-32.0)

    def test_unsigned_range(self):
        fmt = FixedFormat(width=8, integer_bits=8, signed=False)
        assert fmt.min_value == 0.0
        assert fmt.max_value == 255.0
        assert fmt.scale == 1.0

    def test_resolution(self):
        fmt = FixedFormat(width=16, integer_bits=6)
        assert fmt.resolution == 2.0 ** -10


class TestQuantize:
    def test_exact_values_pass_through(self):
        fmt = FixedFormat(width=16, integer_bits=6)
        values = np.array([0.0, 1.0, -1.5, 0.25, 31.0])
        np.testing.assert_array_equal(fmt.quantize(values), values)

    def test_truncation_rounds_toward_negative_infinity(self):
        fmt = FixedFormat(width=16, integer_bits=6, rounding="truncate")
        scale = fmt.scale
        assert fmt.quantize(0.4 * scale) == 0.0
        assert fmt.quantize(-0.4 * scale) == -scale

    def test_nearest_rounding(self):
        fmt = FixedFormat(width=16, integer_bits=6, rounding="nearest")
        scale = fmt.scale
        assert fmt.quantize(0.6 * scale) == scale
        assert fmt.quantize(0.4 * scale) == 0.0

    def test_saturation(self):
        fmt = FixedFormat(width=8, integer_bits=4)  # range [-8, 8)
        assert fmt.quantize(100.0) == fmt.max_value
        assert fmt.quantize(-100.0) == fmt.min_value

    def test_wrap_overflow(self):
        fmt = FixedFormat(width=8, integer_bits=8, signed=False,
                          overflow="wrap")
        assert fmt.quantize(256.0) == 0.0
        assert fmt.quantize(257.0) == 1.0

    def test_quantize_idempotent(self):
        fmt = FixedFormat(width=12, integer_bits=4)
        values = np.linspace(-10, 10, 101)
        once = fmt.quantize(values)
        np.testing.assert_array_equal(fmt.quantize(once), once)

    def test_quantization_error_bounded_by_lsb(self):
        fmt = FixedFormat(width=16, integer_bits=6)
        values = np.random.default_rng(0).uniform(-30, 30, 1000)
        err = np.abs(fmt.quantize(values) - values)
        assert np.all(err <= fmt.scale)

    def test_raw_roundtrip(self):
        fmt = FixedFormat(width=16, integer_bits=6)
        values = fmt.quantize(np.array([0.5, -3.25, 7.0]))
        raw = fmt.to_raw(values)
        np.testing.assert_array_equal(fmt.from_raw(raw), values)

    def test_rms_error_zero_for_representable(self):
        fmt = FixedFormat(width=16, integer_bits=6)
        assert fmt.quantization_error(np.array([1.0, 2.5])) == 0.0


SNAP_FORMATS = [
    FixedFormat(16, 6),
    FixedFormat(12, 4, rounding="nearest"),
    FixedFormat(8, 8, signed=False),
    FixedFormat(10, 3, overflow="wrap"),
    FixedFormat(60, 20),
    FixedFormat(56, 10, signed=False),
]


class TestSnap:
    """``snap`` is quantize, and its lower clamp at 0 is a ReLU of the
    quantized value, bit for bit (``tobytes`` tells -0.0 from 0.0)."""

    @pytest.mark.parametrize(
        "fmt", SNAP_FORMATS,
        ids=lambda f: f"{f}-{f.rounding}-{f.overflow}")
    def test_matches_quantize_and_relu(self, fmt, rng):
        edges = [0.0, -0.0, 1e-12, -1e-12, fmt.scale / 2, -fmt.scale / 2,
                 3 * fmt.max_value, 3 * fmt.min_value - 1]
        values = np.concatenate([
            rng.uniform(2 * fmt.min_value - 1, 2 * fmt.max_value, 500),
            edges])
        quantized = fmt.quantize(values)
        relu = fixed_relu(quantized, fmt)
        assert fmt.snap(values).tobytes() == quantized.tobytes()
        assert fmt.snap(values, lower=0.0).tobytes() == relu.tobytes()
        buffer = values.copy()
        assert fmt.snap(buffer, lower=0.0, out=buffer) is buffer
        assert buffer.tobytes() == relu.tobytes()


class TestParse:
    def test_parse_ap_fixed(self):
        fmt = FixedFormat.parse("ap_fixed<16,6>")
        assert fmt == FixedFormat(width=16, integer_bits=6)

    def test_parse_ap_ufixed(self):
        fmt = FixedFormat.parse("ap_ufixed<8,1>")
        assert fmt.signed is False
        assert fmt.width == 8

    def test_parse_roundtrip_str(self):
        fmt = FixedFormat(width=12, integer_bits=3)
        assert FixedFormat.parse(str(fmt)) == fmt

    def test_parse_garbage(self):
        with pytest.raises(ValueError):
            FixedFormat.parse("float32")
        with pytest.raises(ValueError):
            FixedFormat.parse("ap_fixed<16>")


class TestMacFormat:
    def test_widths_add(self):
        a = FixedFormat(width=16, integer_bits=6)
        result = mac_result_format(a, a, terms=1)
        assert result.width == 32
        assert result.integer_bits == 12

    def test_guard_bits_grow_with_terms(self):
        a = FixedFormat(width=16, integer_bits=6)
        r1 = mac_result_format(a, a, terms=2)
        r2 = mac_result_format(a, a, terms=1024)
        assert r2.integer_bits - r1.integer_bits == 9

    def test_width_capped_at_64(self):
        a = FixedFormat(width=32, integer_bits=16)
        result = mac_result_format(a, a, terms=1 << 20)
        assert result.width == 64

    def test_invalid_terms(self):
        a = FixedFormat(width=16, integer_bits=6)
        with pytest.raises(ValueError):
            mac_result_format(a, a, terms=0)
