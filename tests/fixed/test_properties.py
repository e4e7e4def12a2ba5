"""Property-based tests on the fixed-point substrate (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.fixed import FixedFormat
from tests.fixed.packing import pack_words, unpack_words


def formats(max_width=32):
    """Strategy over valid signed fixed-point formats."""
    return st.integers(2, max_width).flatmap(
        lambda w: st.integers(1, w).map(
            lambda i: FixedFormat(width=w, integer_bits=i)))


@given(fmt=formats(), values=st.lists(
    st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=50))
@settings(max_examples=150, deadline=None)
def test_quantize_is_idempotent(fmt, values):
    arr = np.array(values)
    once = fmt.quantize(arr)
    np.testing.assert_array_equal(fmt.quantize(once), once)


@given(fmt=formats(), values=st.lists(
    st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=50))
@settings(max_examples=150, deadline=None)
def test_quantize_stays_in_range(fmt, values):
    out = fmt.quantize(np.array(values))
    assert np.all(out >= fmt.raw_min * fmt.scale)
    assert np.all(out <= fmt.raw_max * fmt.scale)


@given(fmt=formats(), values=st.lists(
    st.floats(-30, 30, allow_nan=False), min_size=1, max_size=50))
@settings(max_examples=150, deadline=None)
def test_quantize_error_below_one_lsb_in_range(fmt, values):
    arr = np.clip(np.array(values), fmt.raw_min * fmt.scale,
                  fmt.raw_max * fmt.scale)
    err = np.abs(fmt.quantize(arr) - arr)
    assert np.all(err <= fmt.scale + 1e-12)


@given(fmt=formats(), values=st.lists(
    st.floats(-1e3, 1e3, allow_nan=False), min_size=2, max_size=50))
@settings(max_examples=150, deadline=None)
def test_quantize_is_monotone(fmt, values):
    arr = np.sort(np.array(values))
    out = fmt.quantize(arr)
    assert np.all(np.diff(out) >= 0)


@given(word_bits=st.sampled_from([8, 16, 32]),
       raw=st.lists(st.integers(-128, 127), min_size=1, max_size=200))
@settings(max_examples=150, deadline=None)
def test_pack_unpack_roundtrip(word_bits, raw):
    arr = np.array(raw, dtype=np.int64)
    flits = pack_words(arr, word_bits, 64)
    back = unpack_words(flits, len(arr), word_bits, 64, signed=True)
    np.testing.assert_array_equal(back, arr)


@given(n=st.integers(1, 2000), word_bits=st.sampled_from([8, 16, 32, 64]))
@settings(max_examples=150, deadline=None)
def test_flit_count_is_ceiling_division(n, word_bits):
    from repro.fixed import words_to_flits
    per_flit = 64 // word_bits
    assert words_to_flits(n, word_bits, 64) == -(-n // per_flit)
