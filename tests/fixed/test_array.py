"""Tests for fixed-point array arithmetic and NoC word packing."""

import numpy as np
import pytest

from repro.fixed import (
    DEFAULT_FORMAT,
    FixedFormat,
    fixed_matvec,
    fixed_relu,
    fixed_sigmoid,
    fixed_softmax,
    pack_words,
    roundtrip,
    unpack_words,
    words_to_flits,
)


class TestMatvec:
    def test_matches_float_for_small_values(self, rng):
        fmt = FixedFormat(width=24, integer_bits=10)
        weights = rng.uniform(-1, 1, (8, 4))
        x = rng.uniform(-1, 1, 4)
        bias = rng.uniform(-1, 1, 8)
        exact = weights @ x + bias
        fixed = fixed_matvec(weights, x, bias, fmt, fmt, fmt)
        np.testing.assert_allclose(fixed, exact, atol=16 * fmt.scale)

    def test_batch_dimension(self, rng):
        fmt = DEFAULT_FORMAT
        weights = rng.uniform(-1, 1, (8, 4))
        xs = rng.uniform(-1, 1, (4, 5))   # batch of 5 columns
        bias = np.zeros(8)
        out = fixed_matvec(weights, xs, bias, fmt, fmt, fmt)
        assert out.shape == (8, 5)
        single = fixed_matvec(weights, xs[:, 0], bias, fmt, fmt, fmt)
        np.testing.assert_array_equal(out[:, 0], single)

    def test_output_saturates(self):
        fmt = FixedFormat(width=8, integer_bits=4)   # max < 8
        weights = np.full((1, 4), 7.0)
        x = np.full(4, 7.0)
        out = fixed_matvec(weights, x, np.zeros(1), fmt, fmt, fmt)
        assert out[0] == fmt.max_value


class TestActivations:
    def test_relu_clamps_negative(self):
        fmt = DEFAULT_FORMAT
        out = fixed_relu(np.array([-1.0, 0.0, 2.5]), fmt)
        np.testing.assert_array_equal(out, [0.0, 0.0, 2.5])

    def test_sigmoid_monotone_and_bounded(self):
        fmt = DEFAULT_FORMAT
        x = np.linspace(-10, 10, 201)
        y = fixed_sigmoid(x, fmt)
        assert np.all(np.diff(y) >= 0)
        assert np.all((y >= 0) & (y <= 1))

    def test_sigmoid_midpoint(self):
        fmt = DEFAULT_FORMAT
        assert fixed_sigmoid(np.array([0.0]), fmt)[0] == pytest.approx(
            0.5, abs=0.01)

    def test_softmax_preserves_argmax(self, rng):
        fmt = DEFAULT_FORMAT
        logits = rng.uniform(-4, 4, (50, 10))
        probs = fixed_softmax(logits, fmt)
        np.testing.assert_array_equal(np.argmax(probs, axis=1),
                                      np.argmax(logits, axis=1))

    def test_softmax_rows_near_one(self, rng):
        fmt = FixedFormat(width=18, integer_bits=2)
        probs = fixed_softmax(rng.uniform(-2, 2, (8, 10)), fmt)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=0.01)


class TestSoftmaxExact:
    @pytest.mark.parametrize("fmt", [DEFAULT_FORMAT,
                                     FixedFormat(12, 2, overflow="wrap")],
                             ids=str)
    def test_matches_function_form(self, fmt, rng):
        """Method reductions and an in-place divide and snap are the
        same float operations as the np.max/np.sum formulation, on row
        and column-major batches alike."""
        def reference(x):
            shifted = x - np.max(x, axis=-1, keepdims=True)
            expx = np.exp(shifted)
            return fmt.quantize(expx / np.sum(expx, axis=-1, keepdims=True))

        for logits in (rng.normal(0, 4, 10), rng.normal(0, 4, (1, 10)),
                       rng.normal(0, 4, (32, 10)),
                       rng.normal(0, 4, (10, 32)).T):
            assert (fixed_softmax(logits, fmt).tobytes()
                    == reference(logits).tobytes())


class TestPacking:
    def test_pack_four_16bit_words_per_flit(self):
        raw = np.array([1, 2, 3, 4], dtype=np.int64)
        flits = pack_words(raw, word_bits=16, flit_bits=64)
        assert len(flits) == 1
        assert flits[0] == (4 << 48) | (3 << 32) | (2 << 16) | 1

    def test_unpack_inverse_of_pack(self, rng):
        raw = rng.integers(-32768, 32767, 100)
        flits = pack_words(raw, 16, 64)
        back = unpack_words(flits, 100, 16, 64, signed=True)
        np.testing.assert_array_equal(back, raw)

    def test_unsigned_unpack(self):
        raw = np.array([65535, 0, 255], dtype=np.int64)
        flits = pack_words(raw, 16, 64)
        back = unpack_words(flits, 3, 16, 64, signed=False)
        np.testing.assert_array_equal(back, raw)

    def test_partial_final_flit_padded(self):
        raw = np.array([7, 8, 9], dtype=np.int64)
        flits = pack_words(raw, 16, 64)
        assert len(flits) == 1
        back = unpack_words(flits, 3, 16, 64)
        np.testing.assert_array_equal(back, raw)

    def test_word_width_must_divide_flit(self):
        with pytest.raises(ValueError):
            pack_words(np.array([1]), word_bits=24, flit_bits=64)

    def test_words_to_flits(self):
        assert words_to_flits(1024, 16, 64) == 256
        assert words_to_flits(1025, 16, 64) == 257
        assert words_to_flits(1, 16, 64) == 1
        assert words_to_flits(10, 32, 32) == 10

    def test_words_wider_than_flit_rejected(self):
        with pytest.raises(ValueError):
            words_to_flits(4, 64, 32)

    def test_roundtrip_lossless_for_quantized(self, rng):
        fmt = DEFAULT_FORMAT
        values = fmt.quantize(rng.uniform(-30, 30, 257))
        back, flits = roundtrip(values, fmt, 16, 64)
        np.testing.assert_array_equal(back, values)
        assert len(flits) == words_to_flits(257, 16, 64)
