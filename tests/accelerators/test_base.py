"""Tests for the accelerator spec interface."""

import numpy as np
import pytest

from repro.accelerators import AcceleratorSpec
from tests.conftest import make_spec


class TestSpecValidation:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            make_spec(input_words=0)
        with pytest.raises(ValueError):
            make_spec(output_words=0)

    def test_rejects_bad_timing(self):
        with pytest.raises(ValueError):
            make_spec(latency=0)
        with pytest.raises(ValueError):
            make_spec(interval=0)

    def test_rejects_bad_word_width(self):
        with pytest.raises(ValueError):
            make_spec(word_bits=12)

    def test_rejects_unknown_flow(self):
        with pytest.raises(ValueError):
            AcceleratorSpec(name="x", input_words=4, output_words=4,
                            kernel=lambda f: f, latency_cycles=1,
                            interval_cycles=1, design_flow="chisel")


class TestRun:
    def test_checks_input_size(self):
        spec = make_spec(input_words=8)
        with pytest.raises(ValueError):
            spec.run(np.zeros(7))

    def test_checks_output_size(self):
        spec = make_spec(input_words=4, output_words=4,
                         compute=lambda f: np.zeros(3))
        with pytest.raises(ValueError):
            spec.run(np.zeros(4))

    def test_flattens_input(self):
        spec = make_spec(input_words=4, output_words=4)
        out = spec.run(np.zeros((2, 2)))
        np.testing.assert_array_equal(out, np.ones(4))
