"""Shared fixtures and helpers for the test suite."""

import numpy as np
import pytest

from repro.accelerators import AcceleratorSpec
from repro.hls import ResourceEstimate
from repro.runtime import EspRuntime
from repro.soc import SoCConfig, build_soc


def per_frame(compute):
    """A batch kernel that runs the per-frame ``compute`` on each row."""
    def kernel(frames):
        return np.array([np.asarray(compute(frame), dtype=np.float64)
                         .reshape(-1) for frame in frames])
    return kernel


def make_spec(name="toy", input_words=16, output_words=16,
              latency=50, interval=50, word_bits=16, compute=None):
    """A small, fast accelerator spec for SoC-level tests.

    ``compute`` is a per-frame kernel; the spec's kernel applies it to
    each row of a batch. The default adds 1 to every word, which makes
    data corruption visible in assertions.
    """
    if compute is None:
        def compute(frame):
            out = np.asarray(frame) + 1.0
            return out[:output_words] if len(out) >= output_words else \
                np.resize(out, output_words)
    return AcceleratorSpec(
        name=name,
        input_words=input_words,
        output_words=output_words,
        kernel=per_frame(compute),
        latency_cycles=latency,
        interval_cycles=interval,
        resources=ResourceEstimate(luts=1000, ffs=1000, brams=1, dsps=4),
        word_bits=word_bits,
    )


def make_soc(specs, cols=4, rows=2, clock_mhz=78.0, mem_words=1 << 18):
    """A small SoC hosting ``specs`` (list of (device_name, spec))."""
    config = SoCConfig(cols=cols, rows=rows, name="test-soc",
                       clock_mhz=clock_mhz)
    config.add_cpu((0, 0))
    config.add_memory((1, 0), size_words=mem_words)
    config.add_aux((2, 0))
    for device_name, spec in specs:
        config.add_accelerator(config.next_free(), device_name, spec)
    return build_soc(config)


def make_runtime(specs, **kwargs):
    return EspRuntime(make_soc(specs, **kwargs))


@pytest.fixture
def toy_spec():
    return make_spec()


@pytest.fixture
def rng():
    return np.random.default_rng(0)
