"""Small accelerator specs and SoCs, the seed pins and the serve trace,
for tests and benchmarks.

Plain helpers with no pytest import, so the benchmark scripts can use
them too (``from tests.specs import make_spec``, with the repository
root on ``PYTHONPATH``).
"""

import numpy as np

from repro.accelerators import AcceleratorSpec
from repro.eval.fleet import standard_inputs
from repro.hls import ResourceEstimate
from repro.runtime import EspRuntime
from repro.serve import TracedRequest
from repro.soc import SoCConfig, build_soc

#: Frames through the 4nv_4cl pipeline (full / smoke).
PIPE_FRAMES = 32
SMOKE_PIPE_FRAMES = 8

#: Simulated cycles and dispatched kernel events of the three seed
#: workloads: the 4nv_4cl pipeline in p2p and pipe ("dma") mode, and
#: the serve trace on SoC-1. Full size is ``PIPE_FRAMES`` frames and
#: ``build_trace(2, 2)``; smoke size is ``SMOKE_PIPE_FRAMES`` frames
#: and ``build_trace()``. Recording, tracing, an armed recorder or an
#: idle control plane must land on them exactly.
SEED_CYCLES = {"p2p": 77460, "dma": 90139, "serve": 65324}
SEED_EVENTS = {"p2p": 2762, "dma": 10274, "serve": 2015}
SMOKE_CYCLES = {"p2p": 24270, "dma": 28073, "serve": 17066}
SMOKE_EVENTS = {"p2p": 1478, "dma": 2618, "serve": 764}


def build_trace(n_requests=1, frames_per_request=1):
    """Every SoC-1 tenant submits ``n_requests`` requests of
    ``frames_per_request`` frames back to back at cycle 0."""
    inputs = standard_inputs(n_requests * frames_per_request)
    trace = []
    for tenant, frames in inputs.items():
        for index in range(n_requests):
            lo = index * frames_per_request
            trace.append(TracedRequest(
                0, tenant, frames[lo:lo + frames_per_request]))
    return trace


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
