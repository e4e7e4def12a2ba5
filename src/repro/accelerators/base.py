"""Accelerator specifications: what a tile socket hosts.

An :class:`AcceleratorSpec` is the result of one of the two design
branches of Fig. 3 — the HLS4ML branch (ML kernels) or the generic
SystemC/Stratus branch (e.g. the Night-Vision kernels). It bundles:

- the functional kernel (bit-accurate NumPy compute over a batch of
  frames),
- the per-frame timing from the HLS schedule,
- the FPGA resource estimate,
- the I/O geometry (words per input/output frame, word width) that the
  ESP wrapper needs to size DMA transactions and PLM buffers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..hls import ResourceEstimate


@dataclass(frozen=True)
class AcceleratorSpec:
    """A synthesized accelerator, ready for SoC integration."""

    name: str
    input_words: int
    output_words: int
    #: The kernel: ``(n, input_words) -> (n, output_words)``, row ``i``
    #: a function of input row ``i``'s bytes alone, so row ``i`` of any
    #: batch equals the batch of one byte for byte. A run evaluates it
    #: ahead of the timing model (see ``repro.soc.fill_memo``): the
    #: HLS4ML matrix-vector products read their weights once per batch
    #: instead of once per frame, and Night-Vision runs its steps over
    #: chunks of frames in fewer, larger numpy calls. The object also
    #: names the kernel: the run's memo keys results by it, then by
    #: their input bytes, so specs that share it share those results
    #: and COMPUTE reads only its own kernel's. The HLS4ML specs of one
    #: compiled model share its ``predict`` and the Night-Vision specs
    #: of one format share one kernel; a fresh callable per spec shares
    #: none.
    kernel: Callable[[np.ndarray], np.ndarray]
    latency_cycles: int
    interval_cycles: int
    resources: ResourceEstimate = field(default_factory=ResourceEstimate)
    word_bits: int = 16
    design_flow: str = "hls4ml"   # "hls4ml" | "stratus"
    #: Ping-pong PLM buffers: the wrapper overlaps LOAD/COMPUTE/STORE
    #: across frames, so sustained cadence approaches the kernel's
    #: initiation interval instead of its latency. Off by default (the
    #: Fig. 4 wrapper is sequential); see the double-buffering ablation.
    double_buffered: bool = False

    def __post_init__(self) -> None:
        if self.input_words < 1:
            raise ValueError(f"input_words must be >= 1, got "
                             f"{self.input_words}")
        if self.output_words < 1:
            raise ValueError(f"output_words must be >= 1, got "
                             f"{self.output_words}")
        if self.latency_cycles < 1:
            raise ValueError("latency_cycles must be >= 1")
        if self.interval_cycles < 1:
            raise ValueError("interval_cycles must be >= 1")
        if self.word_bits not in (8, 16, 32, 64):
            raise ValueError(f"word_bits must be 8/16/32/64, got "
                             f"{self.word_bits}")
        if self.design_flow not in ("hls4ml", "stratus"):
            raise ValueError(f"unknown design flow {self.design_flow!r}")

    def run(self, frame: np.ndarray) -> np.ndarray:
        """Invoke the kernel on one frame, validating I/O geometry: the
        batch of one."""
        frame = np.asarray(frame, dtype=np.float64).reshape(-1)
        if len(frame) != self.input_words:
            raise ValueError(
                f"{self.name}: expected {self.input_words} input words, "
                f"got {len(frame)}")
        return self.run_batch(frame[None])[0]

    def run_batch(self, frames: np.ndarray) -> np.ndarray:
        """Invoke the kernel on ``(n, input_words)`` frames, validating
        I/O geometry; row ``i`` of the result is ``run(frames[i])`` byte
        for byte."""
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 2 or frames.shape[1] != self.input_words:
            raise ValueError(
                f"{self.name}: expected (n, {self.input_words}) input "
                f"frames, got shape {frames.shape}")
        out = np.asarray(self.kernel(frames), dtype=np.float64)
        if out.shape != (len(frames), self.output_words):
            raise ValueError(
                f"{self.name}: kernel produced shape {out.shape}, spec "
                f"says ({len(frames)}, {self.output_words})")
        return out
