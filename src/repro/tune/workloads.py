"""Ablation workloads for the coherence auto-tuner.

Three small, deterministic workloads whose best coherence mode
differs, so the tuner (and the ``bench_coherence`` benchmark gating
CI) exercises every branch of the decision:

- ``fc-streaming`` — one wide accelerator pushing frames far beyond
  every cache. Fully-coherent wins here: full-line stores complete at
  ownership-grant latency (no data flits at store time — the eviction
  writebacks overlap the next compute), and the private-cache path
  never walks the DMA TLB. The footprint heuristic proposes
  non-coherent for this shape, so the workload exercises the measured
  fallback in the *other* direction: the verify pass promotes the
  faster uniform mode.
- ``llc-resident`` — frames larger than the accelerators' (shrunken)
  private caches, but a run footprint that fits a roomy LLC:
  LLC-coherent DMA wins, and the heuristic proposes exactly that.
- ``false-sharing`` — two same-level accelerators whose frames are
  not cache-line aligned, so the buffer lines at frame boundaries
  ping-pong between the two private caches (invalidate, recall,
  re-fetch — every round trip through the directory). Non-coherent
  streaming sidesteps the protocol entirely and wins; the tuner's
  misalignment veto predicts this statically.

Each workload builds its SoC fresh per measurement arm (the factory
contract of :mod:`repro.tune.tuner`), so arms never share state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..accelerators.base import AcceleratorSpec
from ..runtime.api import EspRuntime
from ..runtime.dataflow import Dataflow, chain
from ..soc import SoCConfig, SoCInstance, build_soc


@dataclass(frozen=True)
class Workload:
    """One ablation point: a SoC factory plus the batch to run."""

    name: str
    description: str
    mode: str
    dataflow: Dataflow
    frames: np.ndarray
    build: Callable[[], Tuple[SoCInstance, EspRuntime]]


def _soc(llc_words: int, specs, mem_words: int = 1 << 19,
         private_cache_words: Optional[int] = None):
    config = SoCConfig(cols=4, rows=2)
    config.add_cpu((0, 0))
    config.add_memory((1, 0), size_words=mem_words,
                      llc_words=llc_words)
    coords = [(2, 0), (3, 0), (2, 1), (3, 1)]
    for coord, (name, spec) in zip(coords, specs):
        config.add_accelerator(coord, name, spec,
                               private_cache_words=private_cache_words)
    soc = build_soc(config)
    return soc, EspRuntime(soc)


def _frames(n_frames: int, words: int) -> np.ndarray:
    return (np.arange(n_frames * words, dtype=np.float64)
            .reshape(n_frames, words) % 97.0)


def _spec(name: str, words: int, latency: int) -> AcceleratorSpec:
    return AcceleratorSpec(name=name, input_words=words,
                           output_words=words,
                           kernel=lambda x: x * 0.5 + 1.0,
                           latency_cycles=latency,
                           interval_cycles=max(1, latency // 4))


def fc_streaming() -> Workload:
    words = 1024
    spec = _spec("wide", words, latency=200)
    return Workload(
        name="fc-streaming",
        description="wide frames through a tiny LLC: upgrade stores "
                    "and TLB-free loads let fully-coherent win",
        mode="pipe",
        dataflow=chain("fc-streaming", ["pump"]),
        frames=_frames(24, words),
        build=lambda: _soc(llc_words=2048,
                           specs=[("pump", spec)],
                           private_cache_words=256))


def llc_resident() -> Workload:
    words = 512
    spec = _spec("mid", words, latency=120)
    return Workload(
        name="llc-resident",
        description="frames exceed the (shrunken) private caches but "
                    "the run fits the LLC",
        mode="pipe",
        dataflow=chain("llc-resident", ["front", "back"]),
        frames=_frames(8, words),
        build=lambda: _soc(llc_words=1 << 15,
                           specs=[("front", spec), ("back", spec)],
                           private_cache_words=128))


def false_sharing() -> Workload:
    words = 200   # not a multiple of the 16-word line: frames share lines
    spec = _spec("ragged", words, latency=60)
    return Workload(
        name="false-sharing",
        description="two siblings with line-misaligned frames: "
                    "boundary lines ping-pong, non-coherent wins",
        mode="pipe",
        dataflow=Dataflow(name="false-sharing",
                          devices=["left", "right"]),
        frames=_frames(16, words),
        build=lambda: _soc(llc_words=2048,
                           specs=[("left", spec), ("right", spec)],
                           private_cache_words=1024))


def ablation_workloads() -> List[Workload]:
    """The suite the benchmark and the ``tune`` CLI sweep."""
    return [fc_streaming(), llc_resident(), false_sharing()]
