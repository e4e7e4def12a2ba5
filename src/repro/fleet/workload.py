"""Open-loop workload generation: Poisson arrivals with envelopes.

The fleet's stand-in for "millions of users": request arrivals are an
*open-loop* process — traffic keeps coming whether or not the fleet
keeps up, which is what lets a benchmark drive the cluster into
overload and measure goodput and rejection behaviour rather than just
closed-loop latency.

The arrival process is a non-homogeneous Poisson process with rate

    rate(t) = base_rate * diurnal(t) * burst(t)

- ``base_rate = 1 / mean_interarrival_cycles`` — the long-run average.
- ``diurnal(t) = 1 + amplitude * sin(2*pi*t / period)`` — the slow
  daily swing of a user population (peak vs trough traffic).
- ``burst(t)`` — ``burst_multiplier`` inside seeded burst windows
  (burst starts themselves a Poisson process, each lasting
  ``burst_duration_cycles``), 1 elsewhere: flash crowds on top of the
  diurnal curve.

Arrivals are sampled by *thinning* (Lewis & Shedler): candidates are
drawn from a homogeneous process at the peak rate and accepted with
probability ``rate(t) / peak_rate``. Every draw comes from one seeded
``numpy`` generator in a fixed order, so a :class:`WorkloadSpec` maps
to exactly one arrival trace — the determinism the router tests and
the fleet benchmark pin against.

Each arrival carries a tenant (weighted choice — skewed weights model
a hot tenant) and a frame count (uniform in a range — heterogeneous
request sizes are what load-aware balancing exploits). Frames
themselves are bound later by the coordinator from per-tenant input
pools, keeping the trace cheap to generate and policy-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np


@dataclass(frozen=True)
class TenantLoad:
    """One tenant's share of the arrival mix."""

    name: str
    #: Relative arrival weight (2.0 gets twice the requests of 1.0).
    weight: float = 1.0
    #: Frames per request, drawn uniformly from [min, max].
    frames_min: int = 1
    frames_max: int = 1
    priority: int = 0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"weight must be > 0, got {self.weight}")
        if not 1 <= self.frames_min <= self.frames_max:
            raise ValueError(
                f"need 1 <= frames_min <= frames_max, got "
                f"[{self.frames_min}, {self.frames_max}]")


@dataclass(frozen=True)
class Arrival:
    """One request of the open-loop trace (frames bound later)."""

    at: int
    tenant: str
    n_frames: int
    priority: int = 0


@dataclass(frozen=True)
class WorkloadSpec:
    """A seeded open-loop arrival process over a finite horizon."""

    tenants: Tuple[TenantLoad, ...]
    horizon_cycles: int
    #: Mean cycles between arrivals at the *base* rate (before the
    #: diurnal/burst envelopes scale it).
    mean_interarrival_cycles: float
    #: Diurnal envelope: one "day" lasts this many cycles (None = no
    #: diurnal modulation).
    diurnal_period_cycles: int = 0
    #: Peak-to-mean swing of the diurnal envelope, in [0, 1).
    diurnal_amplitude: float = 0.0
    #: Mean cycles between burst-window starts (0 = no bursts).
    burst_every_cycles: float = 0.0
    burst_duration_cycles: int = 0
    #: Rate multiplier inside a burst window (>= 1).
    burst_multiplier: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError("workload needs at least one tenant")
        if self.horizon_cycles < 1:
            raise ValueError("horizon_cycles must be >= 1")
        if self.mean_interarrival_cycles <= 0:
            raise ValueError("mean_interarrival_cycles must be > 0")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if self.diurnal_amplitude > 0 and self.diurnal_period_cycles < 1:
            raise ValueError("diurnal modulation needs a period")
        if self.burst_multiplier < 1.0:
            raise ValueError("burst_multiplier must be >= 1")
        if self.burst_every_cycles > 0 \
                and self.burst_duration_cycles < 1:
            raise ValueError("bursts need a duration")

    @property
    def base_rate(self) -> float:
        return 1.0 / self.mean_interarrival_cycles

    @property
    def peak_rate(self) -> float:
        """The thinning bound: every envelope at its maximum."""
        return (self.base_rate * (1.0 + self.diurnal_amplitude)
                * (self.burst_multiplier
                   if self.burst_every_cycles > 0 else 1.0))


def burst_windows(spec: WorkloadSpec,
                  rng: np.random.Generator) -> List[Tuple[int, int]]:
    """Seeded ``[start, end)`` burst windows over the horizon."""
    if spec.burst_every_cycles <= 0:
        return []
    windows: List[Tuple[int, int]] = []
    t = 0.0
    while True:
        t += rng.exponential(spec.burst_every_cycles)
        if t >= spec.horizon_cycles:
            return windows
        start = int(t)
        end = start + spec.burst_duration_cycles
        windows.append((start, end))
        t = float(end)


def _rate_at(spec: WorkloadSpec, t: float,
             windows: List[Tuple[int, int]], cursor: int
             ) -> Tuple[float, int]:
    """Instantaneous rate at ``t`` (+ advanced burst-window cursor)."""
    rate = spec.base_rate
    if spec.diurnal_amplitude > 0:
        rate *= 1.0 + spec.diurnal_amplitude * np.sin(
            2.0 * np.pi * t / spec.diurnal_period_cycles)
    while cursor < len(windows) and windows[cursor][1] <= t:
        cursor += 1
    if cursor < len(windows) and windows[cursor][0] <= t:
        rate *= spec.burst_multiplier
    return rate, cursor


def generate_arrivals(spec: WorkloadSpec) -> List[Arrival]:
    """The arrival trace of ``spec`` — same spec, same trace, always."""
    rng = np.random.default_rng(spec.seed)
    windows = burst_windows(spec, rng)
    weights = np.array([t.weight for t in spec.tenants])
    cumulative = np.cumsum(weights / weights.sum())
    peak = spec.peak_rate
    arrivals: List[Arrival] = []
    t = 0.0
    cursor = 0
    while True:
        t += rng.exponential(1.0 / peak)
        if t >= spec.horizon_cycles:
            break
        rate, cursor = _rate_at(spec, t, windows, cursor)
        if rng.random() > rate / peak:
            continue   # thinned: candidate rejected
        pick = int(np.searchsorted(cumulative, rng.random(),
                                   side="right"))
        tenant = spec.tenants[min(pick, len(spec.tenants) - 1)]
        n_frames = int(rng.integers(tenant.frames_min,
                                    tenant.frames_max + 1))
        arrivals.append(Arrival(at=int(t), tenant=tenant.name,
                                n_frames=n_frames,
                                priority=tenant.priority))
    return arrivals
