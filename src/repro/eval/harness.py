"""Shared machinery for the paper-reproduction experiments."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..platforms import soc_power_watts
from ..runtime import RunResult
from .apps import APP_CONFIGS, AppConfig, fresh_runtime

#: Default measurement length. Frames per run: small enough to keep a
#: full sweep fast, large enough to amortize pipeline fill.
DEFAULT_FRAMES = 32


def percentile(values, q: float) -> float:
    """The q-th percentile (0..100) by linear interpolation.

    Thin wrapper over :func:`numpy.percentile` with input validation —
    kept as a named helper so every experiment aggregates latency the
    same way.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    return float(np.percentile(values, q))


@dataclass(frozen=True)
class LatencySummary:
    """Distribution summary of a latency (or overhead) sample.

    The shared aggregate shape of the serving benchmarks and the fault
    campaigns: tail percentiles rather than just a mean, because a
    multi-tenant system is judged by its p99.
    """

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float

    def scaled(self, factor: float) -> "LatencySummary":
        """The same summary in different units (e.g. cycles -> us)."""
        return LatencySummary(count=self.count,
                              mean=self.mean * factor,
                              p50=self.p50 * factor,
                              p95=self.p95 * factor,
                              p99=self.p99 * factor,
                              max=self.max * factor)

    @classmethod
    def from_histogram(cls, series) -> "LatencySummary":
        """Summary from a metrics ``HistogramSeries`` (bucketed sample).

        A live histogram keeps bucket counts, not the raw sample, so
        percentiles are estimated: the target is the same *observation
        position* :func:`percentile` interpolates on a raw sample
        (numpy's linear convention, ``(count - 1) * q / 100``), each
        neighbouring order statistic is estimated by assuming
        observations spread uniformly across its bucket's ``(lo, hi]``
        span, and the two are blended with the position's fractional
        part.

        Sharing :func:`percentile`'s rank convention matters at exact
        boundaries: under the previous ``q / 100 * count`` rank, a
        rank landing exactly on a cumulative-count boundary returned
        the bucket's upper edge while the true (interpolated)
        percentile lay partway toward the *next populated* bucket —
        across empty buckets, that error was unbounded by any single
        bucket width. Now each side of the interpolation lands inside
        the bucket of the order statistic it estimates, so the error
        bound is honest: at most the wider of the two neighbouring
        buckets' widths (a factor of 2 for the default power-of-two
        bounds), one bucket width when both neighbours share a bucket.
        The mean (``sum`` and ``count`` are exact) and the max
        (tracked per observation) carry no bucketing error. An order
        statistic that falls in the overflow (``+Inf``) bucket clamps
        to the observed max. Adversarial layouts — exact boundaries,
        single populated buckets, runs of empty buckets — are pinned
        against :func:`percentile` in ``tests/eval/test_harness.py``.
        """
        if series.count == 0:
            raise ValueError("from_histogram of an empty histogram")

        def order_stat(k: int) -> float:
            # Estimated k-th smallest observation (0-indexed), uniform
            # spread inside its bucket. Empty buckets are skipped
            # before `previous` is read, so cumulative bookkeeping only
            # ever advances on populated buckets.
            cumulative = 0
            for index, count in enumerate(series.counts):
                if count == 0:
                    continue
                previous = cumulative
                cumulative += count
                if cumulative > k:
                    if index >= len(series.bounds):
                        return float(series.max)
                    lo = series.bounds[index - 1] if index else 0
                    hi = series.bounds[index]
                    within = (k - previous + 1) / count
                    return float(min(lo + (hi - lo) * within,
                                     series.max))
            return float(series.max)

        def estimate(q: float) -> float:
            position = (series.count - 1) * q / 100.0
            floor_rank = int(position)
            fraction = position - floor_rank
            value = order_stat(floor_rank)
            if fraction:
                value += fraction * (order_stat(floor_rank + 1) - value)
            return float(min(value, series.max))

        return cls(
            count=series.count,
            mean=series.sum / series.count,
            p50=estimate(50.0),
            p95=estimate(95.0),
            p99=estimate(99.0),
            max=float(series.max),
        )

    def __str__(self) -> str:
        return (f"n={self.count} mean={self.mean:.1f} p50={self.p50:.1f} "
                f"p95={self.p95:.1f} p99={self.p99:.1f} "
                f"max={self.max:.1f}")


def summarize_latencies(values) -> LatencySummary:
    """p50/p95/p99, mean and max of a non-empty sample."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("summarize_latencies of an empty sample")
    return LatencySummary(
        count=int(values.size),
        mean=float(values.mean()),
        p50=percentile(values, 50.0),
        p95=percentile(values, 95.0),
        p99=percentile(values, 99.0),
        max=float(values.max()),
    )


@dataclass
class Measurement:
    """One (configuration, mode) measurement on the simulated SoC."""

    app: str
    mode: str
    frames: int
    fps: float
    watts: float
    dram_accesses: int
    ioctl_calls: int
    cycles: int
    plane_flits: Dict[str, int]     # NoC plane -> flit-hops

    @property
    def frames_per_joule(self) -> float:
        return self.fps / self.watts


def measure(app_key: str, mode: str,
            n_frames: int = DEFAULT_FRAMES) -> Measurement:
    """Run one configuration in one mode on a fresh SoC."""
    if app_key not in APP_CONFIGS:
        raise KeyError(f"unknown app {app_key!r}; options: "
                       f"{sorted(APP_CONFIGS)}")
    config: AppConfig = APP_CONFIGS[app_key]
    runtime = fresh_runtime(config)
    frames, _ = config.make_inputs(n_frames)
    result: RunResult = runtime.esp_run(config.build_dataflow(), frames,
                                        mode=mode)
    return Measurement(
        app=app_key,
        mode=mode,
        frames=result.frames,
        fps=result.frames_per_second,
        watts=soc_power_watts(runtime.soc),
        dram_accesses=result.dram_accesses,
        ioctl_calls=result.ioctl_calls,
        cycles=result.cycles,
        plane_flits=runtime.soc.mesh.plane_flits(),
    )


#: The five configurations of Fig. 7, in plot order. Table I's and
#: Fig. 8's applications are among them.
FIG7_CONFIGS = ("1nv_1cl", "4nv_1cl", "4nv_4cl", "1de_1cl", "1cl_split")
MODES = ("base", "pipe", "p2p")

#: The paper's evaluation: one measurement per (configuration, mode).
Evaluation = Dict[Tuple[str, str], Measurement]


def evaluate(n_frames: int = DEFAULT_FRAMES) -> Evaluation:
    """Measure each of the paper's 15 (configuration, mode) cells once.

    Table I, Fig. 7 and Fig. 8 are views of the result: Table I reads
    the p2p cell of each best-case configuration, Fig. 8 the pipe and
    p2p cells of the same three, Fig. 7 every cell.
    """
    return {(app_key, mode): measure(app_key, mode, n_frames)
            for app_key in FIG7_CONFIGS for mode in MODES}


def format_table(rows, headers) -> str:
    """Plain-text table renderer used by every experiment report."""
    rows = [[str(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    def fmt(row):
        return "  ".join(c.rjust(w) for c, w in zip(row, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)
