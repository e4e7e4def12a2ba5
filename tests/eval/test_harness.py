"""Tests for the experiment-harness utilities."""

import pytest

from repro.eval import Measurement, format_table, measure


def relative_error(measured: float, reference: float) -> float:
    """Signed relative deviation of measured vs the paper's value."""
    if reference == 0:
        raise ValueError("reference value is zero")
    return (measured - reference) / reference


class TestFormatTable:
    def test_aligns_columns(self):
        text = format_table([["a", "1"], ["bbbb", "22"]],
                            headers=["name", "value"])
        lines = text.splitlines()
        assert len(lines) == 4                     # header + rule + 2 rows
        assert len({len(l) for l in lines}) == 1   # constant width

    def test_empty_rows(self):
        text = format_table([], headers=["col"])
        assert "col" in text

    def test_numbers_coerced(self):
        text = format_table([[1, 2.5]], headers=["a", "b"])
        assert "2.5" in text


class TestRelativeError:
    def test_signed(self):
        assert relative_error(110, 100) == pytest.approx(0.1)
        assert relative_error(90, 100) == pytest.approx(-0.1)

    def test_zero_reference(self):
        with pytest.raises(ValueError):
            relative_error(1.0, 0.0)


class TestMeasurement:
    def test_frames_per_joule(self):
        m = Measurement(app="x", mode="p2p", frames=10, fps=1000.0,
                        watts=2.0, dram_accesses=0, ioctl_calls=1,
                        cycles=100, plane_flits={})
        assert m.frames_per_joule == 500.0

    def test_measure_populates_everything(self):
        m = measure("1nv_1cl", "p2p", n_frames=4)
        assert m.frames == 4
        assert m.fps > 0
        assert m.watts > 0
        assert m.cycles > 0
        assert m.dram_accesses > 0
        assert m.ioctl_calls == 2

    def test_invalid_mode_propagates(self):
        with pytest.raises(ValueError):
            measure("1nv_1cl", "warp", n_frames=4)


class TestFromHistogram:
    """LatencySummary.from_histogram vs the exact-sample summary."""

    def hist_of(self, sample):
        from repro.metrics import MetricsRegistry
        from repro.sim import Environment

        series = MetricsRegistry(Environment()).histogram(
            "h_cycles").labels()
        for value in sample:
            series.observe(value)
        return series

    def test_exact_fields_match_raw_sample(self):
        from repro.eval.harness import LatencySummary, \
            summarize_latencies
        import numpy as np

        sample = [int(v) for v in
                  np.random.default_rng(7).lognormal(8, 1.5, 500)]
        exact = summarize_latencies(sample)
        estimated = LatencySummary.from_histogram(self.hist_of(sample))
        assert estimated.count == exact.count
        assert estimated.mean == pytest.approx(exact.mean)
        assert estimated.max == exact.max

    def test_percentiles_within_documented_bound(self):
        """Each estimate lands inside the true percentile's bucket —
        within a factor of 2 for the power-of-two default bounds."""
        from repro.eval.harness import LatencySummary, \
            summarize_latencies
        import numpy as np

        sample = [int(v) for v in
                  np.random.default_rng(7).lognormal(8, 1.5, 500)]
        exact = summarize_latencies(sample)
        estimated = LatencySummary.from_histogram(self.hist_of(sample))
        for name in ("p50", "p95", "p99"):
            true = getattr(exact, name)
            est = getattr(estimated, name)
            assert true / 2 <= est <= true * 2, (name, true, est)

    def test_single_observation(self):
        from repro.eval.harness import LatencySummary

        summary = LatencySummary.from_histogram(self.hist_of([100]))
        assert summary.count == 1
        assert summary.mean == summary.max == 100
        # Interpolated percentiles never exceed the observed max.
        assert summary.p50 <= 100 and summary.p99 <= 100

    def test_overflow_bucket_clamps_to_max(self):
        from repro.eval.harness import LatencySummary
        from repro.metrics import CYCLE_BUCKETS

        huge = CYCLE_BUCKETS[-1] * 5
        summary = LatencySummary.from_histogram(
            self.hist_of([huge] * 10))
        assert summary.p99 == summary.max == huge

    def test_empty_histogram_raises(self):
        from repro.eval.harness import LatencySummary

        with pytest.raises(ValueError):
            LatencySummary.from_histogram(self.hist_of([]))

    def test_exact_boundary_rank_tracks_percentile(self):
        """A rank landing exactly on a cumulative-count boundary.

        Ten observations in (256, 512], ten in (512, 1024]: p50's
        position is 9.5, straddling the last observation of the first
        bucket and the first of the second. The old ``q / 100 *
        count`` rank collapsed this to the first bucket's upper edge
        (512) regardless of where the true percentile sat; the
        percentile()-convention estimator interpolates across the
        boundary like numpy does on the raw sample.
        """
        from repro.eval.harness import LatencySummary, percentile

        sample = [300 + 20 * k for k in range(10)] \
            + [600 + 40 * k for k in range(10)]
        summary = LatencySummary.from_histogram(self.hist_of(sample))
        true_p50 = percentile(sample, 50)   # 540: above the boundary
        assert true_p50 > 512
        assert summary.p50 > 512            # old estimator returned 512
        # Within the wider neighbouring bucket's width (here 512).
        assert abs(summary.p50 - true_p50) <= 512

    def test_boundary_across_empty_buckets_is_bounded(self):
        """Adversarial layout: the boundary straddles a run of empty
        buckets. Each interpolation endpoint must stay inside its own
        order statistic's bucket, so even with 15 empty buckets
        between the halves the error stays within the wider
        neighbouring bucket's width — the old estimator returned the
        lower bucket's edge (1) for a true p50 of ~25000."""
        from repro.eval.harness import LatencySummary, percentile

        # Ten in (0.5, 1], ten in (32768, 65536]; p50 position 9.5
        # straddles the gap, p95 position 18.05 sits in the top bucket.
        sample = [1] * 10 + [50_000] * 10
        summary = LatencySummary.from_histogram(self.hist_of(sample))
        true_p50 = percentile(sample, 50)
        assert summary.p50 > 1              # old estimator returned 1.0
        assert abs(summary.p50 - true_p50) <= 65_536 - 32_768
        # p95: both endpoints in the top bucket, clamped at the max.
        assert summary.p95 == percentile(sample, 95) == 50_000

    def test_single_populated_bucket(self):
        """All mass in one bucket: every percentile estimate must stay
        inside that bucket and order monotonically with q."""
        from repro.eval.harness import LatencySummary

        sample = [300] * 25    # all in (256, 512]
        summary = LatencySummary.from_histogram(self.hist_of(sample))
        for value in (summary.p50, summary.p95, summary.p99):
            assert 256 < value <= 300   # clamped at the observed max
        assert summary.p50 <= summary.p95 <= summary.p99
        assert summary.max == 300

    def test_estimates_monotone_in_q(self):
        """q1 <= q2 implies estimate(q1) <= estimate(q2), including at
        boundary ranks (non-monotone estimates would let a p95 exceed
        a p99 in dashboards)."""
        from repro.eval.harness import LatencySummary
        import numpy as np

        rng = np.random.default_rng(11)
        for _ in range(20):
            sample = [int(v) for v in rng.lognormal(6, 2, 40)]
            summary = LatencySummary.from_histogram(
                self.hist_of(sample))
            assert summary.p50 <= summary.p95 <= summary.p99 \
                <= summary.max


class TestMerge:
    """Fleet-wide summaries pool raw per-instance samples into one
    summarize_latencies() call, as Fleet.run does."""

    def parts_of(self, seed=3, sizes=(400, 250, 150)):
        import numpy as np

        rng = np.random.default_rng(seed)
        return [[int(v) for v in rng.lognormal(8, 1.5, size)]
                for size in sizes]

    def test_raw_parts_merge_exactly(self):
        """Pooling is exact: identical to percentile() of the pooled
        sample — per-instance percentiles are never combined."""
        from repro.eval.harness import percentile, summarize_latencies

        parts = self.parts_of()
        pooled = [v for part in parts for v in part]
        merged = summarize_latencies(pooled)
        assert merged.count == len(pooled)
        assert merged.p50 == percentile(pooled, 50)
        assert merged.p95 == percentile(pooled, 95)
        assert merged.p99 == percentile(pooled, 99)
        assert merged.max == max(pooled)

    def test_merge_is_not_percentile_of_percentiles(self):
        """Skewed instances, where pooling and averaging per-part p99s
        disagree."""
        from repro.eval.harness import summarize_latencies

        fast = list(range(100, 200))
        slow = list(range(10_000, 10_020))
        merged = summarize_latencies(fast + slow)
        mean_of_p99s = (summarize_latencies(fast).p99
                        + summarize_latencies(slow).p99) / 2
        assert merged.p99 != mean_of_p99s
