"""Tests for the open-loop workload generator."""

import numpy as np
import pytest

from repro.fleet import (
    TenantLoad,
    WorkloadSpec,
    burst_windows,
    generate_arrivals,
)


def offered_load(spec: WorkloadSpec, arrivals) -> dict:
    """Summary of what the trace asks of the fleet."""
    by_tenant: dict = {}
    for arrival in arrivals:
        entry = by_tenant.setdefault(arrival.tenant,
                                     {"requests": 0, "frames": 0})
        entry["requests"] += 1
        entry["frames"] += arrival.n_frames
    return {
        "requests": len(arrivals),
        "frames": sum(a.n_frames for a in arrivals),
        "horizon_cycles": spec.horizon_cycles,
        "by_tenant": by_tenant,
    }


def spec_of(**overrides):
    base = dict(
        tenants=(TenantLoad("hot", weight=6.0, frames_min=1,
                            frames_max=8),
                 TenantLoad("warm", weight=2.0),
                 TenantLoad("cold", weight=1.0)),
        horizon_cycles=50_000,
        mean_interarrival_cycles=500.0,
        seed=7,
    )
    base.update(overrides)
    return WorkloadSpec(**base)


class TestValidation:
    def test_needs_tenants(self):
        with pytest.raises(ValueError):
            spec_of(tenants=())

    def test_bad_frame_range(self):
        with pytest.raises(ValueError):
            TenantLoad("t", frames_min=3, frames_max=2)

    def test_bad_weight(self):
        with pytest.raises(ValueError):
            TenantLoad("t", weight=0.0)

    def test_diurnal_needs_period(self):
        with pytest.raises(ValueError):
            spec_of(diurnal_amplitude=0.5)

    def test_bursts_need_duration(self):
        with pytest.raises(ValueError):
            spec_of(burst_every_cycles=1_000.0)

    def test_burst_multiplier_at_least_one(self):
        with pytest.raises(ValueError):
            spec_of(burst_every_cycles=1_000.0,
                    burst_duration_cycles=100,
                    burst_multiplier=0.5)


class TestDeterminism:
    def test_same_spec_same_trace(self):
        spec = spec_of(diurnal_period_cycles=50_000,
                       diurnal_amplitude=0.4,
                       burst_every_cycles=10_000.0,
                       burst_duration_cycles=2_000,
                       burst_multiplier=3.0)
        assert generate_arrivals(spec) == generate_arrivals(spec)

    def test_seed_changes_trace(self):
        assert generate_arrivals(spec_of(seed=1)) \
            != generate_arrivals(spec_of(seed=2))


class TestTrace:
    def test_arrivals_ordered_and_bounded(self):
        arrivals = generate_arrivals(spec_of())
        assert all(0 <= a.at < 50_000 for a in arrivals)
        assert all(a.at <= b.at
                   for a, b in zip(arrivals, arrivals[1:]))

    def test_mean_rate_near_base_rate(self):
        """With no envelopes the count concentrates around
        horizon/mean_interarrival (Poisson, ~100 expected)."""
        arrivals = generate_arrivals(spec_of())
        assert 60 <= len(arrivals) <= 140

    def test_skewed_mix_respects_weights(self):
        load = offered_load(spec_of(), generate_arrivals(spec_of()))
        by_tenant = load["by_tenant"]
        assert by_tenant["hot"]["requests"] \
            > by_tenant["warm"]["requests"] \
            > by_tenant["cold"]["requests"]

    def test_frame_counts_within_tenant_range(self):
        arrivals = generate_arrivals(spec_of())
        hot = [a.n_frames for a in arrivals if a.tenant == "hot"]
        assert all(1 <= n <= 8 for n in hot)
        assert max(hot) > 1    # the range is actually exercised
        cold = [a.n_frames for a in arrivals if a.tenant == "cold"]
        assert all(n == 1 for n in cold)

    def test_priority_propagates(self):
        spec = spec_of(tenants=(TenantLoad("t", priority=3),))
        arrivals = generate_arrivals(spec)
        assert arrivals and all(a.priority == 3 for a in arrivals)


class TestEnvelopes:
    def test_bursts_add_arrivals(self):
        calm = generate_arrivals(spec_of())
        bursty = generate_arrivals(spec_of(
            burst_every_cycles=10_000.0, burst_duration_cycles=5_000,
            burst_multiplier=4.0))
        assert len(bursty) > len(calm)

    def test_burst_windows_seeded_and_in_horizon(self):
        spec = spec_of(burst_every_cycles=10_000.0,
                       burst_duration_cycles=2_000)
        first = burst_windows(spec, np.random.default_rng(spec.seed))
        again = burst_windows(spec, np.random.default_rng(spec.seed))
        assert first == again and first
        assert all(0 <= start < spec.horizon_cycles
                   for start, _ in first)

    def test_diurnal_shifts_arrivals_toward_peak(self):
        """With a full-horizon sine envelope the first half of the
        horizon (rising sine) must carry more arrivals than the
        second (falling below base rate)."""
        spec = spec_of(diurnal_period_cycles=50_000,
                       diurnal_amplitude=0.9)
        arrivals = generate_arrivals(spec)
        first = sum(1 for a in arrivals if a.at < 25_000)
        second = len(arrivals) - first
        assert first > second


class TestOfferedLoad:
    def test_totals_consistent(self):
        spec = spec_of()
        arrivals = generate_arrivals(spec)
        load = offered_load(spec, arrivals)
        assert load["requests"] == len(arrivals)
        assert load["frames"] == sum(a.n_frames for a in arrivals)
        assert sum(t["requests"] for t in load["by_tenant"].values()) \
            == load["requests"]
