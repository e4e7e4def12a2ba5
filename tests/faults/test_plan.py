"""Tests for fault plans: spec validation, scheduling, determinism."""

import pytest

from repro.faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    RecoveryPolicy,
    zero_fault_plan,
)


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="meteor_strike", at_cycle=0)

    def test_needs_a_trigger(self):
        with pytest.raises(ValueError, match="at_cycle or a probability"):
            FaultSpec(kind="link_drop")

    def test_probability_bounds(self):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(kind="link_drop", probability=1.5)

    def test_count_bounds(self):
        with pytest.raises(ValueError, match="count"):
            FaultSpec(kind="link_drop", at_cycle=0, count=0)

    def test_duration_bounds(self):
        with pytest.raises(ValueError, match="duration"):
            FaultSpec(kind="dma_stall", at_cycle=0, duration=0)

    def test_factor_bounds(self):
        with pytest.raises(ValueError, match="factor"):
            FaultSpec(kind="acc_slow", at_cycle=0, factor=0.5)

    def test_every_kind_constructs(self):
        for kind in FAULT_KINDS:
            FaultSpec(kind=kind, at_cycle=0)


class TestFaultPlan:
    def test_at_cycle_fires_at_first_opportunity_after(self):
        plan = FaultPlan([FaultSpec(kind="acc_hang", at_cycle=100)])
        assert plan.draw("acc_hang", "dev", 50) is None
        spec = plan.draw("acc_hang", "dev", 100)
        assert spec is not None and spec.fired == 1

    def test_count_exhaustion(self):
        plan = FaultPlan([FaultSpec(kind="acc_hang", at_cycle=0,
                                    count=2)])
        assert plan.draw("acc_hang", "dev", 0) is not None
        assert plan.draw("acc_hang", "dev", 1) is not None
        assert plan.draw("acc_hang", "dev", 2) is None
        assert plan.faults[0].exhausted

    def test_target_filter(self):
        plan = FaultPlan([FaultSpec(kind="acc_crash", target="nv0",
                                    at_cycle=0)])
        assert plan.draw("acc_crash", "cl0", 0) is None
        assert plan.draw("acc_crash", "nv0", 0) is not None

    def test_kind_filter(self):
        plan = FaultPlan([FaultSpec(kind="acc_crash", at_cycle=0)])
        assert plan.draw("acc_hang", "dev", 0) is None

    def test_plane_and_message_kind_filter(self):
        plan = FaultPlan([FaultSpec(kind="link_drop", at_cycle=0,
                                    plane="dma-rsp",
                                    message_kind="DMA_RSP")])
        assert plan.draw("link_drop", None, 0, plane="dma-req",
                         message_kind="DMA_RSP") is None
        assert plan.draw("link_drop", None, 0, plane="dma-rsp",
                         message_kind="DMA_REQ") is None
        assert plan.draw("link_drop", None, 0, plane="dma-rsp",
                         message_kind="DMA_RSP") is not None

    def test_probabilistic_draws_are_seed_deterministic(self):
        def firing_pattern(seed):
            plan = FaultPlan([FaultSpec(kind="link_drop",
                                        probability=0.3, count=None)],
                             seed=seed)
            return [plan.draw("link_drop", None, t) is not None
                    for t in range(50)]

        assert firing_pattern(7) == firing_pattern(7)
        assert firing_pattern(7) != firing_pattern(8)

    def test_event_log_and_summary(self):
        plan = FaultPlan([FaultSpec(kind="acc_hang", at_cycle=0,
                                    count=2)])
        plan.draw("acc_hang", "dev", 5)
        plan.draw("acc_hang", "dev", 9)
        assert plan.fired == 2
        assert [e.cycle for e in plan.events] == [5, 9]
        assert [e.kind for e in plan.events] == ["acc_hang", "acc_hang"]

    def test_zero_fault_plan_never_fires(self):
        plan = zero_fault_plan()
        for kind in FAULT_KINDS:
            assert plan.draw(kind, "dev", 0) is None
        assert plan.events == []

    def test_first_matching_spec_wins(self):
        first = FaultSpec(kind="acc_hang", at_cycle=0, count=1)
        second = FaultSpec(kind="acc_hang", at_cycle=0, count=1)
        plan = FaultPlan([first, second])
        assert plan.draw("acc_hang", "dev", 0) is first
        assert plan.draw("acc_hang", "dev", 1) is second


class TestRecoveryPolicy:
    def test_watchdog_backoff_is_exponential(self):
        policy = RecoveryPolicy(watchdog_cycles=1000, backoff_factor=2.0)
        assert policy.watchdog_for(0) == 1000
        assert policy.watchdog_for(1) == 2000
        assert policy.watchdog_for(2) == 4000

    def test_validation(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(watchdog_cycles=0)
        with pytest.raises(ValueError):
            RecoveryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RecoveryPolicy(backoff_factor=0.5)
