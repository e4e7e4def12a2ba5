"""HealthMonitor rule evaluation, transitions, and the fault scenario.

The last test is the subsystem's acceptance scenario: a hung
accelerator kernel plus an admission-queue pileup on a live serving
run must drive two *distinct* alerts (``accelerator-stall`` and
``queue-saturation``) through the full ``firing -> resolved``
lifecycle, with the stall detected from the progress heartbeat while
the watchdog is still counting down.
"""

import numpy as np
import pytest

from repro.eval import build_soc1
from repro.eval.apps import de_cl_inputs
from repro.faults import FaultInjector, FaultPlan, FaultSpec, \
    RecoveryPolicy
from repro.metrics import (
    HealthMonitor,
    MetricsRegistry,
    MetricsSampler,
    SloRule,
    accelerator_stall_rule,
    default_rules,
    instrument_server,
    latency_burn_rule,
    link_congestion_rule,
    queue_saturation_rule,
    stall_threshold,
)
from repro.metrics.health import STATE_FIRING, STATE_RESOLVED
from repro.runtime import EspRuntime, chain
from repro.serve import (
    InferenceServer,
    ServerConfig,
    TenantConfig,
    TracedRequest,
)
from repro.sim import Environment


def fresh_registry():
    return MetricsRegistry(Environment())


def flag_rule(name="flag", severity="warning"):
    """A rule toggled by mutating ``state['violated']``."""
    state = {"violated": False}

    def check(registry, now):
        return "violated" if state["violated"] else None

    return SloRule(name=name, check=check, severity=severity), state


class TestMonitor:
    def test_fire_hold_resolve(self):
        registry = fresh_registry()
        rule, state = flag_rule()
        monitor = HealthMonitor(registry, [rule])

        assert monitor.evaluate() == []
        assert monitor.status() == "healthy"

        state["violated"] = True
        transitions = monitor.evaluate()
        assert [a.state for a in transitions] == [STATE_FIRING]
        assert monitor.status() == "degraded"
        # Still violated: no new transition, same alert held.
        assert monitor.evaluate() == []
        assert len(monitor.history) == 1

        state["violated"] = False
        transitions = monitor.evaluate()
        assert [a.state for a in transitions] == [STATE_RESOLVED]
        assert monitor.status() == "healthy"
        assert monitor.history[0].resolved_at is not None

    def test_refire_is_a_new_incident(self):
        registry = fresh_registry()
        rule, state = flag_rule()
        monitor = HealthMonitor(registry, [rule])
        for _ in range(2):
            state["violated"] = True
            monitor.evaluate()
            state["violated"] = False
            monitor.evaluate()
        assert len(monitor.history) == 2
        assert all(a.state == STATE_RESOLVED for a in monitor.history)

    def test_critical_dominates_status(self):
        registry = fresh_registry()
        warn, warn_state = flag_rule("warn", "warning")
        crit, crit_state = flag_rule("crit", "critical")
        monitor = HealthMonitor(registry, [warn, crit])
        warn_state["violated"] = crit_state["violated"] = True
        monitor.evaluate()
        assert monitor.status() == "critical"
        assert len(monitor.firing()) == 2
        assert "FIRING [critical] crit" in monitor.render()

    def test_duplicate_rule_names_rejected(self):
        registry = fresh_registry()
        rule, _ = flag_rule()
        with pytest.raises(ValueError):
            HealthMonitor(registry, [rule, rule])
        monitor = HealthMonitor(registry, [rule])
        with pytest.raises(ValueError):
            monitor.add_rule(rule)

    def test_bad_severity_rejected(self):
        with pytest.raises(ValueError):
            SloRule(name="x", check=lambda r, n: None,
                    severity="catastrophic")


class TestHysteresisAndHistory:
    """Alert lifecycle history and evaluation subscribers. Alerts fire
    and resolve on one evaluation; acting on a persistent breach is
    the controller's escalation streak (``tests/control``)."""

    def advance(self, registry, cycles):
        env = registry.env
        env.run(until=env.timeout(cycles))

    def test_lifecycle_history_is_ordered_and_non_overlapping(self):
        """Repeated fire -> resolve -> fire cycles on one rule keep an
        ordered, non-overlapping history with the cycle of the first
        breaching and the first clean evaluation of each incident."""
        registry = fresh_registry()
        rule, state = flag_rule()
        monitor = HealthMonitor(registry, [rule])
        expected = []
        for _ in range(3):
            state["violated"] = True
            self.advance(registry, 100)
            monitor.evaluate()          # fires on the first breach
            expected.append({"fired_at": registry.env.now})
            self.advance(registry, 100)
            monitor.evaluate()          # held: same incident
            state["violated"] = False
            self.advance(registry, 100)
            monitor.evaluate()          # resolves on the first clean
            expected[-1]["resolved_at"] = registry.env.now
            self.advance(registry, 100)
            monitor.evaluate()          # stays resolved

        assert len(monitor.history) == 3
        assert monitor.active == {}
        for alert, want in zip(monitor.history, expected):
            assert alert.state == STATE_RESOLVED
            assert alert.fired_at == want["fired_at"]
            assert alert.resolved_at == want["resolved_at"]
            assert alert.fired_at < alert.resolved_at
        # Ordered and non-overlapping: each incident resolves before
        # the next one fires.
        for earlier, later in zip(monitor.history,
                                  monitor.history[1:]):
            assert earlier.resolved_at <= later.fired_at
        # The fourth incident, left firing, appends after all three.
        state["violated"] = True
        self.advance(registry, 100)
        monitor.evaluate()
        assert len(monitor.history) == 4
        assert monitor.history[-1].state == STATE_FIRING
        assert monitor.history[-1].fired_at >= \
            monitor.history[-2].resolved_at

    def test_subscribers_run_after_every_evaluation(self):
        registry = fresh_registry()
        rule, state = flag_rule()
        monitor = HealthMonitor(registry, [rule])
        seen = []
        monitor.subscribe(
            lambda mon, transitions: seen.append(
                (mon is monitor, [a.state for a in transitions])))
        monitor.evaluate()                   # quiet pass still notifies
        state["violated"] = True
        monitor.evaluate()
        monitor.evaluate()                   # persistence, no transition
        assert seen == [(True, []), (True, [STATE_FIRING]),
                        (True, [])]


class TestRuleFactories:
    def test_queue_saturation(self):
        registry = fresh_registry()
        rule = queue_saturation_rule(max_depth=10, fraction=0.8)
        registry.serve_queue_depth.set(7)
        assert rule.check(registry, 0) is None
        registry.serve_queue_depth.set(8)
        assert "queue depth 8 >= 8" in rule.check(registry, 0)

    def test_latency_slo_quiet_below_min_requests(self):
        registry = fresh_registry()
        rule = latency_burn_rule("t", target_cycles=100,
                                 min_requests=5)
        series = registry.serve_request_cycles.labels("t")
        for _ in range(4):
            series.observe(10_000)   # way over, but too few samples
        assert rule.check(registry, 0) is None
        series.observe(10_000)
        assert "error budget" in rule.description
        assert rule.check(registry, 0) is not None

    def test_latency_slo_within_budget(self):
        registry = fresh_registry()
        rule = latency_burn_rule("t", target_cycles=1 << 20,
                                 error_budget=0.5)
        series = registry.serve_request_cycles.labels("t")
        for _ in range(10):
            series.observe(100)
        assert rule.check(registry, 0) is None

    def test_latency_burn_resolves_once_recent_requests_are_fast(self):
        registry = fresh_registry()
        rule = latency_burn_rule("t", target_cycles=1024,
                                 error_budget=0.25, min_requests=2)
        series = registry.serve_request_cycles.labels("t")
        for _ in range(8):
            series.observe(100_000)
        assert "100.0% of last 8 requests" in rule.check(registry, 0)
        # The cumulative histogram is still 80% over target, but the
        # two completions since the last check were fast.
        series.observe(100)
        series.observe(100)
        assert series.fraction_over(1024) == 0.8
        assert rule.check(registry, 0) is None

    def test_latency_burn_holds_verdict_through_sparse_windows(self):
        registry = fresh_registry()
        rule = latency_burn_rule("t", target_cycles=1024,
                                 min_requests=2)
        series = registry.serve_request_cycles.labels("t")
        series.observe(100_000)
        series.observe(100_000)
        breach = rule.check(registry, 0)
        assert breach is not None
        # A stalled tenant completing nothing stays in breach; one
        # fast completion is too few to change the verdict.
        assert rule.check(registry, 0) == breach
        series.observe(100)
        assert rule.check(registry, 0) == breach
        # The second fast completion closes the window: clean again,
        # and a quiet window after that stays clean.
        series.observe(100)
        assert rule.check(registry, 0) is None
        assert rule.check(registry, 0) is None

    def test_link_congestion_silent_without_collectors(self):
        registry = fresh_registry()
        rule = link_congestion_rule()
        assert rule.check(registry, 0) is None
        # With the gauge present the worst offender is named.
        gauge = registry.gauge("noc_link_utilization", "",
                               ("link", "plane"))
        gauge.labels("0,0->1,0", "dma-req").set(0.95)
        gauge.labels("1,0->1,1", "dma-rsp").set(0.97)
        detail = rule.check(registry, 0)
        assert "1,0->1,1" in detail and "97%" in detail

    def test_accelerator_stall_needs_running_status(self):
        from repro.soc.registers import STATUS_RUNNING
        registry = fresh_registry()
        rule = accelerator_stall_rule(build_soc1())
        status = registry.gauge("acc_status", "", ("device",))
        registry.acc_last_progress.labels("de0").set(0)
        # Idle device: never a stall, however quiet.
        status.labels("de0").set(0)
        assert rule.check(registry, 100_000) is None
        # Running and quiet past the threshold: stalled.
        status.labels("de0").set(STATUS_RUNNING)
        assert rule.check(registry, 28_740) is None
        assert "de0" in rule.check(registry, 28_741)
        assert "threshold 28740" in rule.check(registry, 28_741)

    def test_stall_threshold_scales_with_dvfs_divider(self):
        from repro.soc.registers import DVFS_REG, MAX_DVFS_DIVIDER
        soc = build_soc1()
        regs = soc.accelerators["de0"].regs
        for divider, expected in [(0, 1), (1, 1), (4, 4),
                                  (MAX_DVFS_DIVIDER, MAX_DVFS_DIVIDER),
                                  (64, MAX_DVFS_DIVIDER)]:
            regs.write(DVFS_REG, divider)
            assert stall_threshold(soc, "de0") == 28_740 * expected
        # Per device: a neighbour at full speed keeps the base.
        assert stall_threshold(soc, "nv0") == 28_740

    def test_default_rules_derive_quiet_cycles(self):
        runtime = EspRuntime(build_soc1())
        server = InferenceServer(runtime, ServerConfig())
        server.register(TenantConfig(
            name="denoiser", dataflow=chain("1de-hr", ["de0"]),
            mode="pipe"))
        rules = default_rules(server)
        assert [r.name for r in rules] == [
            "queue-saturation", "link-congestion", "accelerator-stall"]
        # 2x the slowest kernel (de0: 14370) — one full COMPUTE phase
        # of heartbeat silence is legitimate, twice that is not.
        assert stall_threshold(server.soc, "de0") == 28_740
        assert stall_threshold(server.soc, "cl0") == 28_740


class TestFaultScenario:
    """Acceptance: acc hang + queue pileup -> two alerts, full cycle."""

    def test_hang_and_saturation_fire_and_resolve(self):
        runtime = EspRuntime(
            build_soc1(),
            recovery=RecoveryPolicy(watchdog_cycles=45_000,
                                    max_retries=2,
                                    software_fallback=False))
        FaultInjector(FaultPlan([
            FaultSpec(kind="acc_hang", target="de0", at_cycle=1,
                      count=1)])).attach(runtime.soc)
        # max_batch_frames=1 defeats coalescing so queued requests sit
        # in the admission queue (not one batch) while de0 is hung.
        server = InferenceServer(runtime,
                                 ServerConfig(max_queue_depth=8))
        server.register(TenantConfig(
            name="denoiser", dataflow=chain("1de-hang", ["de0"]),
            mode="pipe", max_batch_frames=1))
        registry = instrument_server(server)
        monitor = HealthMonitor(registry, [
            # Depth >= 4 of 8 while the hung batch blocks the loop.
            queue_saturation_rule(max_depth=8, fraction=0.5),
            # One COMPUTE phase of silence (14370) is legitimate;
            # twice that (28740) is not, and the watchdog only fires
            # at 45000 — the monitor sees the stall before recovery
            # kicks in.
            accelerator_stall_rule(runtime.soc),
        ])
        MetricsSampler(monitor, interval=2_500).start()

        frames, _ = de_cl_inputs(6, seed=0)
        trace = [TracedRequest(500 * i, "denoiser",
                               np.atleast_2d(frames)[i:i + 1])
                 for i in range(6)]
        report = server.run_trace(trace)
        monitor.evaluate()

        # The hang was recovered, not dropped: all six served.
        assert len(report.completions) == 6
        assert registry.get(
            "runtime_watchdog_timeouts_total").total >= 1

        by_rule = {}
        for alert in monitor.history:
            by_rule.setdefault(alert.rule, []).append(alert)
        assert {"queue-saturation", "accelerator-stall"} <= \
            set(by_rule), monitor.history
        for rule in ("queue-saturation", "accelerator-stall"):
            alert = by_rule[rule][0]
            assert alert.state == STATE_RESOLVED, alert
            assert alert.resolved_at > alert.fired_at > 0, alert
        # The stall was caught mid-hang, before the watchdog (45000)
        # reset the tile.
        stall = by_rule["accelerator-stall"][0]
        assert stall.fired_at < 45_000
        assert monitor.status() == "healthy"

    def test_slow_fault_on_a_dvfs_tile_still_trips_the_stall(self):
        """The threshold scales by the divider the driver programmed
        (DVFS_REG = 2), not by the one an ``acc_slow`` fault stretches
        (2 x 4 = 8): the spike stays visible as a stall."""
        runtime = EspRuntime(build_soc1())
        FaultInjector(FaultPlan([
            FaultSpec(kind="acc_slow", target="de0", at_cycle=1,
                      count=1, factor=4.0)])).attach(runtime.soc)
        server = InferenceServer(runtime, ServerConfig())
        server.register(TenantConfig(
            name="denoiser", dataflow=chain("1de-slow", ["de0"]),
            mode="pipe", dvfs={"de0": 2}))
        registry = instrument_server(server)
        monitor = HealthMonitor(registry, [
            accelerator_stall_rule(runtime.soc)])
        MetricsSampler(monitor, interval=2_500).start()

        frames, _ = de_cl_inputs(1, seed=0)
        report = server.run_trace([
            TracedRequest(0, "denoiser", np.atleast_2d(frames)[:1])])

        assert len(report.completions) == 1
        assert stall_threshold(runtime.soc, "de0") == 2 * 28_740
        assert [a.rule for a in monitor.history] == ["accelerator-stall"]
        assert "threshold 57480" in monitor.history[0].detail
