"""Chaos campaign plumbing: scenarios, grading, and the verdict.

The full campaign (simulation included) runs in
``benchmarks/bench_chaos.py`` and the CI ``benchmarks`` job; these
tests pin the cheap-but-load-bearing logic around it — scenario
construction, TTD/TTR grading, and the controller-strictly-better
verdict — on synthetic data, without spinning up a SoC.
"""

import numpy as np

from repro.eval.chaos import (
    ChaosReport,
    DEFAULT_RECOVERY_SLOS,
    ScenarioResult,
    _time_to_detect,
    _time_to_recover,
    chaos_scenarios,
)
from repro.metrics import HealthMonitor, MetricsRegistry
from repro.metrics.health import Alert, STATE_FIRING
from repro.serve import Completion
from repro.sim import Environment


def completion(tenant, started_at, completed_at, batch_frames=1):
    return Completion(request_id=0, tenant=tenant, submitted_at=0,
                      started_at=started_at, completed_at=completed_at,
                      n_frames=1, batch_frames=batch_frames,
                      degraded=False, batch_requests=1,
                      outputs=np.zeros((1, 1)))


def result(scenario, controller, recovered, ttr=None):
    return ScenarioResult(
        scenario=scenario, fault_class="acc_hang",
        target_tenant="classifier", controller=controller,
        inject_cycle=100, recovery_slo_cycles=1_000, faults_fired=1,
        ttd_cycles=10, ttr_cycles=ttr, recovered=recovered,
        end_status="healthy" if recovered else "degraded",
        alerts=1, completions=5, rejections=0, failures=0,
        degraded_completions=0, reshards=0)


class TestScenarios:
    def test_full_set_covers_every_declared_fault_class(self):
        scenarios = chaos_scenarios()
        classes = {s.fault_class for s in scenarios}
        assert classes == set(DEFAULT_RECOVERY_SLOS)

    def test_smoke_is_a_subset_with_the_same_slos(self):
        full = {s.name: s for s in chaos_scenarios()}
        for scenario in chaos_scenarios(smoke=True):
            assert scenario.name in full
            assert scenario.recovery_slo_cycles == \
                full[scenario.name].recovery_slo_cycles

    def test_scenario_validates_and_describes(self):
        scenario = chaos_scenarios()[0]
        assert scenario.inject_cycle > 0
        assert scenario.recovery_slo_cycles > 0
        text = scenario.describe()
        assert scenario.fault_class in text

    def test_custom_slo_override(self):
        scenarios = chaos_scenarios(
            recovery_slos={"acc_hang": 123_456})
        hang = next(s for s in scenarios
                    if s.fault_class == "acc_hang")
        assert hang.recovery_slo_cycles == 123_456


class TestGrading:
    def test_time_to_detect_uses_first_post_inject_alert(self):
        registry = MetricsRegistry(Environment())
        monitor = HealthMonitor(registry, [])
        monitor.history.extend([
            Alert(rule="early", severity="warning",
                  state=STATE_FIRING, fired_at=50, detail=""),
            Alert(rule="hit", severity="warning",
                  state=STATE_FIRING, fired_at=140, detail=""),
            Alert(rule="late", severity="warning",
                  state=STATE_FIRING, fired_at=300, detail=""),
        ])
        assert _time_to_detect(monitor, 100) == 40
        assert _time_to_detect(monitor, 301) is None

    def test_time_to_recover_finds_trailing_in_slo_run(self):
        # Per-frame target 100: the 500-cycle completion at 1_000
        # breaks the trailing run; recovery starts at the next one.
        completions = [
            completion("classifier", 0, 90),           # pre-inject
            completion("classifier", 500, 1_000),      # slow (500)
            completion("classifier", 1_960, 2_040),    # good (80)
            completion("classifier", 2_460, 2_520),    # good (60)
            completion("other", 2_900, 9_999),         # wrong tenant
        ]
        assert _time_to_recover(completions, "classifier", 100,
                                per_frame_target=100) == 2_040 - 100

    def test_time_to_recover_requires_min_good_run(self):
        completions = [completion("classifier", 1_900, 2_000)]
        assert _time_to_recover(completions, "classifier", 100,
                                per_frame_target=100) is None
        # A second in-SLO completion meets the two-completion minimum.
        completions.append(completion("classifier", 2_400, 2_500))
        assert _time_to_recover(completions, "classifier", 100,
                                per_frame_target=100) == 1_900

    def test_per_frame_service_is_batch_normalized(self):
        # 400 cycles over 4 frames = 100/frame: inside a 100 target.
        completions = [
            completion("classifier", 1_000, 1_400, batch_frames=4),
            completion("classifier", 2_000, 2_400, batch_frames=4),
        ]
        assert _time_to_recover(completions, "classifier", 0,
                                per_frame_target=100) == 1_400


class TestVerdict:
    def test_controller_strictly_better_requires_clean_sweep(self):
        report = ChaosReport(horizon_cycles=1, calibration={}, results=[
            result("hang", "on", True, ttr=500),
            result("hang", "off", False),
        ])
        assert report.controller_strictly_better
        assert report.recovered_count("on") == 1
        assert report.mttr_by_class("on") == {"acc_hang": 500}

    def test_one_missed_on_arm_fails_the_verdict(self):
        report = ChaosReport(horizon_cycles=1, calibration={}, results=[
            result("hang", "on", True, ttr=500),
            result("crash", "on", False),
            result("hang", "off", False),
            result("crash", "off", False),
        ])
        assert not report.controller_strictly_better

    def test_off_arm_recovering_everything_fails_the_verdict(self):
        report = ChaosReport(horizon_cycles=1, calibration={}, results=[
            result("hang", "on", True, ttr=500),
            result("hang", "off", True, ttr=900),
        ])
        assert not report.controller_strictly_better

    def test_render_and_to_dict_round_trip(self):
        report = ChaosReport(
            horizon_cycles=500_000,
            calibration={"service": {"classifier": 100}},
            results=[result("hang", "on", True, ttr=500),
                     result("hang", "off", False)])
        text = report.render()
        assert "hang" in text and "strictly better: True" in text
        payload = report.to_dict()
        assert payload["recovered_on"] == 1
        assert payload["recovered_off"] == 0
        assert payload["controller_strictly_better"] is True
        assert len(payload["results"]) == 2
