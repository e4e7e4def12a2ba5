"""ControlPlane: attach contract, remediation loop, and safety rails.

The gate tests drive :meth:`ControlPlane._act` directly — an alert
storm is just many calls through the same gate, so cooldown and
budget behavior is pinned without simulating a storm. The scenario
test at the end is the closed loop for real: a hung tile under live
traffic is forced to software, a spare is activated, and the tenant
is resharded onto it.
"""

import numpy as np
import pytest

from repro.control import (
    ACTION_ACTIVATE_SPARE,
    ACTION_FORCE_DEGRADE,
    ACTION_RESHARD,
    ACTION_WIDEN_BATCH,
    BROKEN_TILE_RULE,
    ControlConfig,
    ControlPlane,
    OUTCOME_APPLIED,
    OUTCOME_BUDGET,
    OUTCOME_COOLDOWN,
    OUTCOME_FAILED,
    OUTCOME_NOOP,
)
from repro.eval import build_soc1
from repro.eval.apps import classifier_inputs, de_cl_inputs
from repro.faults import FaultInjector, FaultPlan, FaultSpec, \
    RecoveryPolicy
from repro.metrics import (
    HealthMonitor,
    MetricsSampler,
    accelerator_stall_rule,
    default_rules,
    instrument_server,
    queue_saturation_rule,
    render_control_actions,
)
from repro.runtime import EspRuntime, chain
from repro.serve import (
    InferenceRequest,
    InferenceServer,
    ServerConfig,
    TenantConfig,
    TracedRequest,
)


def make_stack(reserve=("cl2", "cl3"), rules=(), **config):
    """A one-tenant (classifier on cl1) serving stack with the
    controller attached; alerts are driven by the given rules."""
    runtime = EspRuntime(build_soc1(), recovery=RecoveryPolicy(
        watchdog_cycles=200_000, max_retries=1,
        software_fallback=True))
    server = InferenceServer(runtime,
                             ServerConfig(max_queue_depth=8))
    server.register(TenantConfig(name="classifier",
                                 dataflow=chain("1cl-ctl", ["cl1"]),
                                 mode="pipe"))
    registry = instrument_server(server)
    monitor = HealthMonitor(registry, list(rules))
    controller = ControlPlane(server, monitor, ControlConfig(
        reserve_pool=tuple(reserve), **config)).attach()
    return runtime, server, monitor, controller


def advance(env, cycles):
    env.run(until=env.timeout(cycles))


class TestAttach:
    def test_reserve_pool_quarantined_and_rule_registered(self):
        _, server, monitor, controller = make_stack()
        assert {"cl2", "cl3"} <= server.arbiter.unavailable_tiles
        assert BROKEN_TILE_RULE in {r.name for r in monitor.rules}
        # Idempotent: a second attach must not re-register the rule.
        controller.attach()
        names = [r.name for r in monitor.rules]
        assert names.count(BROKEN_TILE_RULE) == 1

    def test_unknown_reserve_tile_rejected(self):
        runtime = EspRuntime(build_soc1())
        server = InferenceServer(runtime, ServerConfig())
        server.register(TenantConfig(
            name="classifier", dataflow=chain("1cl-x", ["cl1"]),
            mode="pipe"))
        registry = instrument_server(server)
        monitor = HealthMonitor(registry, [])
        plane = ControlPlane(server, monitor,
                             ControlConfig(reserve_pool=("zz9",)))
        with pytest.raises(KeyError, match="zz9"):
            plane.attach()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ControlConfig(max_actions_per_window=0)
        with pytest.raises(ValueError):
            ControlConfig(stall_escalation_evals=0)
        with pytest.raises(ValueError):
            ControlConfig(window_cycles=0)


class TestActionGate:
    def test_cooldown_suppresses_then_releases(self):
        _, server, _, controller = make_stack(
            cooldown_cycles=10_000)
        env = server.env
        first = controller._act(ACTION_WIDEN_BATCH, "classifier",
                                "storm", lambda: "ok")
        assert first.outcome == OUTCOME_APPLIED
        held = controller._act(ACTION_WIDEN_BATCH, "classifier",
                               "storm", lambda: "ok")
        assert held.outcome == OUTCOME_COOLDOWN
        # A different target is its own cooldown key.
        other = controller._act(ACTION_WIDEN_BATCH, "other",
                                "storm", lambda: "ok")
        assert other.outcome == OUTCOME_APPLIED
        advance(env, 10_000)
        again = controller._act(ACTION_WIDEN_BATCH, "classifier",
                                "storm", lambda: "ok")
        assert again.outcome == OUTCOME_APPLIED

    def test_budget_bounds_an_alert_storm(self):
        _, server, _, controller = make_stack(
            cooldown_cycles=0, max_actions_per_window=2,
            window_cycles=10_000)
        env = server.env
        outcomes = [controller._act(ACTION_WIDEN_BATCH, f"t{i}",
                                    "storm", lambda: "ok").outcome
                    for i in range(5)]
        assert outcomes == [OUTCOME_APPLIED, OUTCOME_APPLIED,
                            OUTCOME_BUDGET, OUTCOME_BUDGET,
                            OUTCOME_BUDGET]
        # The window slides: after it passes, the budget refills.
        advance(env, 10_000)
        refilled = controller._act(ACTION_WIDEN_BATCH, "t9",
                                   "storm", lambda: "ok")
        assert refilled.outcome == OUTCOME_APPLIED

    def test_failure_is_contained_and_noop_is_free(self):
        _, _, _, controller = make_stack(cooldown_cycles=0)

        def boom():
            raise RuntimeError("remediation exploded")

        failed = controller._act(ACTION_RESHARD, "t", "r", boom)
        assert failed.outcome == OUTCOME_FAILED
        assert "remediation exploded" in failed.detail
        noop = controller._act(ACTION_RESHARD, "t", "r",
                               lambda: None)
        assert noop.outcome == OUTCOME_NOOP
        # Neither consumed budget nor armed the cooldown.
        applied = controller._act(ACTION_RESHARD, "t", "r",
                                  lambda: "ok")
        assert applied.outcome == OUTCOME_APPLIED

    def test_every_decision_is_metric_instrumented(self):
        _, server, monitor, controller = make_stack(
            cooldown_cycles=10_000)
        env = server.env
        advance(env, 500)
        controller._act(ACTION_WIDEN_BATCH, "t", "r", lambda: "ok")
        controller._act(ACTION_WIDEN_BATCH, "t", "r", lambda: "ok")
        registry = monitor.registry
        registry.run_collectors()
        assert registry.control_actions.labels(
            ACTION_WIDEN_BATCH, OUTCOME_APPLIED).value == 1
        assert registry.control_actions.labels(
            ACTION_WIDEN_BATCH, OUTCOME_COOLDOWN).value == 1
        assert registry.control_last_action.labels(
            ACTION_WIDEN_BATCH).value == 500
        rows = "\n".join(render_control_actions(registry))
        assert ACTION_WIDEN_BATCH in rows
        assert OUTCOME_COOLDOWN in rows


class TestBrokenTileLoop:
    def test_failed_tile_activates_spare_and_reshards(self):
        _, server, monitor, controller = make_stack()
        env = server.env
        advance(env, 1_000)
        server.executor.registry.mark_failed("cl1")
        monitor.evaluate()

        assert BROKEN_TILE_RULE in {a.rule for a in monitor.history}
        kinds = [(a.kind, a.target) for a in
                 controller.applied_actions()]
        assert kinds == [(ACTION_ACTIVATE_SPARE, "cl2"),
                         (ACTION_RESHARD, "classifier")]
        assert server.tenant_tiles()["classifier"] == {"cl2"}
        # The consumed spare left the pool and the arbiter hold;
        # the remaining spare is still quarantined.
        assert "cl2" not in server.arbiter.unavailable_tiles
        assert "cl3" in server.arbiter.unavailable_tiles
        # With the tenant moved, the incident resolves.
        monitor.evaluate()
        assert BROKEN_TILE_RULE not in monitor.active

    def test_forced_software_tile_counts_as_broken(self):
        _, server, monitor, controller = make_stack()
        advance(server.env, 1_000)
        server.executor.force_software("cl1")
        monitor.evaluate()
        assert {a.kind for a in controller.applied_actions()} == \
            {ACTION_ACTIVATE_SPARE, ACTION_RESHARD}
        assert server.tenant_tiles()["classifier"] == {"cl2"}

    def test_no_matching_spare_leaves_alert_firing(self):
        # The reserve pool has classifier tiles only; the denoiser's
        # de0 has no compatible spare, so the controller must not act.
        runtime = EspRuntime(build_soc1())
        server = InferenceServer(runtime, ServerConfig())
        server.register(TenantConfig(
            name="denoiser", dataflow=chain("1de-ctl", ["de0"]),
            mode="pipe"))
        registry = instrument_server(server)
        monitor = HealthMonitor(registry, [])
        controller = ControlPlane(server, monitor, ControlConfig(
            reserve_pool=("cl2",))).attach()
        advance(server.env, 1_000)
        server.executor.registry.mark_failed("de0")
        monitor.evaluate()
        assert controller.applied_actions() == []
        assert BROKEN_TILE_RULE in monitor.active


class TestWidenBatch:
    def _saturate(self, server, n=4):
        frames, _ = classifier_inputs(n, seed=1)
        for row in np.atleast_2d(frames):
            rejection = server.queue.submit(
                InferenceRequest(tenant="classifier",
                                 frames=row[np.newaxis, :]),
                now=server.env.now)
            assert rejection is None

    def test_saturation_widens_deepest_tenant(self):
        _, server, monitor, controller = make_stack(
            rules=[queue_saturation_rule(max_depth=8, fraction=0.5)])
        before = server.batch_bound("classifier")
        self._saturate(server)
        monitor.evaluate()
        applied = controller.applied_actions()
        assert [(a.kind, a.target) for a in applied] == \
            [(ACTION_WIDEN_BATCH, "classifier")]
        assert server.batch_bound("classifier") == 2 * before
        # Same alert next tick: the widen is cooldown-held, recorded
        # as a suppressed decision rather than growing unboundedly.
        monitor.evaluate()
        assert controller.actions[-1].outcome == OUTCOME_COOLDOWN

    def test_widen_at_cap_is_noop(self):
        _, server, monitor, controller = make_stack(
            rules=[queue_saturation_rule(max_depth=8, fraction=0.5)],
            widen_cap=1)
        self._saturate(server)
        monitor.evaluate()
        assert controller.actions[-1].outcome == OUTCOME_NOOP
        assert server.batch_bound("classifier") == \
            server.batch_bound("classifier")


class TestClosedLoopScenario:
    """The loop for real: hang under traffic -> force -> reshard."""

    def test_hang_is_forced_then_resharded_under_traffic(self):
        """The controller escalates on the rule's own stalled set: the
        force lands ``stall_escalation_evals - 1`` sampler ticks after
        the stall alert fires (2 x 14370 quiet cycles after cl1
        started, caught on the 30000 tick)."""
        runtime = EspRuntime(build_soc1(), recovery=RecoveryPolicy(
            watchdog_cycles=200_000, max_retries=1,
            software_fallback=True))
        FaultInjector(FaultPlan([
            FaultSpec(kind="acc_hang", target="cl1", at_cycle=1,
                      count=None)])).attach(runtime.soc)
        server = InferenceServer(runtime,
                                 ServerConfig(max_queue_depth=16))
        server.register(TenantConfig(
            name="classifier", dataflow=chain("1cl-loop", ["cl1"]),
            mode="pipe", max_batch_frames=1))
        registry = instrument_server(server)
        monitor = HealthMonitor(registry, [
            accelerator_stall_rule(runtime.soc)])
        controller = ControlPlane(server, monitor, ControlConfig(
            reserve_pool=("cl2",), cooldown_cycles=10_000,
            stall_escalation_evals=2)).attach()
        MetricsSampler(monitor, interval=2_500).start()

        frames, _ = classifier_inputs(6, seed=1)
        trace = [TracedRequest(5_000 * i, "classifier",
                               np.atleast_2d(frames)[i:i + 1])
                 for i in range(6)]
        report = server.run_trace(trace)
        monitor.evaluate()

        assert len(report.completions) == 6
        kinds = [a.kind for a in controller.applied_actions()]
        assert kinds[:3] == [ACTION_FORCE_DEGRADE,
                             ACTION_ACTIVATE_SPARE, ACTION_RESHARD]
        assert server.tenant_tiles()["classifier"] == {"cl2"}
        assert monitor.status() == "healthy"

        stall = next(a for a in monitor.history
                     if a.rule == "accelerator-stall")
        force = controller.applied_actions()[0]
        evals = controller.config.stall_escalation_evals
        assert (stall.fired_at, force.cycle) == (30_000, 32_500)
        assert force.cycle - stall.fired_at == (evals - 1) * 2_500

    def test_dvfs_slowed_tile_is_not_stalled(self):
        """A tile clocked down through DVFS_REG is slow, not stalled:
        its stall threshold scales with the divider, so the default
        rules and the controller leave the healthy tile on hardware."""
        runtime = EspRuntime(build_soc1(), recovery=RecoveryPolicy(
            watchdog_cycles=200_000, max_retries=1,
            software_fallback=True))
        server = InferenceServer(runtime, ServerConfig())
        server.register(TenantConfig(
            name="denoiser", dataflow=chain("1de-dvfs", ["de0"]),
            mode="pipe", dvfs={"de0": 4}))
        registry = instrument_server(server)
        monitor = HealthMonitor(registry, default_rules(server))
        controller = ControlPlane(server, monitor).attach()
        MetricsSampler(monitor, interval=2_500).start()

        frames, _ = de_cl_inputs(2, seed=0)
        trace = [TracedRequest(0, "denoiser",
                               np.atleast_2d(frames)[i:i + 1])
                 for i in range(2)]
        report = server.run_trace(trace)

        assert len(report.completions) == 2
        assert monitor.history == []
        assert controller.actions == []
        assert server.executor.forced_software == set()
        # Two frames of 4 x 14370 compute each, on hardware; a forced
        # software fallback would take ten times longer.
        assert server.env.now < 150_000
