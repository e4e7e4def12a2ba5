"""Chaos campaign: fault injection against the *live serving stack*.

:mod:`repro.eval.faults` asks "does one pipeline survive one
transient?". This campaign asks the operational question behind the
self-healing control plane: when a fault strikes a multi-tenant
serving SoC under open-loop traffic, how long until the stack
*detects* it (time-to-detect, from the health monitor's alerts) and
how long until the victim tenant is back inside its latency SLO
(time-to-recover, from the completion stream) — and does closing the
loop (:class:`~repro.control.ControlPlane`) beat leaving the runtime's
local watchdog/retry/fallback machinery on its own?

Each scenario injects one fault class into a fresh SoC-1 serving
three tenants (the ``bench_serve`` topology: night-vision on
``nv0 -> cl0`` over p2p, a classifier on ``cl1``, the denoiser on
``de0``), runs the same seeded open-loop trace with the controller on
and off, and grades both arms:

- **TTD**: first alert fired at/after the injection cycle.
- **TTR**: start of the trailing run of in-SLO completions of the
  victim tenant (per-frame service time within ``SERVICE_MARGIN`` x
  the fault-free ceiling), requiring the monitor to end the run with
  no firing alerts.
- **recovered**: a TTR exists and is within the fault class's
  declared recovery SLO.

The controller-off arm still has the full local recovery policy
(watchdog, bounded retry, software fallback) — the comparison
isolates the *control plane's* contribution, not recovery in general.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..control import ControlConfig
from ..faults import FaultSpec, RecoveryPolicy
from ..metrics import HealthMonitor
from ..serve import ServerConfig, TracedRequest
from .fleet import standard_inputs
from .stack import StackSpec, build_stack, soc1_tenants

#: Sampler tick driving monitor evaluation (and thus control passes).
SAMPLE_INTERVAL = 2_500

#: Open-loop arrival period per tenant (cycles between requests).
ARRIVAL_PERIOD = 24_000

#: Per-frame service-time acceptance margin over the fault-free
#: ceiling (recovered hardware serves well under it; the 40x software
#: fallback never does).
SERVICE_MARGIN = 2.0

#: Reserve pool held for the controller: spare NV and Cl tiles that
#: no tenant maps to. (``de0`` has no spare on SoC-1 — a denoiser
#: fault can only be force-degraded, which is why the campaign's
#: reshard scenarios strike nv/cl tiles.)
RESERVE_POOL = ("cl2", "cl3", "nv1", "nv2")

#: The serving-side recovery policy. The watchdog must outlast the
#: longest legitimate p2p streaming invocation (a post-recovery drain
#: batch of up to 16 frames x 8273 cycles), hence the generous bound;
#: the backoff cap keeps the worst retry ladder to 2x that.
CHAOS_POLICY = RecoveryPolicy(watchdog_cycles=200_000, max_retries=1,
                              backoff_factor=2.0,
                              max_watchdog_cycles=400_000,
                              software_fallback=True)


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChaosScenario:
    """One fault class injected into the serving stack."""

    name: str
    fault_class: str            # FAULT_KINDS entry being exercised
    target_tenant: str          # whose SLO the fault attacks
    inject_cycle: int
    #: Declared recovery SLO for this fault class (cycles from
    #: injection to the start of the trailing in-SLO run).
    recovery_slo_cycles: int
    specs: Tuple[FaultSpec, ...] = ()

    def describe(self) -> str:
        return (f"{self.name}: {self.fault_class} vs "
                f"{self.target_tenant} at cycle "
                f"{self.inject_cycle:,} (recovery SLO "
                f"{self.recovery_slo_cycles:,})")


#: Declared recovery SLO per fault class: injection to the start of
#: the trailing in-SLO run. Pipe-mode tenants recover within one
#: forced-degraded batch (~180k software) plus the reshard; a wedged
#: p2p *stream* additionally pays one whole-batch software re-run
#: (~560k at the 40x slowdown) before the reshard can land, hence the
#: larger bound for the stream-striking classes.
DEFAULT_RECOVERY_SLOS = {
    "acc_hang": 400_000,
    "acc_crash": 400_000,
    "acc_slow": 400_000,
    "dma_stall": 750_000,
    "link_drop": 750_000,
}


def chaos_scenarios(inject_cycle: int = 150_000,
                    recovery_slos: Optional[Dict[str, int]] = None,
                    smoke: bool = False) -> List[ChaosScenario]:
    """The campaign's fault classes (a fast subset in smoke mode).

    Persistent faults (``count=None``) model a genuinely broken tile —
    the case only a reshard truly heals; the transient NoC drop
    (``count=1``) models a one-off delivery loss that nonetheless
    wedges a p2p stream.
    """
    slos = dict(DEFAULT_RECOVERY_SLOS)
    slos.update(recovery_slos or {})

    def scenario(name, fault_class, tenant, *specs):
        return ChaosScenario(
            name=name, fault_class=fault_class, target_tenant=tenant,
            inject_cycle=inject_cycle,
            recovery_slo_cycles=slos[fault_class],
            specs=tuple(specs))

    scenarios = [
        scenario("hang-cl1", "acc_hang", "classifier",
                 FaultSpec(kind="acc_hang", target="cl1",
                           at_cycle=inject_cycle, count=None)),
        scenario("crash-cl1", "acc_crash", "classifier",
                 FaultSpec(kind="acc_crash", target="cl1",
                           at_cycle=inject_cycle, count=None)),
    ]
    if not smoke:
        scenarios += [
            scenario("slow-cl1", "acc_slow", "classifier",
                     FaultSpec(kind="acc_slow", target="cl1",
                               at_cycle=inject_cycle, count=None,
                               factor=10.0)),
            scenario("stall-nv0-dma", "dma_stall", "night-vision",
                     FaultSpec(kind="dma_stall", target="nv0",
                               at_cycle=inject_cycle, count=None,
                               duration=None)),
            scenario("drop-p2p-req", "link_drop", "night-vision",
                     FaultSpec(kind="link_drop", at_cycle=inject_cycle,
                               count=1, message_kind="P2P_REQ")),
        ]
    return scenarios


# ---------------------------------------------------------------------------
# The serving stack under test
# ---------------------------------------------------------------------------

#: The control plane of the controller-on arm.
CHAOS_CONTROL = ControlConfig(reserve_pool=RESERVE_POOL,
                              cooldown_cycles=30_000,
                              window_cycles=300_000,
                              max_actions_per_window=12,
                              stall_escalation_evals=3,
                              widen_cap=16)


def chaos_spec(controller_on: bool,
               faults: Sequence[FaultSpec] = (),
               latency_targets: Optional[Dict[str, int]] = None
               ) -> StackSpec:
    """SoC-1 + three tenants + monitor (+ controller, + faults).

    Both arms run the identical local recovery policy; only the
    controller (and the probation it relies on) differs. Each latency
    target arms a request-latency burn rule over ~3 arrival periods of
    headroom: drained backlogs count against recovery until fresh
    requests complete fast again.
    """
    return StackSpec(
        tenants=soc1_tenants("chaos", max_batch_frames=(4, 8, 4)),
        server=ServerConfig(
            max_queue_depth=24,
            probation_cycles=60_000 if controller_on else None),
        recovery=CHAOS_POLICY,
        control=CHAOS_CONTROL if controller_on else None,
        metrics=True,
        latency_targets=tuple(sorted((latency_targets or {}).items())),
        sampler_interval=SAMPLE_INTERVAL,
        faults=tuple(faults))


def chaos_trace(horizon_cycles: int,
                period: int = ARRIVAL_PERIOD,
                seed: int = 0) -> List[TracedRequest]:
    """Open-loop traffic: every tenant submits one frame per period,
    phase-staggered so arrivals do not synchronize."""
    tenants = sorted(tenant.name for tenant in soc1_tenants("chaos"))
    schedule = {tenant: range(index * (period // len(tenants)),
                              horizon_cycles, period)
                for index, tenant in enumerate(tenants)}
    inputs = standard_inputs(max(len(s) for s in schedule.values()),
                             seed=seed)
    return [TracedRequest(at, tenant, inputs[tenant][slot:slot + 1])
            for tenant in tenants
            for slot, at in enumerate(schedule[tenant])]


# ---------------------------------------------------------------------------
# Calibration: fault-free service ceilings
# ---------------------------------------------------------------------------

def calibrate_service(horizon_cycles: int, seed: int = 0
                      ) -> Dict[str, Dict[str, int]]:
    """Fault-free per-tenant ceilings from a golden run.

    Returns ``{"service": per-frame service ceiling, "latency":
    request-latency ceiling}`` per tenant, both with
    ``SERVICE_MARGIN`` headroom. The campaign grades recovery against
    the service ceiling and arms the latency-burn rules with the
    latency ceiling.
    """
    stack = build_stack(chaos_spec(controller_on=False))
    report = stack.server.run_trace(chaos_trace(horizon_cycles,
                                                seed=seed))
    service: Dict[str, int] = {}
    latency: Dict[str, int] = {}
    for completion in report.completions:
        per_frame = ((completion.completed_at - completion.started_at)
                     // max(1, completion.batch_frames))
        service[completion.tenant] = max(
            service.get(completion.tenant, 0), per_frame)
        latency[completion.tenant] = max(
            latency.get(completion.tenant, 0),
            completion.latency_cycles)
    if stack.monitor.history:
        raise RuntimeError(
            f"golden calibration run raised alerts: "
            f"{stack.monitor.history}")
    return {
        "service": {t: int(v * SERVICE_MARGIN)
                    for t, v in sorted(service.items())},
        "latency": {t: int(v * SERVICE_MARGIN)
                    for t, v in sorted(latency.items())},
    }


# ---------------------------------------------------------------------------
# Scenario execution and grading
# ---------------------------------------------------------------------------

@dataclass
class ScenarioResult:
    """One (scenario, arm) run, graded."""

    scenario: str
    fault_class: str
    target_tenant: str
    controller: str                  # "on" | "off"
    inject_cycle: int
    recovery_slo_cycles: int
    faults_fired: int
    ttd_cycles: Optional[int]
    ttr_cycles: Optional[int]
    recovered: bool
    end_status: str                  # monitor.status() at trace end
    alerts: int                      # incidents over the run
    completions: int
    rejections: int
    failures: int
    degraded_completions: int
    reshards: int
    actions: List[str] = field(default_factory=list)
    actions_applied: int = 0

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def _time_to_detect(monitor: HealthMonitor,
                    inject_cycle: int) -> Optional[int]:
    fired = [alert.fired_at for alert in monitor.history
             if alert.fired_at >= inject_cycle]
    return (min(fired) - inject_cycle) if fired else None


def _time_to_recover(completions, tenant: str, inject_cycle: int,
                     per_frame_target: int) -> Optional[int]:
    """Start of the trailing all-in-SLO run of the victim tenant.

    Scans the tenant's post-injection completions newest-first for
    the earliest point after which *every* completion meets the
    per-frame service target (at least two of them).
    """
    post = sorted((c for c in completions
                   if c.tenant == tenant
                   and c.completed_at >= inject_cycle),
                  key=lambda c: c.completed_at)
    start: Optional[int] = None
    good = 0
    for completion in reversed(post):
        per_frame = ((completion.completed_at - completion.started_at)
                     // max(1, completion.batch_frames))
        if per_frame > per_frame_target:
            break
        good += 1
        start = completion.completed_at
    if start is None or good < 2:
        return None
    return start - inject_cycle


def run_scenario(scenario: ChaosScenario, controller_on: bool,
                 horizon_cycles: int,
                 calibration: Dict[str, Dict[str, int]],
                 seed: int = 0) -> ScenarioResult:
    """One arm of one scenario on a fresh SoC."""
    stack = build_stack(replace(
        chaos_spec(controller_on, scenario.specs, calibration["latency"]),
        fault_seed=seed))
    report = stack.server.run_trace(chaos_trace(horizon_cycles,
                                                seed=seed))
    monitor = stack.monitor
    target = calibration["service"][scenario.target_tenant]
    ttd = _time_to_detect(monitor, scenario.inject_cycle)
    ttr = _time_to_recover(report.completions, scenario.target_tenant,
                           scenario.inject_cycle, target)
    end_status = monitor.status()
    recovered = (ttr is not None
                 and ttr <= scenario.recovery_slo_cycles
                 and end_status == "healthy")
    controller = stack.controller
    reshards = sum(stack.server._tenants[t].reshards
                   for t in stack.server.tenants)
    return ScenarioResult(
        scenario=scenario.name,
        fault_class=scenario.fault_class,
        target_tenant=scenario.target_tenant,
        controller="on" if controller_on else "off",
        inject_cycle=scenario.inject_cycle,
        recovery_slo_cycles=scenario.recovery_slo_cycles,
        faults_fired=stack.injector.plan.fired,
        ttd_cycles=ttd,
        ttr_cycles=ttr,
        recovered=recovered,
        end_status=end_status,
        alerts=len(monitor.history),
        completions=len(report.completions),
        rejections=len(report.rejections),
        failures=len(report.failures),
        degraded_completions=sum(
            1 for c in report.completions if c.degraded),
        reshards=reshards,
        actions=[a.describe() for a in controller.actions]
        if controller else [],
        actions_applied=len(controller.applied_actions())
        if controller else 0,
    )


@dataclass
class ChaosReport:
    """The whole campaign: per-scenario arms plus the verdict."""

    horizon_cycles: int
    calibration: Dict[str, Dict[str, int]]
    results: List[ScenarioResult]

    def arm(self, controller: str) -> List[ScenarioResult]:
        return [r for r in self.results if r.controller == controller]

    def mttr_by_class(self, controller: str
                      ) -> Dict[str, Optional[int]]:
        return {r.fault_class: r.ttr_cycles
                for r in self.arm(controller)}

    def recovered_count(self, controller: str) -> int:
        return sum(1 for r in self.arm(controller) if r.recovered)

    @property
    def controller_strictly_better(self) -> bool:
        """Controller-on recovers everything; controller-off does not."""
        on, off = self.arm("on"), self.arm("off")
        return (len(on) > 0
                and self.recovered_count("on") == len(on)
                and self.recovered_count("off") < len(off))

    def render(self) -> str:
        lines = [f"== chaos campaign: {len(self.arm('on'))} scenarios "
                 f"x (controller on|off), horizon "
                 f"{self.horizon_cycles:,} cycles =="]
        header = (f"{'scenario':<16}{'arm':<5}{'TTD':>9}{'TTR':>10}"
                  f"{'recovered':>11}{'alerts':>8}{'actions':>9}"
                  f"{'end':>10}")
        lines.append(header)
        for result in self.results:
            ttd = "-" if result.ttd_cycles is None \
                else f"{result.ttd_cycles:,}"
            ttr = "-" if result.ttr_cycles is None \
                else f"{result.ttr_cycles:,}"
            lines.append(
                f"{result.scenario:<16}{result.controller:<5}"
                f"{ttd:>9}{ttr:>10}"
                f"{str(result.recovered):>11}{result.alerts:>8}"
                f"{result.actions_applied:>9}{result.end_status:>10}")
        lines.append(
            f"recovered: on {self.recovered_count('on')}/"
            f"{len(self.arm('on'))}, off {self.recovered_count('off')}/"
            f"{len(self.arm('off'))}; controller strictly better: "
            f"{self.controller_strictly_better}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "horizon_cycles": self.horizon_cycles,
            "calibration": self.calibration,
            "results": [r.to_dict() for r in self.results],
            "recovered_on": self.recovered_count("on"),
            "recovered_off": self.recovered_count("off"),
            "mttr_on": self.mttr_by_class("on"),
            "mttr_off": self.mttr_by_class("off"),
            "controller_strictly_better":
                self.controller_strictly_better,
        }


def run_chaos_campaign(smoke: bool = False,
                       seed: int = 0) -> ChaosReport:
    """The full campaign: calibrate, then each scenario on/off."""
    horizon_cycles = 500_000 if smoke else 1_200_000
    scenarios = chaos_scenarios(inject_cycle=80_000 if smoke else 150_000,
                                smoke=smoke)
    calibration = calibrate_service(horizon_cycles, seed=seed)
    results: List[ScenarioResult] = []
    for scenario in scenarios:
        for controller_on in (True, False):
            results.append(run_scenario(
                scenario, controller_on, horizon_cycles,
                calibration, seed=seed))
    return ChaosReport(horizon_cycles=horizon_cycles,
                       calibration=calibration, results=results)
