"""Declarative SLO rules and the firing/resolved health monitor.

A production serving stack does not read dashboards — it evaluates
*rules* against the live metrics and pages when one fires. This module
is that layer for the simulated SoC: an :class:`SloRule` is a named
predicate over the :class:`MetricsRegistry`; the :class:`HealthMonitor`
scrapes the registry, evaluates its rule set and tracks each rule's
alert through the ``firing -> resolved`` transition, keeping a history
of every transition with the cycle it happened at. An alert fires on
the first breaching evaluation and resolves on the first clean one;
acting only on a *persistent* breach is the control plane's job
(``ControlConfig.stall_escalation_evals``).

Rule factories for the standard failure modes ship below:

- :func:`queue_saturation_rule` — admission queue near its bound;
- :func:`latency_burn_rule` — a tenant burning its latency error
  budget over the requests completed since the last evaluation, so
  the alert resolves once recent requests are fast again;
- :func:`link_congestion_rule` — a NoC link above a utilization
  ceiling;
- :func:`accelerator_stall_rule` — a tile whose status register says
  RUNNING but whose progress heartbeat has gone quiet for longer than
  :func:`stall_threshold` (the observable signature of a hung kernel
  or wedged DMA engine).

:func:`stall_threshold` is the one definition of "quiet too long":
the stall rule and the control plane's force-degrade escalation both
read it through :func:`stalled_devices`, so they cannot disagree.

Evaluation reads registry state only: it never schedules events, so a
monitor (like all recording) cannot perturb simulated timing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from .registry import MetricsRegistry

#: Alert severities, mildest first. ``status()`` reports the worst
#: severity among currently-firing alerts.
SEVERITIES = ("info", "warning", "critical")

STATE_FIRING = "firing"
STATE_RESOLVED = "resolved"


@dataclass(frozen=True)
class SloRule:
    """One declarative health rule.

    ``check(registry, now)`` returns ``None`` when the rule is
    satisfied, or a human-readable violation detail when it is not.
    """

    name: str
    check: Callable[[MetricsRegistry, int], Optional[str]]
    severity: str = "warning"
    description: str = ""

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"severity must be one of {SEVERITIES}, "
                             f"got {self.severity!r}")


@dataclass
class Alert:
    """One rule's alert lifecycle: fired at some cycle, maybe resolved."""

    rule: str
    severity: str
    state: str
    fired_at: int
    detail: str
    resolved_at: Optional[int] = None

    @property
    def is_firing(self) -> bool:
        return self.state == STATE_FIRING

    def __repr__(self) -> str:
        window = (f"@{self.fired_at}"
                  if self.resolved_at is None
                  else f"@{self.fired_at}..{self.resolved_at}")
        return (f"<Alert {self.rule} [{self.severity}] {self.state} "
                f"{window}>")


@dataclass
class HealthMonitor:
    """Evaluates a rule set against the registry; tracks transitions."""

    registry: MetricsRegistry
    rules: Sequence[SloRule] = ()
    #: Currently-firing alert per rule name.
    active: Dict[str, Alert] = field(default_factory=dict)
    #: Every alert ever raised (firing and resolved), in fire order.
    history: List[Alert] = field(default_factory=list)
    evaluations: int = 0

    def __post_init__(self) -> None:
        names = [rule.name for rule in self.rules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate rule names in {names}")
        self.rules = list(self.rules)
        self._subscribers: List[Callable[..., None]] = []

    def add_rule(self, rule: SloRule) -> None:
        if any(r.name == rule.name for r in self.rules):
            raise ValueError(f"rule {rule.name!r} already registered")
        self.rules.append(rule)

    def subscribe(self, fn: Callable[..., None]) -> None:
        """Register ``fn(monitor, transitions)`` to run after every
        evaluation pass (even when nothing transitioned — subscribers
        like the control plane also act on alert *persistence*)."""
        self._subscribers.append(fn)

    def evaluate(self) -> List[Alert]:
        """One evaluation pass; returns alerts that *transitioned*.

        Scrapes the registry (its one scrape), then checks every
        rule: a violation with no active alert fires one; a satisfied
        rule with an active alert resolves it. A rule that stays
        violated keeps its original alert (and ``fired_at``) — alerts
        do not re-fire on every tick, only on state changes, so the
        history length measures incidents, not evaluations.
        Subscribers registered via :meth:`subscribe` run after the
        pass.
        """
        self.registry.run_collectors()
        now = self.registry.env.now
        self.evaluations += 1
        transitions: List[Alert] = []
        for rule in self.rules:
            detail = rule.check(self.registry, now)
            alert = self.active.get(rule.name)
            if detail is not None:
                if alert is None:
                    alert = Alert(rule=rule.name,
                                  severity=rule.severity,
                                  state=STATE_FIRING, fired_at=now,
                                  detail=detail)
                    self.active[rule.name] = alert
                    self.history.append(alert)
                    transitions.append(alert)
                else:
                    alert.detail = detail   # keep the message current
            elif alert is not None:
                alert.state = STATE_RESOLVED
                alert.resolved_at = now
                del self.active[rule.name]
                transitions.append(alert)
        for fn in self._subscribers:
            fn(self, transitions)
        return transitions

    def status(self) -> str:
        """``healthy`` / ``degraded`` / ``critical`` right now."""
        if not self.active:
            return "healthy"
        worst = max(SEVERITIES.index(a.severity)
                    for a in self.active.values())
        return "critical" if SEVERITIES[worst] == "critical" \
            else "degraded"

    def firing(self) -> List[Alert]:
        return sorted(self.active.values(), key=lambda a: a.fired_at)

    def render(self) -> str:
        lines = [f"health: {self.status()} "
                 f"({self.evaluations} evaluations, "
                 f"{len(self.history)} incidents)"]
        for alert in self.firing():
            lines.append(f"  FIRING [{alert.severity}] {alert.rule} "
                         f"since cycle {alert.fired_at}: {alert.detail}")
        return "\n".join(lines)


class MetricsSampler:
    """Opt-in periodic evaluation loop running *inside* the simulation.

    Recording is passive, so live views (the dashboard, SLO evaluation
    during a run) need something to trigger scrapes while the event
    loop is owned by a workload. The sampler is that trigger: a
    simulation process whose every tick, each ``interval`` cycles, is
    one ``monitor.evaluate()``: one scrape, the rules, then the
    monitor's subscribers, where anything that runs on a tick goes.

    Determinism note: the sampler schedules its own timeout events, so
    it adds to ``events_processed`` — but pure timeouts cannot perturb
    any other process, so simulated *cycle* counts of the workload are
    unchanged. Runs that pin event counts (the ``SEED_EVENTS`` and
    ``SMOKE_EVENTS`` of ``tests/specs.py``, the ledger's) must not arm
    a sampler; runs that pin cycle counts may.
    """

    def __init__(self, monitor: HealthMonitor, interval: int,
                 max_samples: Optional[int] = None) -> None:
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        self.monitor = monitor
        self.interval = interval
        self.max_samples = max_samples
        self.samples_taken = 0
        self._process = None
        self._stopped = False

    def start(self) -> "MetricsSampler":
        if self._process is not None:
            return self
        env = self.monitor.registry.env
        self._process = env.process(self._loop(), name="metrics-sampler")
        return self

    def stop(self) -> None:
        self._stopped = True
        if self._process is not None and self._process.is_alive:
            self._process.interrupt("sampler stopped")
        self._process = None

    def _loop(self):
        env = self.monitor.registry.env
        while not self._stopped:
            yield env.timeout(self.interval)
            if self._stopped:
                return
            self.monitor.evaluate()
            self.samples_taken += 1
            if (self.max_samples is not None
                    and self.samples_taken >= self.max_samples):
                return


# -- rule factories ---------------------------------------------------------

def _gauge_series(registry: MetricsRegistry, name: str):
    """Series of a gauge family, or [] when it never got registered."""
    try:
        family = registry.get(name)
    except KeyError:
        return []
    return family.series()


def queue_saturation_rule(max_depth: int, fraction: float = 0.8,
                          severity: str = "warning") -> SloRule:
    """Fires while the serve queue is at >= ``fraction`` of its bound."""
    threshold = max(1, int(max_depth * fraction))

    def check(registry: MetricsRegistry, now: int) -> Optional[str]:
        depth = registry.serve_queue_depth.value
        if depth >= threshold:
            return (f"queue depth {depth} >= {threshold} "
                    f"({fraction:.0%} of max_depth {max_depth})")
        return None

    return SloRule(
        name="queue-saturation", check=check, severity=severity,
        description=(f"admission queue at {fraction:.0%} of its "
                     f"{max_depth}-request bound"))


def latency_burn_rule(tenant: str, target_cycles: int,
                      error_budget: float = 0.25,
                      min_requests: int = 2,
                      severity: str = "warning") -> SloRule:
    """Fires while ``tenant``'s *recent* completions burn the budget.

    The burn is evaluated over the **delta** between evaluations: the
    fraction of requests completed since the last check whose
    end-to-end latency exceeded ``target_cycles``, read from the
    ``serve_request_cycles`` histogram buckets (conservative: a
    request sharing the target's bucket counts as over — see
    ``HistogramSeries.fraction_over``). A burn over the cumulative
    histogram could never resolve once enough slow requests piled up;
    the delta resolves as soon as a remediation restores fast serving.
    Windows with fewer than ``min_requests`` new completions hold the
    previous verdict (a stalled tenant completing nothing stays in
    breach; a quiet healthy tenant stays clean).
    """
    state = {"count": 0.0, "over": 0.0, "breaching": False}

    def check(registry: MetricsRegistry, now: int) -> Optional[str]:
        series = registry.serve_request_cycles.labels(tenant)
        count = float(series.count)
        over = series.fraction_over(target_cycles) * count \
            if count else 0.0
        d_count = count - state["count"]
        d_over = over - state["over"]
        if d_count >= min_requests:
            state["count"], state["over"] = count, over
            fraction = d_over / d_count
            state["breaching"] = fraction > error_budget
            if state["breaching"]:
                state["detail"] = (
                    f"tenant {tenant!r}: {fraction:.1%} of last "
                    f"{int(d_count)} requests over {target_cycles} "
                    f"cycles (budget {error_budget:.1%})")
        if state["breaching"]:
            return state.get(
                "detail",
                f"tenant {tenant!r} burning latency budget")
        return None

    return SloRule(
        name=f"latency-burn:{tenant}", check=check, severity=severity,
        description=(f"{tenant!r} recent requests over "
                     f"{target_cycles} cycles beyond a "
                     f"{error_budget:.1%} error budget"))


def link_congestion_rule(threshold: float = 0.9,
                         severity: str = "warning") -> SloRule:
    """Fires while any NoC link's utilization exceeds ``threshold``.

    Needs the SoC collectors (``register_soc_collectors``) so the
    ``noc_link_utilization`` gauges exist; without them the rule is
    silent rather than failing.
    """

    def check(registry: MetricsRegistry, now: int) -> Optional[str]:
        worst = None
        for values, series in _gauge_series(registry,
                                            "noc_link_utilization"):
            if series.value > threshold and (
                    worst is None or series.value > worst[1]):
                worst = (values, series.value)
        if worst is not None:
            (link, plane), utilization = worst[0], worst[1]
            return (f"link {link} plane {plane} at "
                    f"{utilization:.0%} utilization "
                    f"(threshold {threshold:.0%})")
        return None

    return SloRule(
        name="link-congestion", check=check, severity=severity,
        description=f"a NoC link above {threshold:.0%} utilization")


def stall_threshold(soc, device: str) -> int:
    """Heartbeat-quiet cycles after which a RUNNING ``device`` is
    stalled.

    The base is twice the slowest kernel's per-frame compute latency
    on ``soc``: the longest legitimate heartbeat gap is one COMPUTE
    phase (no DMA completes while the kernel crunches), so 2x that
    cannot false-positive on a healthy tile, while a hung kernel stays
    quiet forever. A tile clocked down through ``DVFS_REG`` computes
    that many times slower, so the base scales by its configured
    divider (clamped like the wrapper clamps it). The register holds
    what the driver programmed, not the divider an ``acc_slow`` fault
    stretches, so a latency spike still trips the rule.
    """
    from ..soc.registers import DVFS_REG, MAX_DVFS_DIVIDER

    slowest = max(tile.spec.latency_cycles
                  for tile in soc.accelerators.values())
    divider = soc.accelerators[device].regs.read(DVFS_REG)
    return 2 * slowest * min(MAX_DVFS_DIVIDER, max(1, divider))


def stalled_devices(registry: MetricsRegistry, now: int,
                    soc) -> List[tuple]:
    """``(device, quiet)`` pairs for RUNNING tiles whose progress
    heartbeat is older than their :func:`stall_threshold`.

    Shared by :func:`accelerator_stall_rule` and the control plane
    (which needs the offending device names, not just the alert
    detail string). Needs the SoC collectors for the ``acc_status``
    gauge; returns ``[]`` without them.
    """
    from ..soc.registers import STATUS_RUNNING

    stalled = []
    for values, series in _gauge_series(registry, "acc_status"):
        if series.value != STATUS_RUNNING:
            continue
        device = values[0]
        last = registry.acc_last_progress.labels(device).value
        quiet = now - last
        if quiet > stall_threshold(soc, device):
            stalled.append((device, quiet))
    return stalled


def accelerator_stall_rule(soc, severity: str = "critical") -> SloRule:
    """Fires while a RUNNING tile's progress heartbeat is quiet.

    A healthy invocation completes DMA transactions continuously;
    ``acc_last_progress_cycle`` tracks the latest one per device. A
    device whose ``STATUS_REG`` reads RUNNING but whose heartbeat is
    older than its :func:`stall_threshold` is wedged — a hung kernel,
    a dead DMA engine, or a lost p2p request upstream. Needs the SoC
    collectors for the live ``acc_status`` gauge.
    """

    def check(registry: MetricsRegistry, now: int) -> Optional[str]:
        stalled = stalled_devices(registry, now, soc)
        if stalled:
            worst = max(stalled, key=lambda s: s[1])
            return (f"device {worst[0]!r} RUNNING with no progress "
                    f"for {worst[1]} cycles (threshold "
                    f"{stall_threshold(soc, worst[0])}); "
                    f"{len(stalled)} stalled total")
        return None

    return SloRule(
        name="accelerator-stall", check=check, severity=severity,
        description=("a RUNNING tile quiet for longer than its "
                     "stall threshold (2x the slowest kernel, times "
                     "its DVFS divider)"))


def default_rules(server) -> List[SloRule]:
    """A sensible rule set for one :class:`InferenceServer`."""
    return [
        queue_saturation_rule(server.config.max_queue_depth),
        link_congestion_rule(),
        accelerator_stall_rule(server.soc),
    ]
