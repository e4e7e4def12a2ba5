"""The control plane: SLO alerts in, bounded remediations out.

The :class:`ControlPlane` subscribes to a :class:`HealthMonitor`
(:meth:`~repro.metrics.health.HealthMonitor.subscribe`) and runs one
decision pass after every evaluation. Everything it does is
synchronous registry/server mutation — it never schedules simulation
events itself — so an attached controller over a healthy system is
timing-invisible: zero-fault runs keep their exact cycle counts.

Remediation playbook (alert -> action):

====================  =====================================================
alert                 remediation
====================  =====================================================
queue-saturation      ``widen-batch`` on the deepest-queued tenant, so one
                      grant drains more of the backlog per arbitration.
accelerator-stall     after ``stall_escalation_evals`` consecutive
                      evaluations with the same device stalled (the
                      in-flight watchdog/retry ladder got its chance):
                      ``force-degrade`` that device to the CPU software
                      fallback, preempting the wait. The stalled set
                      is the rule's own (``stalled_devices`` over
                      ``stall_threshold``), so the streak starts on
                      the evaluation the alert fires.
broken tenant tile    a tile that is registry-failed, forced to software,
(any firing alert)    or quarantined while a tenant's pipeline maps to it:
                      ``activate-spare`` (reserve-pool tile with the same
                      kernel) then ``reshard`` the tenant onto it.
====================  =====================================================

Safety rails: each (kind, target) pair observes ``cooldown_cycles``
between applications, and at most ``max_actions_per_window`` actions
apply per sliding ``window_cycles`` — an alert storm gets a bounded
response, not an unbounded one. Alerts themselves fire and resolve on
a single evaluation; the escalation streak is the loop's one
persistence mechanism.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from ..metrics.health import Alert, HealthMonitor, SloRule, stalled_devices
from .actions import (
    ACTION_ACTIVATE_SPARE,
    ACTION_FORCE_DEGRADE,
    ACTION_RESHARD,
    ACTION_WIDEN_BATCH,
    ControlAction,
    OUTCOME_APPLIED,
    OUTCOME_BUDGET,
    OUTCOME_COOLDOWN,
    OUTCOME_FAILED,
    OUTCOME_NOOP,
)


#: Rule the controller registers at attach: fires while any tenant's
#: pipeline maps to a broken (failed / forced / quarantined) tile.
BROKEN_TILE_RULE = "tenant-tile-broken"


@dataclass(frozen=True)
class ControlConfig:
    """Knobs of the self-healing loop."""

    #: Tiles held out of arbitration as spares; ``attach`` quarantines
    #: them (permanently, no probation) until the controller activates
    #: one to absorb a resharded tenant.
    reserve_pool: Tuple[str, ...] = ()
    #: Minimum cycles between two *applied* actions of the same
    #: (kind, target) pair.
    cooldown_cycles: int = 50_000
    #: Sliding window for the action budget.
    window_cycles: int = 200_000
    #: Applied actions allowed per window, across all kinds.
    max_actions_per_window: int = 8
    #: Consecutive evaluations a device must stay stalled before the
    #: controller forces it to the software fallback (lets the
    #: executor's own watchdog/retry ladder act first).
    stall_escalation_evals: int = 3
    #: Hard cap (frames) on batch widening, which doubles the bound.
    widen_cap: int = 256

    def __post_init__(self) -> None:
        if self.cooldown_cycles < 0 or self.window_cycles < 1:
            raise ValueError("cooldown_cycles must be >= 0 and "
                             "window_cycles >= 1")
        if self.max_actions_per_window < 1:
            raise ValueError("max_actions_per_window must be >= 1")
        if self.stall_escalation_evals < 1:
            raise ValueError("stall_escalation_evals must be >= 1")


class ControlPlane:
    """Closes the loop from health alerts to live remediation."""

    def __init__(self, server, monitor: HealthMonitor,
                 config: Optional[ControlConfig] = None) -> None:
        self.server = server
        self.monitor = monitor
        self.config = config or ControlConfig()
        self.env = server.env
        #: Every decision, applied and suppressed, in cycle order.
        self.actions: List[ControlAction] = []
        self._last_applied: Dict[Tuple[str, str], int] = {}
        self._applied_window: Deque[int] = deque()
        self._stall_streak: Dict[str, int] = {}
        # Pool membership: a spare leaves the pool when a reshard
        # lands a tenant on it. Activation (repair + arbiter
        # re-admission) is tracked separately so a spare activated for
        # a reshard that then got suppressed is not activated twice.
        self._spares: Set[str] = set(self.config.reserve_pool)
        self._activated: Set[str] = set()
        self._attached = False

    # -- lifecycle ------------------------------------------------------------

    def attach(self) -> "ControlPlane":
        """Quarantine the reserve pool and subscribe to the monitor."""
        if self._attached:
            return self
        arbiter = self.server.arbiter
        for tile in sorted(self._spares):
            if tile not in arbiter.tiles:
                raise KeyError(f"reserve tile {tile!r} not on this SoC")
            if tile not in arbiter.unavailable_tiles:
                # Permanent hold (no probation): only the controller
                # releases a spare back into arbitration.
                arbiter.mark_unavailable(tile, probation=False)
        self.monitor.add_rule(SloRule(
            name=BROKEN_TILE_RULE, check=self._broken_rule_check,
            severity="critical",
            description=("a tenant's pipeline maps to a failed, "
                         "forced-to-software, or quarantined tile")))
        self.monitor.subscribe(self._on_evaluate)
        seen = 0

        def scrape(registry) -> None:
            # The control_* families are a scrape-time view of
            # ``actions``: observe only what the last scrape missed.
            nonlocal seen
            for action in self.actions[seen:]:
                registry.control_actions.labels(
                    action.kind, action.outcome).inc()
                if action.applied:
                    registry.control_last_action.labels(
                        action.kind).set(action.cycle)
            seen = len(self.actions)

        self.monitor.registry.register_collector(scrape)
        self._attached = True
        return self

    def applied_actions(self) -> List[ControlAction]:
        return [a for a in self.actions if a.applied]

    # -- the decision pass ----------------------------------------------------

    def _on_evaluate(self, monitor: HealthMonitor,
                     transitions: Sequence[Alert]) -> None:
        """One pass: runs after every monitor evaluation.

        Order matters: stall escalation first (it may force a device
        to software, making it 'broken' for the reshard step in the
        same pass), then reshard/spare activation, then batch
        widening.
        """
        self._escalate_stalls(monitor)
        self._reshard_broken(monitor)
        self._widen_saturated(monitor)

    def _escalate_stalls(self, monitor: HealthMonitor) -> None:
        executor = self.server.executor
        stalled: Dict[str, int] = {}
        if "accelerator-stall" in monitor.active:
            stalled = dict(stalled_devices(
                monitor.registry, self.env.now, self.server.soc))
        for device in list(self._stall_streak):
            if device not in stalled:
                del self._stall_streak[device]
        for device, quiet in sorted(stalled.items()):
            streak = self._stall_streak.get(device, 0) + 1
            self._stall_streak[device] = streak
            if streak < self.config.stall_escalation_evals:
                continue
            if device in executor.forced_software:
                continue

            def force(device: str = device, quiet: int = quiet) -> str:
                executor.force_software(device)
                return (f"{device} quiet {quiet} cycles over "
                        f"{streak} evaluations; forced to CPU "
                        f"software fallback")

            self._act(ACTION_FORCE_DEGRADE, device,
                      "accelerator-stall", force)

    def _broken_tiles(self) -> Set[str]:
        """Tiles a tenant should be moved off: registry-failed, forced
        to software, or quarantined — excluding held reserve tiles."""
        executor = self.server.executor
        arbiter = self.server.arbiter
        broken = set(executor.registry.failed_names())
        broken |= set(executor.forced_software)
        broken |= set(arbiter.unavailable_tiles)
        return broken - (self._spares - self._activated)

    def _broken_rule_check(self, registry, now: int) -> Optional[str]:
        """The BROKEN_TILE_RULE predicate (registered at attach)."""
        broken = self._broken_tiles()
        if not broken:
            return None
        hit = [f"{tenant}:{device}"
               for tenant, tiles in sorted(self.server.tenant_tiles()
                                           .items())
               for device in sorted(tiles & broken)]
        if not hit:
            return None
        return f"tenant tiles broken: {', '.join(hit)}"

    def _reshard_broken(self, monitor: HealthMonitor) -> None:
        if BROKEN_TILE_RULE not in monitor.active:
            return
        broken = self._broken_tiles()
        if not broken:
            return
        rule = BROKEN_TILE_RULE
        for tenant, tiles in sorted(self.server.tenant_tiles().items()):
            for device in sorted(tiles & broken):
                spare = self._pick_spare(device)
                if spare is None:
                    continue
                if spare not in self._activated:
                    action = self._act(
                        ACTION_ACTIVATE_SPARE, spare, rule,
                        lambda s=spare, d=device: self._activate(s, d))
                    if not action.applied:
                        continue
                self._act(ACTION_RESHARD, tenant, rule,
                          lambda t=tenant, d=device, s=spare:
                          self._do_reshard(t, d, s))

    def _pick_spare(self, device: str) -> Optional[str]:
        """A healthy, unused reserve tile running the same kernel."""
        registry = self.server.executor.registry
        executor = self.server.executor
        spec = registry.by_name(device).spec_name
        used: Set[str] = set()
        for tiles in self.server.tenant_tiles().values():
            used |= tiles
        for spare in sorted(self._spares):
            if spare in used or spare == device:
                continue
            if registry.by_name(spare).spec_name != spec:
                continue
            if registry.is_failed(spare) \
                    or spare in executor.forced_software:
                continue
            return spare
        return None

    def _activate(self, spare: str, for_device: str) -> str:
        self.server.repair_tile(spare)
        self.server.arbiter.mark_available(spare)
        self._activated.add(spare)
        return f"reserve tile {spare} activated to replace {for_device}"

    def _do_reshard(self, tenant: str, device: str, spare: str) -> str:
        result = self.server.reshard_tenant(tenant, {device: spare})
        self._spares.discard(spare)
        self._activated.discard(spare)
        self._stall_streak.pop(device, None)
        return f"{tenant}: {device} -> {spare} ({result})"

    def _widen_saturated(self, monitor: HealthMonitor) -> None:
        if "queue-saturation" not in monitor.active:
            return
        queue = self.server.queue
        deepest = max(self.server.tenants,
                      key=lambda t: (queue.tenant_depth(t), t))
        if queue.tenant_depth(deepest) == 0:
            return

        def widen(tenant: str = deepest) -> Optional[str]:
            before = self.server.batch_bound(tenant)
            after = self.server.widen_batch(tenant,
                                            self.config.widen_cap)
            if after == before:
                return None   # already at the cap -> no-op
            return (f"{tenant}: max_batch_frames {before} -> {after} "
                    f"(queue depth {queue.tenant_depth(tenant)})")

        self._act(ACTION_WIDEN_BATCH, deepest, "queue-saturation",
                  widen)

    # -- the action gate ------------------------------------------------------

    def _act(self, kind: str, target: str, rule: str,
             apply: Callable[[], Optional[str]]) -> ControlAction:
        """Run one remediation through cooldown + budget, record it.

        ``apply`` returns a detail string, or ``None`` to signal the
        remediation was a no-op; exceptions become ``failed`` actions
        rather than propagating into the monitor's evaluation."""
        now = self.env.now
        window = self.config.window_cycles
        while self._applied_window \
                and now - self._applied_window[0] >= window:
            self._applied_window.popleft()
        key = (kind, target)
        last = self._last_applied.get(key)
        if last is not None \
                and now - last < self.config.cooldown_cycles:
            return self._record(
                kind, target, rule, OUTCOME_COOLDOWN,
                f"applied at cycle {last}, cooldown "
                f"{self.config.cooldown_cycles}")
        if len(self._applied_window) \
                >= self.config.max_actions_per_window:
            return self._record(
                kind, target, rule, OUTCOME_BUDGET,
                f"{len(self._applied_window)} actions in the last "
                f"{window} cycles (budget "
                f"{self.config.max_actions_per_window})")
        try:
            detail = apply()
        except Exception as exc:
            return self._record(kind, target, rule, OUTCOME_FAILED,
                                f"{type(exc).__name__}: {exc}")
        if detail is None:
            return self._record(kind, target, rule, OUTCOME_NOOP, "")
        self._last_applied[key] = now
        self._applied_window.append(now)
        return self._record(kind, target, rule, OUTCOME_APPLIED, detail)

    def _record(self, kind: str, target: str, rule: str,
                outcome: str, detail: str) -> ControlAction:
        action = ControlAction(cycle=self.env.now, kind=kind,
                               target=target, rule=rule,
                               outcome=outcome, detail=detail)
        self.actions.append(action)
        return action

    # -- reporting ------------------------------------------------------------

    def render(self) -> str:
        applied = self.applied_actions()
        lines = [f"control plane: {len(self.actions)} decisions, "
                 f"{len(applied)} applied, "
                 f"{len(self._spares)} spares in reserve"]
        for action in self.actions:
            lines.append(f"  {action.describe()}")
        return "\n".join(lines)
