"""The ASCII ops dashboard: one screen of live SoC state.

``python -m repro metrics-top`` renders this during a serving trace —
the simulated counterpart of watching ``htop`` + a Grafana board over
a production inference cluster. One frame shows:

- a header (cycle, events, health status);
- the tile grid with per-accelerator busy fraction and live status;
- a link-utilization heatmap of the mesh (worst plane per hop);
- a per-tenant latency table from the live histograms
  (:meth:`LatencySummary.from_histogram` — bucket-interpolated
  percentiles, exact mean/max);
- the firing alerts, if any.

Rendering reads registry + simulation state only; like every exporter
it cannot perturb simulated timing.
"""

from __future__ import annotations

from typing import List, Optional

from .health import HealthMonitor
from .registry import MetricsRegistry

#: Utilization glyph ramp (0% .. 100%), coarse on purpose: the heatmap
#: is for spotting hot rows, not reading values.
HEAT_RAMP = " .:-=+*#%@"

#: Status register value -> short display tag.
STATUS_TAGS = {0: "idle", 1: "RUN ", 2: "done", 3: "ERR!"}


def _heat_glyph(utilization: float) -> str:
    index = int(min(max(utilization, 0.0), 1.0)
                * (len(HEAT_RAMP) - 1))
    return HEAT_RAMP[index]


def _tile_cell(soc, registry: MetricsRegistry, coord) -> str:
    tile = soc.config.tiles.get(coord)
    if tile is None:
        return "..........."
    if tile.kind != "acc":
        return f"[{tile.kind:^9s}]"
    acc = soc.accelerators[tile.name]
    tag = STATUS_TAGS.get(acc.status, "?")
    busy = acc.utilization()
    return f"[{tile.name[:4]:<4s}{busy:>4.0%}{tag[0]}]"


def _link_utilization(soc, a, b) -> float:
    """Worst per-plane utilization over the two directions of a hop
    (a link the mesh has not created is idle)."""
    worst = 0.0
    for src, dst in ((a, b), (b, a)):
        for plane in soc.mesh.planes:
            link = soc.mesh.links.get((src, dst, plane))
            if link is not None:
                worst = max(worst, link.channel.utilization())
    return worst


def render_tile_grid(soc, registry: MetricsRegistry) -> List[str]:
    """The mesh as rows of tile cells with link-heat glyphs between."""
    lines: List[str] = []
    for y in range(soc.config.rows):
        cells = []
        for x in range(soc.config.cols):
            cells.append(_tile_cell(soc, registry, (x, y)))
            if x + 1 < soc.config.cols:
                heat = _link_utilization(soc, (x, y), (x + 1, y))
                cells.append(_heat_glyph(heat) * 2)
        lines.append(" ".join(cells))
        if y + 1 < soc.config.rows:
            verticals = []
            for x in range(soc.config.cols):
                heat = _link_utilization(soc, (x, y), (x, y + 1))
                verticals.append(f"{_heat_glyph(heat):^11s}")
            lines.append(" ".join(verticals))
    return lines


def _value(family, *labels):
    """A series' value, 0 when absent (read without creating it)."""
    series = family.find(*labels)
    return 0 if series is None else series.value


def render_tenant_table(registry: MetricsRegistry,
                        clock_mhz: Optional[float] = None) -> List[str]:
    """Per-tenant serving table from the registry series as the last
    scrape left them (the ``serve_*`` families are scrape-time views:
    scrape first, as :func:`render_dashboard` does)."""
    tenants = sorted({values[0] for values, _ in
                      registry.serve_admitted.series()})
    if not tenants:
        return ["(no serve traffic yet)"]
    unit = "us" if clock_mhz else "cyc"
    scale = (1.0 / clock_mhz) if clock_mhz else 1.0
    lines = [f"{'tenant':<14}{'ok':>6}{'rej':>5}{'fail':>5}"
             f"{'p50 ' + unit:>10}{'p95 ' + unit:>10}"
             f"{'p99 ' + unit:>10}{'max ' + unit:>10}"]
    for tenant in tenants:
        completed = _value(registry.serve_completed, tenant)
        rejected = sum(
            series.value for values, series in
            registry.serve_rejected.series() if values[0] == tenant)
        failed = _value(registry.serve_failed, tenant)
        latency = registry.serve_request_cycles.find(tenant)
        if latency is not None and latency.count:
            # Imported here, not at module scope: eval aggregates the
            # whole stack (including repro.control, which needs this
            # package), so a top-level metrics -> eval import is a
            # cycle.
            from ..eval.harness import LatencySummary
            s = LatencySummary.from_histogram(latency).scaled(scale)
            tail = (f"{s.p50:>10.1f}{s.p95:>10.1f}{s.p99:>10.1f}"
                    f"{s.max:>10.1f}")
        else:
            tail = f"{'-':>10}{'-':>10}{'-':>10}{'-':>10}"
        lines.append(f"{tenant:<14}{completed:>6}{rejected:>5}"
                     f"{failed:>5}{tail}")
    return lines


def render_control_actions(registry: MetricsRegistry) -> List[str]:
    """Remediation-action counters, from the control-plane families.

    Reads ``control_actions_total`` / ``control_last_action_cycle`` as
    the last scrape left them — renderable with or without a live
    :class:`ControlPlane` attached (empty when no controller ever
    acted)."""
    rows = sorted(registry.control_actions.series())
    if not rows:
        return []
    lines = [f"{'action':<16}{'outcome':<18}{'count':>7}"
             f"{'last applied':>15}"]
    for (action, outcome), series in rows:
        last = _value(registry.control_last_action, action)
        shown = (f"{int(last):,}"
                 if outcome == "applied" and last else "-")
        lines.append(f"{action:<16}{outcome:<18}"
                     f"{int(series.value):>7}{shown:>15}")
    return lines


def render_dashboard(soc, registry: MetricsRegistry,
                     monitor: Optional[HealthMonitor] = None) -> str:
    """One full dashboard frame, from one scrape all its parts read."""
    registry.run_collectors()
    env = registry.env
    status = monitor.status() if monitor is not None else "n/a"
    depth = _value(registry.serve_queue_depth)
    width = max(60, 12 * soc.config.cols)
    lines = [
        "=" * width,
        f" {soc.name}  cycle {env.now:,}  "
        f"events {env.events_processed:,}  queue {depth}  "
        f"health: {status}",
        "=" * width,
        f" tiles ({soc.config.cols}x{soc.config.rows}; link heat "
        f"'{HEAT_RAMP}' = 0..100%):",
    ]
    lines.extend("   " + line for line in render_tile_grid(soc, registry))
    lines.append("-" * width)
    lines.extend(" " + line for line in render_tenant_table(
        registry, clock_mhz=soc.clock_mhz))
    control = render_control_actions(registry)
    if control:
        lines.append("-" * width)
        lines.append(" control plane:")
        lines.extend(" " + line for line in control)
    if monitor is not None and monitor.firing():
        lines.append("-" * width)
        for alert in monitor.firing():
            lines.append(f" FIRING [{alert.severity}] {alert.rule} "
                         f"since cycle {alert.fired_at:,}: "
                         f"{alert.detail}")
    lines.append("=" * width)
    return "\n".join(lines)
