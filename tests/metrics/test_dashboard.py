"""Dashboard rendering: tile grid, tenant table, full frame."""

import numpy as np

from repro.eval import build_soc1
from repro.eval.apps import de_cl_inputs
from repro.metrics import (
    HEAT_RAMP,
    HealthMonitor,
    MetricsRegistry,
    default_rules,
    instrument_server,
    render_dashboard,
    render_tenant_table,
    render_tile_grid,
    to_prometheus,
)
from repro.runtime import EspRuntime, chain
from repro.serve import (
    InferenceServer,
    ServerConfig,
    TenantConfig,
    TracedRequest,
)
from repro.sim import Environment


def served_setup(n_requests=2):
    runtime = EspRuntime(build_soc1())
    server = InferenceServer(runtime, ServerConfig())
    server.register(TenantConfig(
        name="denoiser", dataflow=chain("1de-dash", ["de0"]),
        mode="pipe"))
    registry = instrument_server(server)
    frames, _ = de_cl_inputs(n_requests, seed=0)
    server.run_trace([
        TracedRequest(0, "denoiser", np.atleast_2d(frames)[i:i + 1])
        for i in range(n_requests)])
    return runtime.soc, server, registry


def test_heat_ramp_is_monotone_and_bounded():
    assert HEAT_RAMP[0] == " " and len(HEAT_RAMP) == 10


def test_tile_grid_shape_and_cells():
    soc, _, registry = served_setup()
    lines = render_tile_grid(soc, registry)
    # rows of cells interleaved with rows of vertical link heat.
    assert len(lines) == 2 * soc.config.rows - 1
    grid = "\n".join(lines)
    for name in ("de0", "nv0", "cl0"):
        assert name[:4] in grid
    assert "[   cpu   ]" in grid or "cpu" in grid
    assert "mem" in grid


def test_tenant_table_lists_traffic():
    _, _, registry = served_setup()
    registry.collect()      # the table reads what the last scrape set
    lines = render_tenant_table(registry)
    assert any(line.startswith("denoiser") for line in lines)
    header = lines[0]
    assert "p99 cyc" in header
    # Scaled variant switches the unit.
    assert "p99 us" in render_tenant_table(registry,
                                           clock_mhz=500.0)[0]


def test_tenant_table_empty_registry():
    registry = MetricsRegistry(Environment())
    assert render_tenant_table(registry) == ["(no serve traffic yet)"]


def test_full_dashboard_frame():
    soc, server, registry = served_setup()
    monitor = HealthMonitor(registry, default_rules(server))
    monitor.evaluate()
    frame = render_dashboard(soc, registry, monitor)
    assert f" {soc.name}  cycle " in frame
    assert "health: healthy" in frame
    assert "denoiser" in frame
    # Collector-backed utilization gauges got refreshed by the render.
    busy = registry.get("acc_busy_cycles")
    assert any(series.value > 0 for _, series in busy.series())


def test_rendering_leaves_the_exposition_unchanged():
    """Regression: the tenant table read through ``labels()``, which
    created a zero ``serve_failed_total`` series on every render."""
    soc, _, registry = served_setup()
    before = to_prometheus(registry)
    render_dashboard(soc, registry)
    assert to_prometheus(registry) == before


def test_dashboard_shows_firing_alerts():
    soc, server, registry = served_setup()
    from repro.metrics import SloRule
    monitor = HealthMonitor(registry, [SloRule(
        name="always-on", severity="warning",
        check=lambda reg, now: "synthetic violation")])
    monitor.evaluate()
    frame = render_dashboard(soc, registry, monitor)
    assert "FIRING [warning] always-on" in frame
    assert "synthetic violation" in frame
