"""Live metrics, health and SLO monitoring for the simulated SoC.

The operational-visibility counterpart of :mod:`repro.trace`: where
the tracer logs every event for post-hoc analysis, this package keeps
*aggregated live state* — counters, gauges and fixed-bucket histograms
— cheap enough to leave on in production-sized runs, plus the layers a
serving operator needs on top: scrape-time collectors over the
hardware counters, declarative SLO rules with firing/resolved alerts,
Prometheus/JSON exporters and an ASCII dashboard.

Quick start::

    from repro.metrics import attach_metrics, instrument_server

    registry = instrument_server(server)     # attach + collectors
    server.run_trace(trace)
    print(to_prometheus(registry))           # scrape

Recording never yields or schedules: metrics-enabled runs are
cycle-for-cycle identical to metrics-off runs (asserted by
``benchmarks/bench_metrics.py`` and ``tests/metrics/``).
"""

from .registry import (
    CYCLE_BUCKETS,
    Counter,
    CounterSeries,
    Gauge,
    GaugeSeries,
    Histogram,
    HistogramSeries,
    MetricsError,
    MetricsRegistry,
    attach_metrics,
)
from .collect import (
    instrument_server,
    register_server_collectors,
    register_soc_collectors,
)
from .export import (
    parse_exposition,
    to_prometheus,
)
from .health import (
    Alert,
    HealthMonitor,
    MetricsSampler,
    SloRule,
    accelerator_stall_rule,
    default_rules,
    latency_burn_rule,
    link_congestion_rule,
    queue_saturation_rule,
    stall_threshold,
    stalled_devices,
)
from .dashboard import (
    HEAT_RAMP,
    render_control_actions,
    render_dashboard,
    render_tenant_table,
    render_tile_grid,
)

__all__ = [
    "Alert",
    "CYCLE_BUCKETS",
    "HEAT_RAMP",
    "Counter",
    "CounterSeries",
    "Gauge",
    "GaugeSeries",
    "HealthMonitor",
    "Histogram",
    "HistogramSeries",
    "MetricsError",
    "MetricsRegistry",
    "MetricsSampler",
    "SloRule",
    "accelerator_stall_rule",
    "attach_metrics",
    "default_rules",
    "instrument_server",
    "latency_burn_rule",
    "link_congestion_rule",
    "parse_exposition",
    "queue_saturation_rule",
    "register_server_collectors",
    "register_soc_collectors",
    "render_control_actions",
    "render_dashboard",
    "render_tenant_table",
    "render_tile_grid",
    "stall_threshold",
    "stalled_devices",
    "to_prometheus",
]
