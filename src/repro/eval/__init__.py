"""Experiment harness: everything the paper's evaluation reports."""

from .apps import (
    APP_CONFIGS,
    AppConfig,
    BEST_CASE,
    build_soc1,
    build_soc2,
    classifier_inputs,
    dataflow_de_cl,
    dataflow_multitile,
    dataflow_nv_cl,
    de_cl_inputs,
    fresh_runtime,
    nv_cl_inputs,
)
from .harness import (
    DEFAULT_FRAMES,
    FIG7_CONFIGS,
    LatencySummary,
    Measurement,
    evaluate,
    format_table,
    measure,
    percentile,
    summarize_latencies,
)
from .faults import (
    CampaignReport,
    FaultRunRecord,
    campaign_policy,
    chain3_dataflow,
    golden_run,
    run_fault_campaign,
)
from .table1 import Table1Column, generate_table1, render_table1
from .fig7 import Fig7Cluster, Fig7Data, generate_fig7, render_fig7
from .fig8 import FIG8_CONFIGS, Fig8Bar, generate_fig8, render_fig8
from .timeline import (GANTT_BUSY, GANTT_OVERLAP, render_gantt,
                       utilization_by_device)

__all__ = [
    "APP_CONFIGS",
    "AppConfig",
    "BEST_CASE",
    "CampaignReport",
    "ChaosReport",
    "ChaosScenario",
    "DEFAULT_FRAMES",
    "DEFAULT_RECOVERY_SLOS",
    "FIG7_CONFIGS",
    "FIG8_CONFIGS",
    "Fig7Cluster",
    "Fig7Data",
    "FaultRunRecord",
    "Fig8Bar",
    "LatencySummary",
    "Measurement",
    "GANTT_BUSY",
    "GANTT_OVERLAP",
    "ScenarioResult",
    "Table1Column",
    "CAMPAIGN_POLICIES",
    "build_soc1",
    "build_soc2",
    "build_standard_fleet",
    "campaign_policy",
    "chain3_dataflow",
    "chaos_scenarios",
    "chaos_spec",
    "classifier_inputs",
    "dataflow_de_cl",
    "dataflow_multitile",
    "dataflow_nv_cl",
    "de_cl_inputs",
    "evaluate",
    "format_table",
    "fresh_runtime",
    "generate_fig7",
    "golden_run",
    "generate_fig8",
    "generate_table1",
    "measure",
    "nv_cl_inputs",
    "percentile",
    "summarize_latencies",
    "render_fig7",
    "render_fig8",
    "render_table1",
    "render_gantt",
    "overload_workload",
    "run_chaos_campaign",
    "run_fault_campaign",
    "run_fleet_campaign",
    "run_scenario",
    "run_traced_fleet_scenario",
    "standard_inputs",
    "standard_tenants",
    "utilization_by_device",
]

#: Chaos-campaign exports, resolved lazily (PEP 562): the campaign
#: module composes serve + metrics + control, each of which reaches
#: back into ``repro.eval`` for apps/harness helpers — importing it
#: eagerly here would make every one of those imports circular.
_CHAOS_EXPORTS = frozenset({
    "ChaosReport",
    "ChaosScenario",
    "DEFAULT_RECOVERY_SLOS",
    "ScenarioResult",
    "chaos_scenarios",
    "chaos_spec",
    "run_chaos_campaign",
    "run_scenario",
})

#: Fleet-campaign exports, lazy for the same reason: the campaign
#: composes ``repro.fleet``, which reaches back into
#: ``repro.eval.harness`` for latency summaries.
_FLEET_EXPORTS = frozenset({
    "CAMPAIGN_POLICIES",
    "build_standard_fleet",
    "overload_workload",
    "run_fleet_campaign",
    "run_traced_fleet_scenario",
    "standard_inputs",
    "standard_tenants",
})


def __getattr__(name):
    if name in _CHAOS_EXPORTS:
        from . import chaos
        return getattr(chaos, name)
    if name in _FLEET_EXPORTS:
        from . import fleet
        return getattr(fleet, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")
