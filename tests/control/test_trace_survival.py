"""Trace identity across remediation: a request keeps its trace ID
while the control plane degrades, reshards and re-dispatches around
it — and the armed flight recorder's postmortem captures the
offending window with those IDs."""

import json

import numpy as np

from repro.control import (
    ACTION_ACTIVATE_SPARE,
    ACTION_FORCE_DEGRADE,
    ACTION_RESHARD,
    ControlConfig,
    ControlPlane,
)
from repro.eval import build_soc1
from repro.eval.apps import classifier_inputs
from repro.faults import FaultInjector, FaultPlan, FaultSpec, \
    RecoveryPolicy
from repro.metrics import (
    HealthMonitor,
    MetricsSampler,
    accelerator_stall_rule,
    instrument_server,
)
from repro.runtime import EspRuntime, chain
from repro.serve import (
    InferenceServer,
    ServerConfig,
    TenantConfig,
    TracedRequest,
)
from repro.trace import FlightRecorder, attach_tracer


def run_remediated_stack(tmp_path):
    """The closed-loop scenario of ``test_controller`` with the full
    observability stack on: tracer, armed recorder, live traffic over
    a tile that hangs and is resharded away."""
    runtime = EspRuntime(build_soc1(), recovery=RecoveryPolicy(
        watchdog_cycles=200_000, max_retries=1,
        software_fallback=True))
    tracer = attach_tracer(runtime.soc)
    FaultInjector(FaultPlan([
        FaultSpec(kind="acc_hang", target="cl1", at_cycle=1,
                  count=None)])).attach(runtime.soc)
    server = InferenceServer(runtime, ServerConfig(max_queue_depth=16))
    server.register(TenantConfig(
        name="classifier", dataflow=chain("1cl-ts", ["cl1"]),
        mode="pipe", max_batch_frames=1))
    registry = instrument_server(server)
    monitor = HealthMonitor(registry, [
        accelerator_stall_rule(runtime.soc)])
    controller = ControlPlane(server, monitor, ControlConfig(
        reserve_pool=("cl2",), cooldown_cycles=10_000,
        stall_escalation_evals=2)).attach()
    recorder = FlightRecorder(
        tmp_path / "pm", tracer, controller=controller,
        window_cycles=100_000).arm(monitor)
    MetricsSampler(monitor, interval=2_500).start()

    frames, _ = classifier_inputs(6, seed=1)
    trace = [TracedRequest(5_000 * i, "classifier",
                           np.atleast_2d(frames)[i:i + 1])
             for i in range(6)]
    report = server.run_trace(trace)
    monitor.evaluate()
    return report, tracer, server, controller, recorder


class TestTraceSurvivesRemediation:
    def test_ids_thread_through_degrade_and_reshard(self, tmp_path):
        report, tracer, server, controller, _ = \
            run_remediated_stack(tmp_path)
        assert len(report.completions) == 6
        kinds = [a.kind for a in controller.applied_actions()]
        assert kinds[:3] == [ACTION_FORCE_DEGRADE,
                             ACTION_ACTIVATE_SPARE, ACTION_RESHARD]
        assert server.tenant_tiles()["classifier"] == {"cl2"}

        # Every request span kept its server-minted ID through the
        # remediation (no re-mint, no loss mid-reshard).
        requests = tracer.all_spans(cat="serve.request")
        assert [s.args["trace_id"] for s in requests] == \
            [f"t-{i}" for i in range(6)]
        assert {s.args["outcome"] for s in requests} == {"completed"}

        # Requests dispatched after the reshard ran on the spare tile
        # and still carry their IDs across the hardware move.
        on_spare = [s for s in tracer.all_spans(cat="acc.invocation")
                    if s.args.get("device") == "cl2"]
        assert on_spare, "no invocation landed on the spare"
        spare_ids = {s.args["trace_id"] for s in on_spare}
        assert spare_ids and all(i.startswith("t-") for i in spare_ids)
        # Those same IDs have serve-layer request spans: the waterfall
        # is reconstructable end to end across the remediation.
        request_ids = {s.args["trace_id"] for s in requests}
        assert spare_ids <= request_ids

    def test_postmortem_captures_offending_window(self, tmp_path):
        _, _, _, controller, recorder = run_remediated_stack(tmp_path)
        assert recorder.dumps, "stall alert produced no postmortem"
        artifact = json.loads(recorder.dumps[0].read_text())
        assert artifact["schema"] == "repro.postmortem/v1"
        assert artifact["alert"]["rule"] == "accelerator-stall"
        assert artifact["alert"]["state"] == "firing"
        # The window holds the stalled request's spans, attributable
        # by its trace ID.
        assert "t-0" in artifact["trace_ids"]
        span_ids = {s["args"]["trace_id"]
                    for spans in artifact["spans"].values()
                    for s in spans if "trace_id" in s.get("args", {})}
        assert "t-0" in span_ids
        # The in-flight (hung) work is captured open, not lost.
        assert any(s["open"] for spans in artifact["spans"].values()
                   for s in spans)
