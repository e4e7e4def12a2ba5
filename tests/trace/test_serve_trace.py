"""Serve-layer tracing: request/grant/dispatch spans and the
end-to-end attribution of one served request."""

import numpy as np

from repro.runtime import EspRuntime, chain
from repro.serve import (
    InferenceServer,
    ServerConfig,
    TenantConfig,
    TracedRequest,
)
from repro.trace import (
    analyze_span,
    attach_tracer,
    to_chrome_trace,
    validate_chrome_trace,
)
from tests.conftest import make_soc, make_spec


def traced_serve(n_requests=2):
    specs = [("a0", make_spec(name="a")), ("b0", make_spec(name="b"))]
    runtime = EspRuntime(make_soc(specs))
    tracer = attach_tracer(runtime.soc)
    server = InferenceServer(runtime, ServerConfig())
    server.register(TenantConfig(name="app",
                                 dataflow=chain("app", ["a0", "b0"])))
    frames = np.random.default_rng(3).uniform(0, 1, (2, 16))
    trace = [TracedRequest(i * 10, "app", frames)
             for i in range(n_requests)]
    report = server.run_trace(trace)
    return report, tracer


class TestServeSpans:
    def test_every_request_span_closes_completed(self):
        report, tracer = traced_serve()
        spans = tracer.all_spans(cat="serve.request")
        assert len(spans) == len(report.completions) == 2
        assert {s.args["outcome"] for s in spans} == {"completed"}
        assert {s.tid for s in spans} == {"tenant:app"}
        assert not tracer.open_spans   # nothing dangling after drain

    def test_grant_and_dispatch_recorded(self):
        _, tracer = traced_serve()
        grants = tracer.all_spans(cat="serve.grant_wait")
        assert grants and all(s.args["granted"] for s in grants)
        dispatches = tracer.all_spans(cat="serve.dispatch")
        assert {s.args["outcome"] for s in dispatches} == {"completed"}

    def test_queue_depth_counter_sampled(self):
        _, tracer = traced_serve()
        depth = [c for c in tracer.counters if c.name == "queue_depth"]
        assert depth
        assert all(c.values["depth"] >= 0 for c in depth)

    def test_request_attribution_covers_window(self):
        _, tracer = traced_serve()
        report = analyze_span(tracer, tracer.find_span("serve.request"))
        assert report.coverage >= 0.95, report.render()

    def test_serve_trace_exports_valid(self):
        _, tracer = traced_serve()
        trace = to_chrome_trace(tracer, clock_mhz=78.0)
        assert validate_chrome_trace(trace) == []
