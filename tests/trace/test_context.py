"""Distributed trace identity: deterministic allocation, span
binding, and end-to-end propagation through a served request."""

import numpy as np
import pytest

from repro.runtime import EspRuntime, chain
from repro.serve import (
    InferenceServer,
    ServerConfig,
    TenantConfig,
    TracedRequest,
)
from repro.trace import (
    TraceContext,
    TraceIdAllocator,
    attach_tracer,
    batch_trace_ids,
)
from repro.trace.tracer import Tracer
from tests.conftest import make_soc, make_spec
from tests.trace.test_tracer import FakeClock


def primary_trace_id(requests):
    """The batch's primary (first member's) trace ID, if any."""
    ids = batch_trace_ids(requests)
    return ids[0] if ids else None


class TestAllocator:
    def test_sequential_ids_in_allocation_order(self):
        alloc = TraceIdAllocator("t")
        assert [alloc.next_id() for _ in range(3)] == \
            ["t-0", "t-1", "t-2"]
        assert alloc._next == 3

    def test_mint_wraps_id_in_context(self):
        ctx = TraceIdAllocator("f").mint()
        assert isinstance(ctx, TraceContext)
        assert ctx.trace_id == "f-0"
        assert str(ctx) == "f-0"

    def test_independent_allocators_do_not_share_state(self):
        a, b = TraceIdAllocator("t"), TraceIdAllocator("t")
        a.next_id()
        assert b.next_id() == "t-0"

    def test_prefix_validation(self):
        with pytest.raises(ValueError):
            TraceIdAllocator("")
        with pytest.raises(ValueError):
            TraceIdAllocator("a-b")   # "-" is the id separator

    def test_context_is_frozen(self):
        ctx = TraceContext("t-0")
        with pytest.raises(AttributeError):
            ctx.trace_id = "t-1"


class TestBatchHelpers:
    class _Req:
        def __init__(self, ctx):
            self.trace_ctx = ctx

    def test_batch_ids_skip_missing_contexts(self):
        reqs = [self._Req(TraceContext("t-0")), self._Req(None),
                self._Req(TraceContext("t-2")), object()]
        assert batch_trace_ids(reqs) == ("t-0", "t-2")

    def test_primary_is_first_present(self):
        reqs = [self._Req(None), self._Req(TraceContext("t-7"))]
        assert primary_trace_id(reqs) == "t-7"
        assert primary_trace_id([self._Req(None)]) is None


class TestBindings:
    def test_bound_key_annotates_matching_track(self):
        tracer = Tracer(FakeClock())
        tracer.bind("a0", ("t-3",))
        tracer.complete("a0", "wrapper", "load", "acc.load", 0, 5)
        span = tracer.spans[-1]
        assert span.args["trace_id"] == "t-3"
        tracer.unbind("a0")
        tracer.complete("a0", "wrapper", "load", "acc.load", 5, 9)
        clean = tracer.spans[-1]
        assert "trace_id" not in clean.args

    def test_multi_request_batch_gets_id_tuple(self):
        tracer = Tracer(FakeClock())
        tracer.bind("a0", ("t-0", "t-1"))
        tracer.complete("a0", "wrapper", "c", "acc.compute", 0, 5)
        span = tracer.spans[-1]
        assert span.args["trace_id"] == "t-0"
        assert span.args["trace_ids"] == ("t-0", "t-1")

    def test_explicit_trace_id_wins_over_binding(self):
        tracer = Tracer(FakeClock())
        tracer.bind("a0", ("t-9",))
        tracer.complete("a0", "wrapper", "c", "acc.compute", 0, 5,
                        trace_id="t-0")
        span = tracer.spans[-1]
        assert span.args["trace_id"] == "t-0"

    def test_src_dst_args_match_bound_coordinates(self):
        tracer = Tracer(FakeClock())
        tracer.bind("(1, 1)", ("t-4",))
        tracer.complete("noc", "dma_req", "PKT", "noc.packet", 0, 3,
                        src="(0, 0)", dst="(1, 1)")
        span = tracer.spans[-1]
        assert span.args["trace_id"] == "t-4"

    def test_unbound_tracks_record_clean_args(self):
        tracer = Tracer(FakeClock())
        tracer.bind("a0", ("t-0",))
        tracer.complete("b9", "wrapper", "c", "acc.compute", 0, 5)
        span = tracer.spans[-1]
        assert "trace_id" not in span.args


def traced_serve(n_requests=3):
    """A two-stage chain served with tracing on; IDs server-minted."""
    specs = [("a0", make_spec(name="a")), ("b0", make_spec(name="b"))]
    runtime = EspRuntime(make_soc(specs))
    tracer = attach_tracer(runtime.soc)
    server = InferenceServer(runtime, ServerConfig())
    server.register(TenantConfig(name="app",
                                 dataflow=chain("app", ["a0", "b0"])))
    frames = np.random.default_rng(3).uniform(0, 1, (1, 16))
    trace = [TracedRequest(i * 10, "app", frames)
             for i in range(n_requests)]
    report = server.run_trace(trace)
    return report, tracer, server


class TestEndToEndPropagation:
    def test_server_mints_deterministic_ids_in_submission_order(self):
        report, tracer, _ = traced_serve()
        spans = tracer.all_spans(cat="serve.request")
        assert [s.args["trace_id"] for s in spans] == \
            ["t-0", "t-1", "t-2"]
        # Re-running the identical trace re-mints the identical IDs.
        report2, tracer2, _ = traced_serve()
        spans2 = tracer2.all_spans(cat="serve.request")
        assert [s.args["trace_id"] for s in spans2] == \
            [s.args["trace_id"] for s in spans]

    def test_explicit_context_is_propagated_not_reminted(self):
        specs = [("a0", make_spec(name="a"))]
        runtime = EspRuntime(make_soc(specs))
        tracer = attach_tracer(runtime.soc)
        server = InferenceServer(runtime, ServerConfig())
        server.register(TenantConfig(
            name="app", dataflow=chain("app1", ["a0"])))
        frames = np.random.default_rng(3).uniform(0, 1, (1, 16))
        server.start()
        server.submit("app", frames,
                      trace_ctx=TraceContext("f-41"))
        server.env.run(until=server.wait_settled())
        server.env.run(until=server.env.now)
        span = tracer.find_span("serve.request")
        assert span.args["trace_id"] == "f-41"
        assert server._trace_ids._next == 0

    def test_id_reaches_every_layer(self):
        _, tracer, _ = traced_serve(n_requests=1)
        for cat in ("serve.request", "serve.dispatch",
                    "runtime.ioctl", "runtime.irq_wait",
                    "dma.load", "acc.load", "acc.compute",
                    "acc.store", "acc.invocation", "noc.packet"):
            spans = [s for s in tracer.all_spans(cat=cat)
                     if s.args.get("trace_id") == "t-0"]
            assert spans, f"no {cat} span carries t-0"

    def test_bindings_released_after_dispatch(self):
        _, tracer, _ = traced_serve()
        assert not tracer.bindings

    def test_ids_do_not_leak_across_requests(self):
        # Spaced-out requests: each request's accelerator spans carry
        # its own ID only (bindings rebound per dispatch).
        specs = [("a0", make_spec(name="a"))]
        runtime = EspRuntime(make_soc(specs))
        tracer = attach_tracer(runtime.soc)
        server = InferenceServer(runtime, ServerConfig())
        server.register(TenantConfig(
            name="app", dataflow=chain("app2", ["a0"])))
        frames = np.random.default_rng(3).uniform(0, 1, (1, 16))
        server.run_trace([TracedRequest(0, "app", frames),
                          TracedRequest(100_000, "app", frames)])
        invocations = tracer.all_spans(cat="acc.invocation")
        ids = [s.args.get("trace_id") for s in invocations]
        assert ids == ["t-0", "t-1"]
