"""Tests for the core tracer: recording, queries, attachment, and the
zero-timing-impact guarantee across instrumented runs."""

import numpy as np
import pytest

from repro.runtime import chain
from repro.sim import Environment
from repro.trace import (
    Tracer,
    attach_tracer,
    detach_tracer,
)
from tests.conftest import make_runtime, make_spec


class FakeClock:
    """Minimal environment stand-in: the tracer only reads ``now``."""

    def __init__(self):
        self.now = 0
        self.tracer = None


class TestRecording:
    def test_begin_end_records_span(self):
        env = FakeClock()
        tracer = Tracer(env)
        sid = tracer.begin("tile", "wrapper", "load", "acc.load", n=4)
        env.now = 25
        span = tracer.end(sid, ok=True)
        assert (span.start, span.end, span.cycles) == (0, 25, 25)
        assert span.args == {"n": 4, "ok": True}
        assert tracer.spans == [span]
        assert tracer.open_spans == []

    def test_end_unknown_sid_raises(self):
        tracer = Tracer(FakeClock())
        with pytest.raises(KeyError):
            tracer.end(99)

    def test_complete_records_closed_interval(self):
        tracer = Tracer(FakeClock())
        span = tracer.complete("t", "e", "x", "cat", 10, 30)
        assert span.closed and span.cycles == 20

    def test_complete_rejects_backwards_interval(self):
        tracer = Tracer(FakeClock())
        with pytest.raises(ValueError):
            tracer.complete("t", "e", "x", "cat", 30, 10)

    def test_open_span_has_no_cycles(self):
        env = FakeClock()
        tracer = Tracer(env)
        sid = tracer.begin("t", "e", "x", "cat")
        (open_span,) = tracer.open_spans
        assert not open_span.closed
        with pytest.raises(ValueError):
            open_span.cycles
        assert tracer._open[sid] is open_span

    def test_instants_and_counters(self):
        env = FakeClock()
        tracer = Tracer(env)
        env.now = 5
        tracer.instant("serve", "tenant:a", "admit", "serve.submit")
        tracer.counter("serve", "queue_depth", depth=3)
        assert tracer.instants[0].ts == 5
        assert tracer.counters[0].values == {"depth": 3}

    def test_clear_drops_everything(self):
        env = FakeClock()
        tracer = Tracer(env)
        tracer.begin("t", "e", "x", "cat")
        tracer.complete("t", "e", "y", "cat", 0, 1)
        tracer.instant("t", "e", "i", "cat")
        tracer.counter("t", "c", v=1)
        tracer.clear()
        assert not tracer.spans and not tracer.open_spans
        assert not tracer.instants and not tracer.counters


class TestQueries:
    def _tracer(self):
        tracer = Tracer(FakeClock())
        tracer.complete("t", "e", "a", "dma.load", 0, 10)
        tracer.complete("t", "e", "b", "dma.store", 5, 15)
        tracer.complete("t", "e", "c", "dmax", 20, 30)
        tracer.complete("t", "e", "d", "acc.compute", 12, 18)
        return tracer

    def test_cat_filter_is_segment_prefix(self):
        tracer = self._tracer()
        cats = {s.cat for s in tracer.all_spans(cat="dma")}
        assert cats == {"dma.load", "dma.store"}   # not "dmax"
        assert [s.cat for s in tracer.all_spans(cat="dmax")] == ["dmax"]

    def test_all_spans_start_ordered(self):
        starts = [s.start for s in self._tracer().all_spans()]
        assert starts == sorted(starts)

    def test_spans_between_half_open_window(self):
        tracer = self._tracer()
        names = {s.name for s in tracer.spans_between(10, 20)}
        # [0,10) ends exactly at the window start: excluded.
        assert names == {"b", "d"}

    def test_find_span_by_cat_name_index(self):
        tracer = self._tracer()
        assert tracer.find_span("dma").name == "a"
        assert tracer.find_span("dma", index=1).name == "b"
        assert tracer.find_span("dma", name="b").name == "b"
        with pytest.raises(KeyError):
            tracer.find_span("nope")


class TestFlightRecorderRing:
    def _filled(self, capacity, n):
        env = FakeClock()
        tracer = Tracer(env, capacity=capacity)
        for i in range(n):
            tracer.complete("t", "e", f"s{i}", "cat", i, i + 1)
        return tracer

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Tracer(FakeClock(), capacity=0)

    def test_eviction_keeps_last_capacity_within_double_bound(self):
        # Amortized compaction: between 'capacity' and '2 * capacity'
        # records held at any instant, always the most recent ones.
        capacity = 8
        for n in (7, 16, 17, 100):
            tracer = self._filled(capacity, n)
            held = len(tracer.spans)
            assert held <= 2 * capacity
            if n <= 2 * capacity:
                assert held == n and tracer.dropped == 0
            else:
                assert held >= capacity
                assert tracer.dropped == n - held
                # The survivors are exactly the newest records.
                assert [s.name for s in tracer.spans] == \
                    [f"s{i}" for i in range(n - held, n)]

    def test_dropped_counters_split_by_record_kind(self):
        env = FakeClock()
        tracer = Tracer(env, capacity=2)
        for i in range(10):
            tracer.complete("t", "e", "s", "cat", i, i + 1)
            tracer.instant("t", "e", "i", "cat")
            tracer.counter("t", "c", v=i)
        assert tracer.dropped_spans > 0
        assert tracer.dropped_instants > 0
        assert tracer.dropped_counters > 0
        assert tracer.dropped == (tracer.dropped_spans
                                  + tracer.dropped_instants
                                  + tracer.dropped_counters)

    def test_open_spans_never_evicted(self):
        env = FakeClock()
        tracer = Tracer(env, capacity=2)
        sid = tracer.begin("t", "e", "inflight", "cat")
        for i in range(20):
            tracer.complete("t", "e", "s", "cat", i, i + 1)
        assert [s.name for s in tracer.open_spans] == ["inflight"]
        env.now = 30
        span = tracer.end(sid)
        assert span.end == 30

    def test_windowing_still_exact_after_eviction(self):
        tracer = self._filled(8, 100)
        survivors = {s.name for s in tracer.spans}
        window = {s.name for s in tracer.spans_between(90, 200)}
        assert window == {name for name in survivors
                          if int(name[1:]) + 1 > 90}

    def test_unbounded_tracer_never_drops(self):
        tracer = Tracer(FakeClock())
        for i in range(500):
            tracer.complete("t", "e", f"s{i}", "cat", i, i + 1)
        assert len(tracer.spans) == 500 and tracer.dropped == 0


class TestSpansBetweenBisect:
    def _interleaved(self, tracer):
        # begin/end nesting appends spans in END order, not start
        # order: outer (start 0) lands after inner (start 10).
        env = tracer.env
        outer = tracer.begin("t", "e", "outer", "cat")
        env.now = 10
        inner = tracer.begin("t", "e", "inner", "cat")
        env.now = 20
        tracer.end(inner)
        env.now = 40
        tracer.end(outer)

    def test_record_order_is_end_monotone_not_start_monotone(self):
        # The regression guard for the bisect fast path: it is END
        # cycles that are monotone at record time, not starts.
        env = FakeClock()
        tracer = Tracer(env)
        self._interleaved(tracer)
        starts = [s.start for s in tracer.spans]
        ends = [s.end for s in tracer.spans]
        assert starts != sorted(starts)
        assert ends == sorted(ends)
        assert tracer._ends_sorted

    def test_bisect_matches_linear_scan(self):
        env = FakeClock()
        tracer = Tracer(env)
        self._interleaved(tracer)
        for i in range(30):
            tracer.complete("t", "e", f"s{i}", "cat",
                            40 + 3 * i, 45 + 3 * i)
        assert tracer._ends_sorted
        for t0, t1 in ((0, 1000), (0, 10), (15, 42), (41, 41),
                       (50, 90), (130, 131), (200, 300)):
            fast = tracer.spans_between(t0, t1)
            slow = [s for s in tracer.spans
                    if s.end is not None and s.end > t0
                    and s.start < t1]
            assert fast == slow, (t0, t1)

    def test_backdated_complete_falls_back_correctly(self):
        env = FakeClock()
        tracer = Tracer(env)
        for i in range(10):
            tracer.complete("t", "e", f"s{i}", "cat",
                            10 * i, 10 * i + 5)
        # Back-dated record: breaks end-monotonicity, must disable
        # the fast path rather than silently miss it in windows.
        tracer.complete("t", "e", "late", "cat", 3, 4)
        assert not tracer._ends_sorted
        names = {s.name for s in tracer.spans_between(0, 10)}
        assert "late" in names and "s0" in names

    def test_eviction_of_unsorted_prefix_restores_fast_path(self):
        env = FakeClock()
        tracer = Tracer(env, capacity=4)
        tracer.complete("t", "e", "a", "cat", 0, 100)
        tracer.complete("t", "e", "late", "cat", 0, 1)
        assert not tracer._ends_sorted
        for i in range(10):
            tracer.complete("t", "e", f"s{i}", "cat",
                            200 + i, 201 + i)
        assert tracer._ends_sorted

    def test_clear_resets_fast_path_state(self):
        tracer = Tracer(FakeClock())
        tracer.complete("t", "e", "a", "cat", 0, 100)
        tracer.complete("t", "e", "late", "cat", 0, 1)
        tracer.clear()
        assert tracer._ends_sorted and tracer._ends == []


class TestAttachment:
    def test_attach_sets_env_tracer(self):
        env = Environment()
        tracer = attach_tracer(env)
        assert env.tracer is tracer

    def test_attach_is_idempotent(self):
        env = Environment()
        assert attach_tracer(env) is attach_tracer(env)

    def test_attach_through_env_carrier(self):
        env = Environment()

        class Carrier:
            pass

        carrier = Carrier()
        carrier.env = env
        tracer = attach_tracer(carrier)
        assert env.tracer is tracer

    def test_detach_returns_tracer_and_disables(self):
        env = Environment()
        tracer = attach_tracer(env)
        assert detach_tracer(env) is tracer
        assert env.tracer is None
        assert detach_tracer(env) is None

    def test_namespace_mismatch_refuses_reattach(self):
        env = Environment()
        attach_tracer(env, namespace="i0")
        with pytest.raises(ValueError, match="i0.*i1"):
            attach_tracer(env, namespace="i1")
        # Same namespace (or none requested) stays idempotent.
        assert attach_tracer(env, namespace="i0").namespace == "i0"
        assert attach_tracer(env).namespace == "i0"


def p2p_run(tracing):
    specs = [("a0", make_spec(name="a", input_words=8, output_words=8,
                              latency=120)),
             ("b0", make_spec(name="b", input_words=8, output_words=8,
                              latency=60))]
    rt = make_runtime(specs)
    tracer = attach_tracer(rt.soc) if tracing else None
    frames = np.random.default_rng(7).uniform(0, 1, (4, 8))
    result = rt.esp_run(chain("ab", ["a0", "b0"]), frames, mode="p2p")
    return rt, result, tracer


class TestInstrumentedRun:
    def test_traced_run_is_cycle_identical_to_untraced(self):
        # The tentpole invariant: tracing observes, never perturbs.
        _, untraced, _ = p2p_run(tracing=False)
        _, traced, _ = p2p_run(tracing=True)
        assert traced.cycles == untraced.cycles
        assert traced.ioctl_calls == untraced.ioctl_calls
        np.testing.assert_array_equal(traced.outputs, untraced.outputs)

    def test_expected_categories_present(self):
        _, _, tracer = p2p_run(tracing=True)
        cats = {s.cat for s in tracer.spans}
        for expected in ("runtime.ioctl", "runtime.config",
                         "runtime.irq_wait", "runtime.spawn",
                         "runtime.run", "acc.invocation", "acc.load",
                         "acc.compute", "acc.store", "noc.packet",
                         "noc.link", "sim.process", "dma.p2p_load",
                         "dma.p2p_store", "dma.p2p_serve", "dma.load",
                         "dma.store"):
            assert expected in cats, f"missing {expected}"

    def test_untraced_run_records_nothing(self):
        rt, _, tracer = p2p_run(tracing=False)
        assert tracer is None and rt.soc.env.tracer is None

    def test_invocation_spans_carry_device(self):
        _, _, tracer = p2p_run(tracing=True)
        spans = tracer.all_spans(cat="acc.invocation")
        assert {s.args["device"] for s in spans} == {"a0", "b0"}

    def test_all_spans_closed_after_run(self):
        _, _, tracer = p2p_run(tracing=True)
        # Steady-state servers (io/p2p/run loops) are still parked on
        # their queues, so only spans, not processes, must be closed.
        open_cats = {s.cat for s in tracer.open_spans}
        assert "acc.invocation" not in open_cats
        assert "runtime.ioctl" not in open_cats
        assert "dma.load" not in open_cats
