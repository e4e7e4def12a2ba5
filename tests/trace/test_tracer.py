"""Tests for the core tracer: recording, queries, attachment, and the
zero-timing-impact guarantee across instrumented runs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime import chain
from repro.sim import Environment
from repro.trace import (
    Tracer,
    attach_tracer,
)
from tests.conftest import make_runtime, make_spec


def detach_tracer(target):
    """Detach (and return) the environment's tracer, if any.

    After detaching, every instrumentation site is back to its
    disabled-cost path; the returned tracer still holds its records
    for export.
    """
    env = getattr(target, "env", target)
    tracer = getattr(env, "tracer", None)
    env.tracer = None
    return tracer


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
        tracer.end(sid, ok=True)
        span = tracer.spans[-1]
        assert (span.start, span.end, span.cycles) == (0, 25, 25)
        assert span.args == {"n": 4, "ok": True}
        assert list(tracer.spans) == [span]
        assert tracer.open_spans == []

    def test_end_unknown_sid_raises(self):
        tracer = Tracer(FakeClock())
        with pytest.raises(KeyError):
            tracer.end(99)

    def test_complete_records_closed_interval(self):
        tracer = Tracer(FakeClock())
        tracer.complete("t", "e", "x", "cat", 10, 30)
        span = tracer.spans[-1]
        assert span.end == 30 and span.cycles == 20

    def test_complete_rejects_backwards_interval(self):
        tracer = Tracer(FakeClock())
        with pytest.raises(ValueError):
            tracer.complete("t", "e", "x", "cat", 30, 10)

    def test_open_span_has_no_cycles(self):
        env = FakeClock()
        tracer = Tracer(env)
        sid = tracer.begin("t", "e", "x", "cat")
        (open_span,) = tracer.open_spans
        assert open_span.end is None
        with pytest.raises(ValueError):
            open_span.cycles
        assert open_span.sid == sid

    def test_drive_closes_span_when_body_returns(self):
        env = FakeClock()
        tracer = Tracer(env)

        def body():
            yield "step"
            env.now = 40
            return "done"

        sid = tracer.begin("t", "e", "x", "cat")
        tracer.bind("t", ("t-1",))
        driver = tracer.drive(sid, body(),
                              close=lambda result: {"result": result},
                              bound=["t"])
        assert next(driver) == "step"
        with pytest.raises(StopIteration) as stop:
            next(driver)
        assert stop.value.value == "done"
        (span,) = tracer.spans
        assert (span.end, span.args) == (40, {"result": "done"})
        assert tracer.bindings == {}

    def test_drive_closes_span_when_body_raises(self):
        tracer = Tracer(FakeClock())

        def body():
            yield "step"

        sid = tracer.begin("t", "e", "x", "cat")
        driver = tracer.drive(
            sid, body(), failed=lambda exc: {"error": type(exc).__name__})
        next(driver)
        with pytest.raises(KeyError):
            driver.throw(KeyError("gone"))
        assert not tracer.open_spans
        assert tracer.spans[0].args == {"error": "KeyError"}

    def test_instants_and_counters(self):
        env = FakeClock()
        tracer = Tracer(env)
        env.now = 5
        tracer.instant("serve", "tenant:a", "admit", "serve.submit")
        tracer.counter("serve", "queue_depth", depth=3)
        assert tracer.instants[0].ts == 5
        assert tracer.counters[0].values == {"depth": 3}


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
        tracer.end(sid)
        assert tracer.spans[-1].end == 30

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


# Few tracks and keys, so that bindings often overlap on one record
# and every step of the resolution precedence is exercised.
PIDS = ("a0", "noc")
TIDS = ("wrapper", "dma-req")
COORDS = ("(0, 0)", "(1, 1)")
#: Binding keys: device pids, (pid, tid) tracks, tile coordinates.
KEYS = PIDS + (("a0", "wrapper"), ("noc", "dma-req")) + COORDS
TRACE_IDS = st.lists(st.sampled_from(("t-0", "t-1", "t-2")), min_size=1,
                     max_size=3).map(tuple)
RECORD_ARGS = st.fixed_dictionaries({}, optional={
    "src": st.sampled_from(COORDS), "dst": st.sampled_from(COORDS),
    "trace_id": st.just("t-explicit"), "n": st.integers(0, 3)})
END_ARGS = st.fixed_dictionaries({}, optional={
    "outcome": st.sampled_from(("ok", "failed")),
    "trace_id": st.just("t-late"), "n": st.integers(4, 9)})
TRACK = st.tuples(st.sampled_from(PIDS), st.sampled_from(TIDS))
OPS = st.lists(st.one_of(
    st.tuples(st.just("advance"), st.integers(0, 5)),
    st.tuples(st.just("begin"), TRACK, RECORD_ARGS),
    st.tuples(st.just("end"), st.integers(0, 7), END_ARGS),
    st.tuples(st.just("complete"), TRACK, st.integers(0, 12),
              RECORD_ARGS),
    st.tuples(st.just("instant"), TRACK, RECORD_ARGS),
    st.tuples(st.just("counter"), st.sampled_from(PIDS),
              st.integers(0, 9)),
    st.tuples(st.just("bind"), st.sampled_from(KEYS), TRACE_IDS),
    st.tuples(st.just("unbind"), st.sampled_from(KEYS))),
    min_size=10, max_size=120)


def eager_annotation(bindings, pid, tid, args):
    """The oracle: annotate ``args`` against the bindings live at record
    time. An explicit trace_id wins, then (pid, tid), pid, src, dst."""
    args = dict(args)
    if "trace_id" in args:
        return args
    ids = bindings.get((pid, tid))
    if ids is None:
        ids = bindings.get(pid)
    if ids is None:
        src = args.get("src")
        if src is not None:
            ids = bindings.get(src)
        if ids is None:
            dst = args.get("dst")
            if dst is not None:
                ids = bindings.get(dst)
    if ids is not None:
        args["trace_id"] = ids[0]
        if len(ids) > 1:
            args["trace_ids"] = ids
    return args


def replay(ops, tracers):
    """Feed one op stream to every tracer (all on one clock); returns
    the oracle's expected args per span sid and per instant."""
    env = tracers[0].env
    bindings = {}
    span_args, instant_args, open_sids = {}, [], []
    for op in ops:
        kind = op[0]
        if kind == "advance":
            env.now += op[1]
        elif kind == "begin":
            (pid, tid), args = op[1], op[2]
            sids = {t.begin(pid, tid, "b", "cat", **args) for t in tracers}
            (sid,) = sids
            span_args[sid] = eager_annotation(bindings, pid, tid, args)
            open_sids.append(sid)
        elif kind == "end" and open_sids:
            sid = open_sids.pop(op[1] % len(open_sids))
            for t in tracers:
                t.end(sid, **op[2])
            span_args[sid].update(op[2])
        elif kind == "complete":
            (pid, tid), length, args = op[1], op[2], op[3]
            start = max(0, env.now - length)
            for t in tracers:
                t.complete(pid, tid, "c", "cat", start, env.now, **args)
            sid = tracers[0].spans[-1].sid
            span_args[sid] = eager_annotation(bindings, pid, tid, args)
        elif kind == "instant":
            (pid, tid), args = op[1], op[2]
            for t in tracers:
                t.instant(pid, tid, "i", "cat", **args)
            instant_args.append(eager_annotation(bindings, pid, tid, args))
        elif kind == "counter":
            for t in tracers:
                t.counter(op[1], "depth", depth=op[2])
        elif kind == "bind":
            for t in tracers:
                t.bind(op[1], op[2])
            bindings[op[1]] = op[2]
        elif kind == "unbind":
            for t in tracers:
                t.unbind(op[1])
            bindings.pop(op[1], None)
    return span_args, instant_args


class TestRingAccountingProperty:
    @given(ops=OPS, capacity=st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_ring_is_the_tail_of_the_unbounded_stream(self, ops, capacity):
        env = FakeClock()
        ring, full = Tracer(env, capacity=capacity), Tracer(env)
        span_args, instant_args = replay(ops, [ring, full])
        for kind in ("spans", "instants", "counters"):
            held, everything = getattr(ring, kind), getattr(full, kind)
            dropped = getattr(ring, f"dropped_{kind}")
            assert len(held) + dropped == len(everything), kind
            assert min(capacity, len(everything)) <= len(held), kind
            assert len(held) <= 2 * capacity, kind
            assert list(held) == list(everything)[dropped:], kind
        assert full.dropped == 0
        assert ring.open_spans == full.open_spans
        for span in list(full.spans) + full.open_spans:
            assert span.args == span_args[span.sid]
        assert [i.args for i in full.instants] == instant_args


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
