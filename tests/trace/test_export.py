"""Tests for the Chrome trace-event exporter, the schema validator and
the flame summary."""

import json

import pytest

from repro.trace import (
    ASYNC_CATEGORIES,
    Tracer,
    attach_tracer,
    flame_summary,
    merge_chrome_traces,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from tests.trace.test_tracer import FakeClock, p2p_run


def synthetic_tracer():
    env = FakeClock()
    tracer = Tracer(env)
    tracer.complete("a0", "wrapper", "load f0", "acc.load", 0, 10, n=64)
    tracer.complete("a0", "wrapper", "compute f0", "acc.compute", 10, 40)
    tracer.complete("a0", "socket", "toy", "acc.invocation", 0, 50,
                    device="a0")
    tracer.complete("noc", "dma_req", "DMA_REQ", "noc.packet", 2, 9)
    tracer.complete("noc", "dma_req", "DMA_REQ", "noc.packet", 5, 12)
    env.now = 7
    tracer.instant("a0", "socket", "irq", "acc.irq", status=1)
    tracer.counter("serve", "queue_depth", depth=2)
    return tracer


class TestToChromeTrace:
    def test_metadata_names_every_track(self):
        trace = to_chrome_trace(synthetic_tracer())
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        process_names = {e["args"]["name"] for e in meta
                         if e["name"] == "process_name"}
        thread_names = {e["args"]["name"] for e in meta
                        if e["name"] == "thread_name"}
        assert process_names == {"a0", "noc", "serve"}
        assert {"wrapper", "socket", "dma_req"} <= thread_names

    def test_overlapping_categories_export_as_async_pairs(self):
        trace = to_chrome_trace(synthetic_tracer())
        events = trace["traceEvents"]
        # The two overlapping noc.packet spans must not be X events on
        # one track (Perfetto would mis-nest them).
        assert "noc.packet" in ASYNC_CATEGORIES
        noc = [e for e in events if e.get("cat") == "noc.packet"]
        assert {e["ph"] for e in noc} == {"b", "e"}
        begins = sum(1 for e in noc if e["ph"] == "b")
        ends = sum(1 for e in noc if e["ph"] == "e")
        assert begins == ends == 2

    def test_plain_spans_export_as_complete_events(self):
        trace = to_chrome_trace(synthetic_tracer())
        load = next(e for e in trace["traceEvents"]
                    if e.get("cat") == "acc.load")
        assert load["ph"] == "X"
        assert (load["ts"], load["dur"]) == (0, 10)
        assert load["args"] == {"n": 64}

    def test_clock_scales_cycles_to_microseconds(self):
        trace = to_chrome_trace(synthetic_tracer(), clock_mhz=100.0)
        load = next(e for e in trace["traceEvents"]
                    if e.get("cat") == "acc.load")
        assert load["dur"] == pytest.approx(0.1)   # 10 cycles @ 100 MHz
        assert trace["otherData"]["clock_mhz"] == 100.0

    def test_rejects_nonpositive_clock(self):
        with pytest.raises(ValueError):
            to_chrome_trace(synthetic_tracer(), clock_mhz=0)

    def test_instants_and_counters_exported(self):
        trace = to_chrome_trace(synthetic_tracer())
        phs = {e["ph"] for e in trace["traceEvents"]}
        assert "i" in phs and "C" in phs
        counter = next(e for e in trace["traceEvents"] if e["ph"] == "C")
        assert counter["args"] == {"depth": 2}

    def test_open_spans_clamped_to_export_cycle(self):
        tracer = synthetic_tracer()
        tracer.env.now = 60
        tracer.begin("a0", "wrapper", "dangling", "acc.load")
        tracer.env.now = 100
        trace = to_chrome_trace(tracer)
        assert trace["otherData"]["open_spans"] == 1
        dangling = next(e for e in trace["traceEvents"]
                        if e["name"] == "dangling")
        # Clamped to the export cycle and flagged, so mid-run dumps
        # keep in-flight work instead of silently losing it.
        assert dangling["ph"] == "X"
        assert dangling["args"]["open"] is True
        assert (dangling["ts"], dangling["dur"]) == (60, 40)
        assert validate_chrome_trace(trace) == []

    def test_open_async_spans_export_balanced(self):
        tracer = synthetic_tracer()
        tracer.env.now = 20
        tracer.begin("noc", "dma_req", "INFLIGHT", "noc.packet")
        tracer.env.now = 25
        trace = to_chrome_trace(tracer)
        inflight = [e for e in trace["traceEvents"]
                    if e["name"] == "INFLIGHT"]
        assert {e["ph"] for e in inflight} == {"b", "e"}
        assert all(e["args"]["open"] is True for e in inflight)
        assert validate_chrome_trace(trace) == []


class TestValidator:
    def test_synthetic_trace_is_valid(self):
        assert validate_chrome_trace(to_chrome_trace(
            synthetic_tracer())) == []

    def test_traced_p2p_run_is_valid(self):
        _, _, tracer = p2p_run(tracing=True)
        trace = to_chrome_trace(tracer, clock_mhz=78.0)
        assert validate_chrome_trace(trace) == []

    def test_rejects_missing_trace_events(self):
        assert validate_chrome_trace({}) == \
            ["traceEvents missing or not a list"]

    def test_rejects_missing_required_keys(self):
        problems = validate_chrome_trace(
            {"traceEvents": [{"ph": "X", "ts": 0}]})
        assert any("missing" in p for p in problems)

    def test_rejects_negative_timestamps_and_durations(self):
        bad_ts = {"traceEvents": [
            {"ph": "i", "name": "x", "pid": 1, "ts": -1}]}
        assert any("bad ts" in p
                   for p in validate_chrome_trace(bad_ts))
        bad_dur = {"traceEvents": [
            {"ph": "X", "name": "x", "pid": 1, "ts": 0, "dur": -5}]}
        assert any("bad dur" in p
                   for p in validate_chrome_trace(bad_dur))

    def test_rejects_unbalanced_async(self):
        dangling_end = {"traceEvents": [
            {"ph": "e", "name": "p", "pid": 1, "ts": 1, "id": 7}]}
        assert any("end without begin" in p
                   for p in validate_chrome_trace(dangling_end))
        dangling_begin = {"traceEvents": [
            {"ph": "b", "name": "p", "pid": 1, "ts": 1, "id": 7}]}
        assert any("left 1 open" in p
                   for p in validate_chrome_trace(dangling_begin))

    def test_rejects_straddling_spans_on_one_track(self):
        straddle = {"traceEvents": [
            {"ph": "X", "name": "a", "pid": 1, "tid": 1,
             "ts": 0, "dur": 10},
            {"ph": "X", "name": "b", "pid": 1, "tid": 1,
             "ts": 5, "dur": 10},
        ]}
        assert any("straddles" in p
                   for p in validate_chrome_trace(straddle))

    def test_accepts_nested_and_disjoint_spans(self):
        fine = {"traceEvents": [
            {"ph": "X", "name": "outer", "pid": 1, "tid": 1,
             "ts": 0, "dur": 10},
            {"ph": "X", "name": "inner", "pid": 1, "tid": 1,
             "ts": 2, "dur": 4},
            {"ph": "X", "name": "later", "pid": 1, "tid": 1,
             "ts": 10, "dur": 3},
        ]}
        assert validate_chrome_trace(fine) == []


class _Decision:
    """RouterDecision stand-in with the fields the exporter reads."""

    def __init__(self, at, tenant, instance, trace_id=None):
        self.at = at
        self.tenant = tenant
        self.instance = instance
        self.policy = "round-robin"
        self.shard = ("i0", "i1")
        self.score = 0.0
        self.trace_id = trace_id


def fleet_tracers():
    tracers = {}
    for index, ns in enumerate(("i0", "i1")):
        env = FakeClock()
        tracer = Tracer(env, namespace=ns)
        tracer.complete("a0", "wrapper", "c", "acc.compute", 0, 40,
                        trace_id=f"f-{index}")
        # Same bare sids in both tracers; overlapping async spans.
        tracer.complete("noc", "dma_req", "PKT", "noc.packet", 2, 9)
        tracer.complete("noc", "dma_req", "PKT", "noc.packet", 5, 12)
        env.now = 50
        tracers[ns] = tracer
    return tracers


class TestMergeChromeTraces:
    def test_tracks_namespaced_per_instance(self):
        trace = merge_chrome_traces(fleet_tracers())
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"
                and e["name"] == "process_name"]
        names = {e["args"]["name"] for e in meta}
        assert {"i0/a0", "i0/noc", "i1/a0", "i1/noc"} <= names
        assert trace["otherData"]["instances"] == ["i0", "i1"]
        assert trace["otherData"]["spans"] == 6

    def test_merged_trace_is_valid(self):
        assert validate_chrome_trace(
            merge_chrome_traces(fleet_tracers())) == []

    def test_async_ids_do_not_collide_across_instances(self):
        # Both tracers number their spans 0..2; the merge must keep
        # each instance's begin/end pairs distinct.
        trace = merge_chrome_traces(fleet_tracers())
        async_ids = {e["id"] for e in trace["traceEvents"]
                     if e.get("ph") in ("b", "e")}
        assert any(str(i).startswith("i0/") for i in async_ids)
        assert any(str(i).startswith("i1/") for i in async_ids)
        assert validate_chrome_trace(trace) == []

    def test_router_decisions_become_instants_with_trace_id(self):
        decisions = [_Decision(5, "tenant-a", "i0", trace_id="f-0"),
                     _Decision(9, "tenant-b", "i1")]
        trace = merge_chrome_traces(fleet_tracers(),
                                    decisions=decisions)
        routes = [e for e in trace["traceEvents"]
                  if e.get("cat") == "fleet.route"]
        assert [e["ph"] for e in routes] == ["i", "i"]
        assert routes[0]["args"]["trace_id"] == "f-0"
        assert routes[0]["args"]["instance"] == "i0"
        assert "trace_id" not in routes[1]["args"]
        assert trace["otherData"]["router_decisions"] == 2

    def test_namespace_mismatch_raises(self):
        tracers = fleet_tracers()
        with pytest.raises(ValueError, match="does not match"):
            merge_chrome_traces({"wrong": tracers["i0"]})

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            merge_chrome_traces({})
        with pytest.raises(ValueError):
            merge_chrome_traces({"": Tracer(FakeClock())})
        with pytest.raises(ValueError):
            merge_chrome_traces(fleet_tracers(), clock_mhz=0)

    def test_dropped_counts_aggregate(self):
        tracers = fleet_tracers()
        ring = Tracer(FakeClock(), namespace="i2", capacity=1)
        for i in range(5):
            ring.complete("t", "e", "s", "cat", i, i + 1)
        tracers["i2"] = ring
        trace = merge_chrome_traces(tracers)
        assert trace["otherData"]["dropped"] == ring.dropped > 0


class TestRoundTrip:
    def test_write_chrome_trace_serializes_valid_json(self, tmp_path):
        _, _, tracer = p2p_run(tracing=True)
        path = tmp_path / "trace.json"
        written = write_chrome_trace(tracer, str(path), clock_mhz=78.0)
        loaded = json.loads(path.read_text())
        assert loaded == written
        assert validate_chrome_trace(loaded) == []
        assert loaded["otherData"]["spans"] == len(tracer.spans)


class TestFlameSummary:
    def test_hottest_track_first(self):
        tracer = Tracer(FakeClock())
        tracer.complete("a0", "wrapper", "c", "acc.compute", 0, 900)
        tracer.complete("b0", "wrapper", "c", "acc.compute", 0, 100)
        text = flame_summary(tracer)
        assert text.index("a0 / wrapper") < text.index("b0 / wrapper")
        assert "900" in text

    def test_top_limits_rows(self):
        tracer = Tracer(FakeClock())
        for i in range(30):
            tracer.complete(f"t{i}", "e", "x", "cat", 0, 30 - i)
        text = flame_summary(tracer, top=5)
        assert "top 5 tracks" in text
        assert text.count("\n") == 6   # header + column row + 5 entries

    def test_clock_converts_to_microseconds(self):
        tracer = Tracer(FakeClock())
        tracer.complete("a0", "wrapper", "c", "acc.compute", 0, 780)
        text = flame_summary(tracer, clock_mhz=78.0)
        assert "us" in text and "10.0" in text
