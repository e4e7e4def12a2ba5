"""Tests for critical-path attribution: synthetic precedence cases and
the end-to-end coverage guarantee on an instrumented p2p run."""

import pytest

from repro.trace import (
    GROUP_PRECEDENCE,
    Tracer,
    analyze_run,
    attribute_interval,
    group_of,
)
from tests.trace.test_tracer import FakeClock, p2p_run


class TestGroupMapping:
    def test_category_groups(self):
        assert group_of("acc.compute") == "compute"
        assert group_of("acc.load") == "dma"
        assert group_of("acc.store") == "dma"
        assert group_of("dma.p2p_load") == "dma"
        assert group_of("noc.packet") == "noc"
        assert group_of("noc.link") == "noc"
        assert group_of("runtime.ioctl") == "software"
        assert group_of("runtime.config") == "software"
        assert group_of("runtime.irq_wait") == "sync"
        assert group_of("runtime.sync") == "sync"
        assert group_of("serve.grant_wait") == "queue"

    def test_unmapped_categories_fall_to_other(self):
        assert group_of("acc.invocation") == "other"
        assert group_of("runtime.run") == "other"
        assert group_of("sim.process") == "other"

    def test_prefix_match_is_segment_aware(self):
        # "dma" must not claim "dmax.whatever".
        assert group_of("dmax.thing") == "other"

    def test_every_group_is_ranked(self):
        mapped = {group_of(cat) for cat in (
            "acc.compute", "dma.load", "noc.link", "runtime.ioctl",
            "serve.queue", "runtime.sync", "unknown.cat")}
        assert mapped <= set(GROUP_PRECEDENCE)


class TestAttributeInterval:
    def test_precedence_compute_beats_sync(self):
        tracer = Tracer(FakeClock())
        # Software waits on the IRQ for the whole window while the
        # kernel computes in the middle: the overlap is compute time.
        tracer.complete("cpu", "drv", "wait", "runtime.irq_wait", 0, 100)
        tracer.complete("a0", "wrap", "c", "acc.compute", 30, 70)
        report = attribute_interval(tracer, 0, 100)
        assert report.by_group == {"sync": 60, "compute": 40}
        assert report.coverage == 1.0
        assert report.fraction("compute") == pytest.approx(0.4)

    def test_unattributed_gap_reported(self):
        tracer = Tracer(FakeClock())
        tracer.complete("a0", "wrap", "c", "acc.compute", 10, 20)
        report = attribute_interval(tracer, 0, 40)
        assert report.by_group == {"compute": 10}
        assert report.unattributed_cycles == 30
        assert report.coverage == pytest.approx(0.25)
        gaps = [s for s in report.segments if s.group == "unattributed"]
        assert [(s.start, s.end) for s in gaps] == [(0, 10), (20, 40)]

    def test_exclude_sids_removes_wrapper_span(self):
        tracer = Tracer(FakeClock())
        tracer.complete("cpu", "main", "run", "acc.compute", 0, 100)
        wrapper = tracer.spans[-1]
        report = attribute_interval(tracer, 0, 100,
                                    exclude_sids=(wrapper.sid,))
        assert report.coverage == 0.0

    def test_spans_clipped_to_window(self):
        tracer = Tracer(FakeClock())
        tracer.complete("a0", "w", "c", "acc.compute", -50, 1000)
        report = attribute_interval(tracer, 10, 30)
        assert report.by_group == {"compute": 20}
        assert report.total_cycles == 20

    def test_zero_length_spans_never_own_cycles(self):
        tracer = Tracer(FakeClock())
        tracer.complete("a0", "w", "blip", "acc.compute", 5, 5)
        tracer.complete("cpu", "d", "wait", "runtime.sync", 0, 10)
        report = attribute_interval(tracer, 0, 10)
        assert report.by_group == {"sync": 10}

    def test_empty_window(self):
        report = attribute_interval(Tracer(FakeClock()), 10, 10)
        assert report.total_cycles == 0
        assert report.coverage == 1.0
        assert report.fraction("compute") == 0.0

    def test_backwards_window_raises(self):
        with pytest.raises(ValueError):
            attribute_interval(Tracer(FakeClock()), 10, 0)

    def test_by_category_sums_to_by_group(self):
        tracer = Tracer(FakeClock())
        tracer.complete("a0", "w", "l", "acc.load", 0, 10)
        tracer.complete("a0", "w", "s", "acc.store", 10, 30)
        report = attribute_interval(tracer, 0, 30)
        assert report.by_group == {"dma": 30}
        assert report.by_category == {"acc.load": 10, "acc.store": 20}

    def test_render_mentions_groups_and_coverage(self):
        tracer = Tracer(FakeClock())
        tracer.complete("a0", "w", "c", "acc.compute", 0, 80)
        text = attribute_interval(tracer, 0, 100, label="demo").render()
        assert "demo" in text
        assert "compute" in text
        assert "coverage: 80.0% attributed" in text
        assert "(none)" in text


class TestAnalyzeRun:
    """The ISSUE acceptance bar: attribute one p2p frame pipeline."""

    def test_p2p_run_coverage_at_least_95_percent(self):
        _, _, tracer = p2p_run(tracing=True)
        report = analyze_run(tracer)
        assert report.coverage >= 0.95, report.render()

    def test_attribution_is_dominated_by_named_work(self):
        _, _, tracer = p2p_run(tracing=True)
        report = analyze_run(tracer)
        # Something real must land in each of the big buckets of a p2p
        # run: kernel compute, DMA/streaming, software setup.
        assert report.by_group.get("compute", 0) > 0
        assert report.by_group.get("dma", 0) > 0
        assert report.by_group.get("software", 0) > 0
        # And the window is the esp_run itself.
        run_span = tracer.find_span("runtime.run")
        assert (report.t0, report.t1) == (run_span.start, run_span.end)

    def test_groups_never_exceed_window(self):
        _, _, tracer = p2p_run(tracing=True)
        report = analyze_run(tracer)
        assert sum(report.by_group.values()) <= report.total_cycles
        assert sum(s.cycles for s in report.segments) == \
            report.total_cycles

    def test_missing_run_span_raises(self):
        with pytest.raises(KeyError):
            analyze_run(Tracer(FakeClock()))
