"""Tests for the execution timeline / Gantt utilities."""

import numpy as np
import pytest

from repro.eval import (GANTT_BUSY, GANTT_OVERLAP, render_gantt,
                        utilization_by_device)
from repro.runtime import chain
from repro.trace import device_spans
from tests.conftest import make_runtime, make_spec


def run_pipeline(mode, n_frames=4):
    specs = [("a0", make_spec(name="a", input_words=8, output_words=8,
                              latency=200)),
             ("b0", make_spec(name="b", input_words=8, output_words=8,
                              latency=100))]
    rt = make_runtime(specs)
    frames = np.random.default_rng(0).uniform(0, 1, (n_frames, 8))
    rt.esp_run(chain("ab", ["a0", "b0"]), frames, mode=mode)
    return rt.soc


class TestSpans:
    def test_base_mode_one_span_per_frame_per_device(self):
        soc = run_pipeline("base", n_frames=4)
        spans = device_spans(soc)
        assert len(spans) == 8
        assert {s.device for s in spans} == {"a0", "b0"}

    def test_p2p_mode_one_span_per_device(self):
        soc = run_pipeline("p2p", n_frames=4)
        spans = device_spans(soc)
        assert len(spans) == 2

    def test_spans_sorted_and_positive(self):
        soc = run_pipeline("pipe")
        spans = device_spans(soc)
        starts = [s.start for s in spans]
        assert starts == sorted(starts)
        assert all(s.cycles > 0 for s in spans)

    def test_base_mode_spans_do_not_overlap(self):
        soc = run_pipeline("base")
        spans = device_spans(soc)
        for earlier, later in zip(spans, spans[1:]):
            assert later.start >= earlier.end

    def test_pipe_mode_spans_overlap(self):
        soc = run_pipeline("pipe", n_frames=8)
        spans = device_spans(soc)
        overlaps = any(
            a.device != b.device and a.start < b.end and b.start < a.end
            for a in spans for b in spans)
        assert overlaps

    def test_since_cycle_filters(self):
        soc = run_pipeline("base", n_frames=4)
        all_spans = device_spans(soc)
        later = device_spans(soc, since_cycle=all_spans[3].end)
        assert len(later) < len(all_spans)


class TestUtilization:
    def test_fractions_in_unit_range(self):
        soc = run_pipeline("pipe")
        util = utilization_by_device(soc)
        assert set(util) == {"a0", "b0"}
        assert all(0 < u <= 1 for u in util.values())

    def test_slower_stage_busier(self):
        soc = run_pipeline("pipe", n_frames=8)
        util = utilization_by_device(soc)
        assert util["a0"] > util["b0"]

    def test_empty_soc(self):
        from tests.conftest import make_soc
        soc = make_soc([("x0", make_spec())])
        assert utilization_by_device(soc) == {}


class TestGantt:
    def test_renders_all_devices(self):
        soc = run_pipeline("pipe")
        text = render_gantt(soc)
        assert "a0" in text and "b0" in text
        assert "#" in text
        assert "utilization" in text

    def test_no_activity_message(self):
        from tests.conftest import make_soc
        soc = make_soc([("x0", make_spec())])
        assert "no accelerator activity" in render_gantt(soc)

    def test_width_respected(self):
        soc = run_pipeline("base")
        text = render_gantt(soc, width=40)
        bar_lines = [l for l in text.splitlines() if "|" in l]
        assert all(len(l.split("|")[1]) == 40 for l in bar_lines)

    def test_overlap_glyph_distinct_from_busy(self):
        # The overlap marker must be distinguishable: the old renderer
        # collapsed overlapping invocations into the same "#" glyph.
        assert GANTT_OVERLAP != GANTT_BUSY

    def test_concurrent_invocations_render_overlap_glyph(self):
        from repro.soc.wrapper import InvocationResult
        from tests.conftest import make_soc

        soc = make_soc([("x0", make_spec())])
        tile = soc.accelerators["x0"]
        # Two invocations of one device covering the same cycles (e.g.
        # overlapping per-frame bars in a narrow chart column).
        tile.invocations.append(InvocationResult(
            frames=1, start_cycle=0, end_cycle=1000))
        tile.invocations.append(InvocationResult(
            frames=1, start_cycle=0, end_cycle=1000))
        text = render_gantt(soc, width=20)
        row = next(l for l in text.splitlines() if l.startswith("x0"))
        assert GANTT_OVERLAP in row
        assert GANTT_BUSY not in row.split("|")[1]

    def test_single_coverage_has_no_overlap_glyph(self):
        from repro.soc.wrapper import InvocationResult
        from tests.conftest import make_soc

        soc = make_soc([("x0", make_spec())])
        tile = soc.accelerators["x0"]
        tile.invocations.append(InvocationResult(
            frames=1, start_cycle=0, end_cycle=1000))
        text = render_gantt(soc, width=20)
        row = next(l for l in text.splitlines() if l.startswith("x0"))
        assert GANTT_BUSY in row
        assert GANTT_OVERLAP not in row
