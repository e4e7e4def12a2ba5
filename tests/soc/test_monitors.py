"""Tests for the SoC performance-monitor aggregation."""

import operator

import numpy as np
import pytest

from repro.soc import read_monitors
from repro.soc.monitors import MonitorReport, _combine
from repro.runtime import EspRuntime, chain
from repro.soc import SoCConfig, build_soc
from tests.conftest import make_runtime, make_spec


def run_and_read(mode="p2p", n_frames=6):
    specs = [("a0", make_spec(name="a", input_words=8, output_words=8,
                              latency=100)),
             ("b0", make_spec(name="b", input_words=8, output_words=8,
                              latency=50))]
    rt = make_runtime(specs)
    frames = np.random.default_rng(0).uniform(0, 1, (n_frames, 8))
    rt.esp_run(chain("ab", ["a0", "b0"]), frames, mode=mode)
    return read_monitors(rt.soc)


def _minus(end, start):
    """``end - start``; a counter the tile lacks (None) stays None."""
    return None if end is None else end - (start or 0)


def monitor_delta(before: MonitorReport,
                  after: MonitorReport) -> MonitorReport:
    """Counter-wise ``after - before``: the activity of one interval.

    Back-to-back pipelines on one SoC share cumulative counters; the
    delta of two :func:`read_monitors` snapshots attributes activity to
    the run between them. Utilization is recomputed from the busy-cycle
    delta over the elapsed-cycle delta.
    """
    elapsed = after.elapsed_cycles - before.elapsed_cycles
    if elapsed < 0:
        raise ValueError("'after' snapshot precedes 'before'")
    before_acc = {a.device: a for a in before.accelerators}
    accelerators = []
    for acc in after.accelerators:
        base = before_acc.get(acc.device)
        if base is None:
            raise KeyError(f"no 'before' snapshot for {acc.device!r}")
        busy = acc.busy_cycles - base.busy_cycles
        accelerators.append(_combine(
            acc, base, operator.sub,
            utilization=busy / elapsed if elapsed else 0.0))
    before_mem = {m.coord: m for m in before.memories}
    memories = []
    for mem in after.memories:
        base = before_mem.get(mem.coord)
        if base is None:
            raise KeyError(f"no 'before' snapshot for memory {mem.coord}")
        memories.append(_combine(mem, base, _minus))
    plane_flits = {name: after.noc_plane_flits.get(name, 0)
                   - before.noc_plane_flits.get(name, 0)
                   for name in after.noc_plane_flits}
    return MonitorReport(
        elapsed_cycles=elapsed,
        clock_mhz=after.clock_mhz,
        accelerators=accelerators,
        memories=memories,
        noc_flit_hops=after.noc_flit_hops - before.noc_flit_hops,
        noc_packets=after.noc_packets - before.noc_packets,
        noc_plane_flits=plane_flits,
        busiest_link=after.busiest_link,
    )


class TestMonitorReport:
    def test_accelerator_counters_consistent(self):
        report = run_and_read(mode="p2p", n_frames=6)
        by_name = {a.device: a for a in report.accelerators}
        assert by_name["a0"].frames == 6
        assert by_name["b0"].frames == 6
        assert by_name["a0"].p2p_stores == 6
        assert by_name["b0"].p2p_loads == 6
        assert by_name["a0"].dma_loads == 6     # input from DRAM
        assert by_name["b0"].dma_stores == 6    # output to DRAM

    def test_pipe_mode_shows_dma_only(self):
        report = run_and_read(mode="pipe")
        for acc in report.accelerators:
            assert acc.p2p_loads == 0
            assert acc.p2p_stores == 0

    def test_memory_counters_match_runresult_accounting(self):
        report = run_and_read(mode="pipe", n_frames=4)
        # in(4x8) + inter write/read (2x 4x8) + out(4x8) = 128 words.
        assert report.total_dram_words == 128

    def test_bandwidth_positive(self):
        report = run_and_read()
        assert report.dram_bandwidth_words_per_cycle() > 0

    def test_busiest_link_reported(self):
        report = run_and_read()
        assert report.busiest_link is not None
        assert "flits" in report.busiest_link

    def test_llc_counters_absent_without_llc(self):
        report = run_and_read()
        assert all(m.llc_hits is None for m in report.memories)

    def test_llc_counters_present_with_llc(self, rng):
        config = SoCConfig(cols=4, rows=1, name="mon-llc")
        config.add_cpu((0, 0))
        config.add_memory((1, 0), size_words=1 << 15, llc_words=4096)
        spec = make_spec(input_words=64, output_words=64)
        config.add_accelerator((2, 0), "a0", spec)
        config.add_accelerator((3, 0), "b0", spec)
        rt = EspRuntime(build_soc(config))
        frames = rng.uniform(0, 1, (4, 64))
        rt.esp_run(chain("ab", ["a0", "b0"]), frames, mode="pipe",
                   coherence="llc-coherent")
        report = read_monitors(rt.soc)
        assert report.memories[0].llc_hits is not None
        assert report.memories[0].llc_hits + \
            report.memories[0].llc_misses > 0

    def test_text_rendering(self):
        report = run_and_read()
        text = report.to_text()
        assert "SoC monitors" in text
        assert "a0" in text and "b0" in text
        assert "DRAM bandwidth" in text


class TestDeltaAttribution:
    """Back-to-back runs on one SoC share cumulative counters; the
    snapshot-delta helpers attribute activity to each run."""

    def runtime(self):
        specs = [("a0", make_spec(name="a", input_words=8,
                                  output_words=8, latency=100)),
                 ("b0", make_spec(name="b", input_words=8,
                                  output_words=8, latency=50))]
        return make_runtime(specs)

    def run_frames(self, rt, n_frames, seed=0):
        frames = np.random.default_rng(seed).uniform(0, 1, (n_frames, 8))
        rt.esp_run(chain("ab", ["a0", "b0"]), frames, mode="p2p")

    def test_activity_delta_isolates_second_run(self):
        from repro.soc import activity_delta, tile_activity
        rt = self.runtime()
        names = ["a0", "b0"]
        snap0 = tile_activity(rt.soc, names)
        self.run_frames(rt, 6, seed=1)
        snap1 = tile_activity(rt.soc, names)
        self.run_frames(rt, 4, seed=2)
        snap2 = tile_activity(rt.soc, names)

        first = activity_delta(snap0, snap1)
        second = activity_delta(snap1, snap2)
        assert first["a0"].frames == 6 and first["b0"].frames == 6
        assert second["a0"].frames == 4 and second["b0"].frames == 4
        assert second["a0"].busy_cycles > 0
        assert second["a0"].p2p_stores == 4
        assert second["b0"].p2p_loads == 4
        # The cumulative view is the sum of the two windows.
        assert snap2["a0"].frames == \
            snap0["a0"].frames + first["a0"].frames + second["a0"].frames

    def test_monitor_delta_recomputes_utilization(self):
        rt = self.runtime()
        self.run_frames(rt, 6, seed=1)
        before = read_monitors(rt.soc)
        self.run_frames(rt, 4, seed=2)
        after = read_monitors(rt.soc)

        delta = monitor_delta(before, after)
        by_name = {a.device: a for a in delta.accelerators}
        assert by_name["a0"].frames == 4
        assert by_name["b0"].frames == 4
        assert 0 < by_name["a0"].utilization <= 1.0
        assert delta.elapsed_cycles == \
            after.elapsed_cycles - before.elapsed_cycles
        # p2p second run: DRAM only sees input + output words.
        assert delta.total_dram_words == 2 * 4 * 8
        assert delta.noc_flit_hops > 0

    def test_monitor_delta_rejects_reversed_snapshots(self):
        rt = self.runtime()
        before = read_monitors(rt.soc)
        self.run_frames(rt, 2)
        after = read_monitors(rt.soc)
        with pytest.raises(ValueError, match="precedes"):
            monitor_delta(after, before)

    def test_tile_activity_validates_names(self):
        from repro.soc import tile_activity
        rt = self.runtime()
        with pytest.raises(KeyError, match="unknown accelerator"):
            tile_activity(rt.soc, ["nope"])

    def test_activity_delta_requires_matching_before(self):
        from repro.soc import activity_delta, tile_activity
        rt = self.runtime()
        full = tile_activity(rt.soc, ["a0", "b0"])
        partial = tile_activity(rt.soc, ["a0"])
        with pytest.raises(KeyError, match="before"):
            activity_delta(partial, full)

    def test_tile_activity_addition_merges_windows(self):
        from repro.soc import TileActivity
        def activity(name, frames):
            return TileActivity(device=name, invocations=1,
                                frames=frames, busy_cycles=10,
                                dma_loads=1, dma_stores=1, p2p_loads=0,
                                p2p_stores=0, words_loaded=8,
                                words_stored=8)
        merged = activity("a0", 2) + activity("a0", 3)
        assert merged.frames == 5 and merged.busy_cycles == 20
        with pytest.raises(ValueError, match="cannot add"):
            activity("a0", 1) + activity("b0", 1)
