"""Tests for the VCD waveform exporter.

The link wires are drawn from the SoC's tracer. Two dumps are pinned
by sha256, as they were rendered from the links' own occupancy
records before the tracer became the only one:
:func:`traced_run`'s and the 12-frame dump of
``examples/waveforms_and_monitors.py``.
"""

import contextlib
import hashlib
import io
import runpy
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.noc import DMA_REQUEST_PLANE, Mesh2D, MessageKind, Packet
from repro.runtime import EspRuntime, chain
from repro.sim import Environment
from repro.soc import SoCConfig, build_soc, emit_vcd, picoseconds_per_cycle
from repro.soc import vcd as vcd_module
from repro.soc.vcd import _identifier
from repro.trace import attach_tracer
from tests.conftest import make_spec

#: sha256 of ``emit_vcd(traced_run())``.
TRACED_RUN_VCD = (
    "c7699a153f74e1298ed18c7107a17b4c19e7902a4624998973b7bf1a29be6d1d")
#: sha256 of the VCD ``examples/waveforms_and_monitors.py`` writes.
EXAMPLE_VCD = (
    "a2de0f2b8be1fc9c968f8502715c6be50052178cdb4a9674272d612b6e68a495")
EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / \
    "waveforms_and_monitors.py"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def traced_run(traced=True, n_frames=4, capacity=None):
    config = SoCConfig(cols=4, rows=1, name="vcd")
    config.add_cpu((0, 0))
    config.add_memory((1, 0))
    config.add_accelerator((2, 0), "a0",
                           make_spec(input_words=64, output_words=64,
                                     latency=100))
    config.add_accelerator((3, 0), "b0",
                           make_spec(input_words=64, output_words=64,
                                     latency=50))
    soc = build_soc(config)
    if traced:
        attach_tracer(soc, capacity=capacity)
    rt = EspRuntime(soc)
    frames = np.random.default_rng(0).uniform(0, 1, (n_frames, 64))
    rt.esp_run(chain("ab", ["a0", "b0"]), frames, mode="p2p")
    return soc


def parse_vcd_timescale(vcd: str) -> tuple:
    """The ``(magnitude, unit)`` of a VCD.

    Parses the ``$timescale`` declaration out of VCD text; raises
    ``ValueError`` when the declaration is missing or malformed.
    """
    for line in vcd.splitlines():
        line = line.strip()
        if not line.startswith("$timescale"):
            continue
        body = line[len("$timescale"):].replace("$end", "").strip()
        for index, ch in enumerate(body):
            if not ch.isdigit():
                magnitude, unit = body[:index], body[index:].strip()
                break
        else:
            raise ValueError(f"malformed $timescale: {line!r}")
        if not magnitude or unit not in ("s", "ms", "us", "ns", "ps",
                                         "fs"):
            raise ValueError(f"malformed $timescale: {line!r}")
        return int(magnitude), unit
    raise ValueError("no $timescale declaration found")


class TestIdentifiers:
    def test_unique_for_many_indices(self):
        idents = {_identifier(i) for i in range(5000)}
        assert len(idents) == 5000

    def test_first_identifiers_short(self):
        assert len(_identifier(0)) == 1
        assert len(_identifier(93)) == 1
        assert len(_identifier(94)) == 2


class TestEmitVcd:
    def test_structure(self):
        vcd = emit_vcd(traced_run())
        assert vcd.startswith("$date")
        assert "$enddefinitions $end" in vcd
        assert "a0_busy" in vcd and "b0_busy" in vcd

    def test_timescale_round_trips_from_clock(self):
        # The declared timescale must be derived from the SoC clock,
        # not hardcoded: timestamps are cycles scaled to picoseconds.
        soc = traced_run()
        magnitude, unit = parse_vcd_timescale(emit_vcd(soc))
        assert (magnitude, unit) == (1, "ps")
        # Default clock is 78 MHz -> a non-integer period in ns; the
        # ps multiplier carries it (rounded to the nearest ps).
        assert picoseconds_per_cycle(soc.clock_mhz) == round(
            1e6 / soc.clock_mhz)

    def test_timestamps_scaled_by_cycle_period(self):
        soc = traced_run()
        ps = picoseconds_per_cycle(soc.clock_mhz)
        stamps = [int(l[1:]) for l in emit_vcd(soc).splitlines()
                  if l.startswith("#")]
        assert stamps   # and every stamp is a whole number of cycles
        assert all(stamp % ps == 0 for stamp in stamps)
        assert stamps[-1] == soc.env.now * ps

    def test_parse_timescale_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_vcd_timescale("$date x $end\n$enddefinitions $end\n")
        with pytest.raises(ValueError):
            parse_vcd_timescale("$timescale banana $end\n")

    def test_link_signals_present_when_traced(self):
        vcd = emit_vcd(traced_run(traced=True))
        assert "dma_req" in vcd
        assert "dma_rsp" in vcd

    def test_no_link_signals_without_tracing(self):
        # Without a tracer there is no record of link occupancy.
        vcd = emit_vcd(traced_run(traced=False))
        assert "dma_req" not in vcd
        assert "a0_busy" in vcd   # accelerator signals always there

    def test_held_link_rises_and_does_not_fall(self):
        # Mid-flight, a packet holds both links of its route: their
        # noc.link spans are open, so each wire rises and stays high.
        env = Environment()
        attach_tracer(env)
        mesh = Mesh2D(env, 3, 1)
        mesh.send(Packet(src=(0, 0), dst=(2, 0), plane=DMA_REQUEST_PLANE,
                         kind=MessageKind.DMA_REQ, payload_flits=8))
        env.run(until=5)
        soc = SimpleNamespace(name="mesh", env=env, mesh=mesh,
                              accelerators={}, clock_mhz=78.0)
        lines = emit_vcd(soc).splitlines()
        idents = [line.split()[3] for line in lines
                  if line.startswith("$var") and "__to__" in line]
        assert len(idents) == 2
        for ident in idents:
            values = [line[0] for line in lines if line[1:] == ident]
            assert values[-1] == "1" and values.count("1") == 1

    def test_ring_tracer_is_refused(self):
        # A ring holds only the tail of the occupancy record: rendering
        # it would draw idle links where the ring evicted their spans.
        soc = traced_run(capacity=64)
        assert soc.env.tracer.dropped > 0
        with pytest.raises(ValueError, match="ring"):
            emit_vcd(soc)

    def test_traced_run_is_pinned(self):
        assert sha256(emit_vcd(traced_run())) == TRACED_RUN_VCD

    def test_example_dump_is_pinned(self, tmp_path):
        main = runpy.run_path(str(EXAMPLE), run_name="example")["main"]
        path = tmp_path / "run.vcd"
        with contextlib.redirect_stdout(io.StringIO()):
            main(str(path))
        assert sha256(path.read_text()) == EXAMPLE_VCD

    def test_busy_toggles_per_invocation(self):
        soc = traced_run(traced=False)
        vcd = emit_vcd(soc)
        # p2p mode: one streaming invocation each -> one rise per device
        # after the initial 0.
        ident = None
        for line in vcd.splitlines():
            if line.endswith("a0_busy $end"):
                ident = line.split()[3]
        assert ident is not None
        rises = [l for l in vcd.splitlines() if l == f"1{ident}"]
        assert len(rises) == 1

    def test_timestamps_monotonic(self):
        vcd = emit_vcd(traced_run())
        stamps = [int(l[1:]) for l in vcd.splitlines()
                  if l.startswith("#")]
        assert stamps == sorted(stamps)

    def test_max_links_cap(self, monkeypatch):
        monkeypatch.setattr(vcd_module, "MAX_LINKS", 2)
        vcd = emit_vcd(traced_run())
        link_vars = [l for l in vcd.splitlines()
                     if "$var" in l and "__to__" in l]
        assert len(link_vars) == 2


class TestBackToBackInvocations:
    """Two invocations sharing a boundary cycle (streaming restart)."""

    def _soc_with_boundary(self):
        from repro.soc.wrapper import InvocationResult

        config = SoCConfig(cols=3, rows=1, name="b2b")
        config.add_cpu((0, 0))
        config.add_memory((1, 0))
        config.add_accelerator((2, 0), "a0",
                               make_spec(input_words=8, output_words=8))
        soc = build_soc(config)
        tile = soc.accelerators["a0"]
        # Invocation 2 starts on the exact cycle invocation 1 ends.
        tile.invocations.append(InvocationResult(
            frames=1, start_cycle=100, end_cycle=200))
        tile.invocations.append(InvocationResult(
            frames=1, start_cycle=200, end_cycle=300))
        soc.env._now = 300
        return soc

    def test_vcd_boundary_cycle_stays_busy(self):
        # At the shared cycle the falling edge of invocation 1 and the
        # rising edge of invocation 2 collapse: later changes at the
        # same timestamp override earlier ones, so the wire stays 1.
        soc = self._soc_with_boundary()
        vcd = emit_vcd(soc)
        ident = next(line.split()[3] for line in vcd.splitlines()
                     if line.endswith("a0_busy $end"))
        ps = picoseconds_per_cycle(soc.clock_mhz)
        lines = vcd.splitlines()
        at_boundary = lines[lines.index(f"#{200 * ps}") + 1]
        assert at_boundary == f"1{ident}"
        # The run still ends with the wire low.
        at_end = lines[lines.index(f"#{300 * ps}") + 1]
        assert at_end == f"0{ident}"

    def test_utilization_clamped_to_window(self):
        from repro.eval import utilization_by_device
        from repro.trace import device_spans

        soc = self._soc_with_boundary()
        assert [(s.start, s.end) for s in device_spans(soc)] == \
            [(100, 200), (200, 300)]
        # A window shorter than the device's lifetime busy total must
        # clamp at 1.0, never exceed it.
        util = utilization_by_device(soc, window=(150, 250))
        assert util["a0"] == 1.0
        full = utilization_by_device(soc, window=(0, 400))
        assert full["a0"] == pytest.approx(200 / 400)
