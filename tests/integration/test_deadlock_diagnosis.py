"""Tests for how misconfigured pipelines fail — loudly, not silently.

A mis-programmed p2p configuration on real hardware hangs; in the
simulator the event queue drains with the completion event untriggered
and the kernel raises ``SimulationError``. These tests pin that
diagnosis path for the representative misconfigurations.
"""

import numpy as np
import pytest

from repro.sim import SimulationError
from repro.soc import CMD_REG, CMD_START, N_FRAMES_REG, P2PConfig
from tests.conftest import make_soc, make_spec


def start_raw(soc, name, n_frames, p2p):
    """Start a device via raw register writes, bypassing the runtime
    (which would refuse these configurations at validation time)."""
    cpu = soc.cpu
    tile = soc.accelerator(name)

    def proc():
        yield from cpu.write_reg(tile.coord, "SRC_OFFSET_REG", 0)
        yield from cpu.write_reg(tile.coord, "DST_OFFSET_REG", 4096)
        yield from cpu.write_reg(tile.coord, N_FRAMES_REG, n_frames)
        yield from cpu.write_reg(tile.coord, "P2P_REG", p2p.encode())
        yield from cpu.write_reg(tile.coord, CMD_REG, CMD_START)
        yield from cpu.wait_irq(name)

    return soc.env.process(proc())


class TestHangDiagnosis:
    def test_p2p_load_with_no_producer_hangs_detectably(self):
        """A consumer waiting on a source that never stores: the
        schedule drains and run(until=...) reports it instead of
        returning a bogus result."""
        soc = make_soc([("cons0", make_spec(input_words=8,
                                            output_words=8))])
        consumer = soc.accelerator("cons0")
        # Point the p2p source at the aux tile: nothing will ever
        # answer the request.
        done = start_raw(soc, "cons0", n_frames=1,
                         p2p=P2PConfig(load_enabled=True,
                                       sources=((2, 0),)))
        with pytest.raises(SimulationError, match="drained"):
            soc.run(until=done)

    def test_p2p_store_with_no_consumer_completes_until_queue_full(self):
        """A producer with no consumer parks its first chunks and then
        blocks; the IRQ never fires."""
        soc = make_soc([("prod0", make_spec(input_words=8,
                                            output_words=8))])
        soc.memory_map.write_words(0, np.zeros(8 * 8))
        done = start_raw(soc, "prod0", n_frames=8,
                         p2p=P2PConfig(store_enabled=True))
        with pytest.raises(SimulationError, match="drained"):
            soc.run(until=done)
        # The shallow queue absorbed its depth before the stall.
        from repro.soc import P2P_QUEUE_DEPTH
        assert soc.accelerator("prod0").dma.transactions["p2p_store"] \
            == P2P_QUEUE_DEPTH

    def test_crossed_p2p_pair_deadlocks_detectably(self):
        """Two consumers pointing at each other (a cycle the dataflow
        validator would reject) deadlock in hardware; the simulator
        reports the drain instead of hanging."""
        soc = make_soc([("a0", make_spec(input_words=8, output_words=8)),
                        ("b0", make_spec(input_words=8, output_words=8))])
        a_coord = soc.accelerator("a0").coord
        b_coord = soc.accelerator("b0").coord
        done_a = start_raw(soc, "a0", 1,
                           P2PConfig(load_enabled=True,
                                     sources=(b_coord,)))
        done_b = start_raw(soc, "b0", 1,
                           P2PConfig(load_enabled=True,
                                     sources=(a_coord,)))
        with pytest.raises(SimulationError, match="drained"):
            soc.run(until=soc.env.all_of([done_a, done_b]))

    def test_runtime_rejects_the_same_cycle_up_front(self, rng):
        """The software layer catches the cycle before any hardware is
        touched — the defence the paper's generated dataflows get."""
        from repro.runtime import Dataflow, DataflowEdge, EspRuntime
        soc = make_soc([("a0", make_spec(input_words=8, output_words=8)),
                        ("b0", make_spec(input_words=8, output_words=8))])
        runtime = EspRuntime(soc)
        df = Dataflow(name="cycle", devices=["a0", "b0"],
                      edges=[DataflowEdge("a0", "b0"),
                             DataflowEdge("b0", "a0")])
        with pytest.raises(ValueError, match="cycle"):
            runtime.esp_run(df, rng.uniform(0, 1, (2, 8)), mode="p2p")
