"""Tests for fault injection mechanics at the SoC level."""

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultPlan, FaultSpec, zero_fault_plan
from repro.runtime import EspRuntime, chain
from tests.conftest import make_soc, make_spec


def two_stage_soc():
    return make_soc([("s0", make_spec(name="s0")),
                     ("s1", make_spec(name="s1"))])


def two_stage_run(soc, mode="pipe", n_frames=4, recovery=None):
    runtime = EspRuntime(soc, recovery=recovery)
    frames = np.arange(n_frames * 16, dtype=float).reshape(n_frames, 16)
    result = runtime.esp_run(chain("two", ["s0", "s1"]), frames,
                             mode=mode)
    return result, frames + 2.0   # each stage adds one


def detach(soc) -> None:
    """Remove any injector from a built SoC."""
    soc.mesh.fault_injector = None
    for tile in soc.accelerators.values():
        tile.fault_injector = None
        tile.dma.fault_injector = None
    for tile in soc.memory_map.tiles:
        tile.fault_injector = None


class TestPayForWhatYouUse:
    @pytest.mark.parametrize("mode", ["base", "pipe", "p2p"])
    def test_zero_fault_plan_is_cycle_identical(self, mode):
        baseline, expected = two_stage_run(two_stage_soc(), mode)

        soc = two_stage_soc()
        FaultInjector(zero_fault_plan()).attach(soc)
        injected, _ = two_stage_run(soc, mode)

        assert injected.cycles == baseline.cycles
        np.testing.assert_array_equal(injected.outputs, expected)

    def test_detach_restores_clean_soc(self):
        soc = two_stage_soc()
        injector = FaultInjector(zero_fault_plan()).attach(soc)
        assert soc.mesh.fault_injector is injector
        detach(soc)
        assert soc.mesh.fault_injector is None
        for tile in soc.accelerators.values():
            assert tile.fault_injector is None
            assert tile.dma.fault_injector is None


class TestLinkFaults:
    def test_corrupted_packet_is_discarded_not_delivered(self):
        """CRC-detected corruption must never surface as silent data:
        the packet is dropped at ejection and the recovery watchdog
        re-runs the transfer, keeping the output bit-exact."""
        from repro.faults import RecoveryPolicy

        soc = two_stage_soc()
        plan = FaultPlan([FaultSpec(kind="link_corrupt", at_cycle=10,
                                    plane="dma-rsp", count=1)])
        injector = FaultInjector(plan).attach(soc)
        result, expected = two_stage_run(
            soc, recovery=RecoveryPolicy(watchdog_cycles=20_000))
        assert injector.packets_corrupted == 1
        assert soc.mesh.packets_corrupted == 1
        np.testing.assert_array_equal(result.outputs, expected)

    def test_drop_counted_on_mesh(self):
        from repro.faults import RecoveryPolicy

        soc = two_stage_soc()
        plan = FaultPlan([FaultSpec(kind="link_drop", at_cycle=10,
                                    plane="dma-rsp", count=1)])
        FaultInjector(plan).attach(soc)
        result, expected = two_stage_run(
            soc, recovery=RecoveryPolicy(watchdog_cycles=20_000))
        assert soc.mesh.packets_dropped == 1
        np.testing.assert_array_equal(result.outputs, expected)


class TestDmaFaults:
    def test_finite_stall_delays_but_completes(self):
        baseline, expected = two_stage_run(two_stage_soc())

        soc = two_stage_soc()
        plan = FaultPlan([FaultSpec(kind="dma_stall", at_cycle=0,
                                    duration=5_000, count=1)])
        injector = FaultInjector(plan).attach(soc)
        stalled, _ = two_stage_run(soc)

        assert injector.dma_stalls == 1
        assert stalled.cycles >= baseline.cycles + 4_000
        np.testing.assert_array_equal(stalled.outputs, expected)


class TestAcceleratorFaults:
    def test_slow_fault_stretches_the_run(self):
        baseline, expected = two_stage_run(two_stage_soc())

        soc = two_stage_soc()
        plan = FaultPlan([FaultSpec(kind="acc_slow", target="s0",
                                    at_cycle=0, factor=8.0, count=1)])
        injector = FaultInjector(plan).attach(soc)
        slowed, _ = two_stage_run(soc)

        assert injector.acc_faults == 1
        assert slowed.cycles > baseline.cycles
        np.testing.assert_array_equal(slowed.outputs, expected)

    def test_crash_sets_error_status_and_counts(self):
        from repro.faults import RecoveryPolicy

        soc = two_stage_soc()
        plan = FaultPlan([FaultSpec(kind="acc_crash", target="s0",
                                    at_cycle=0, count=1)])
        FaultInjector(plan).attach(soc)
        result, expected = two_stage_run(
            soc, recovery=RecoveryPolicy(watchdog_cycles=20_000))
        assert soc.accelerators["s0"].kernel_crashes == 1
        np.testing.assert_array_equal(result.outputs, expected)


class TestDramFaults:
    def test_bitflip_lands_in_storage(self):
        soc = two_stage_soc()
        plan = FaultPlan([FaultSpec(kind="dram_bitflip", at_cycle=0,
                                    count=1)])
        injector = FaultInjector(plan).attach(soc)
        result, expected = two_stage_run(soc)
        memory = soc.memory_map.tiles[0]
        assert injector.bits_flipped == 1
        assert memory.bitflips == 1
        # A mantissa flip in a loaded input corrupts downstream data.
        assert not np.array_equal(result.outputs, expected)

    def test_flip_is_cleared_by_rewriting(self):
        """The upset persists in storage until the word is rewritten,
        so a fresh application-level run over rewritten inputs is
        clean once the transient spec is exhausted."""
        soc = two_stage_soc()
        plan = FaultPlan([FaultSpec(kind="dram_bitflip", at_cycle=0,
                                    count=1)])
        FaultInjector(plan).attach(soc)
        runtime = EspRuntime(soc)
        frames = np.arange(4 * 16, dtype=float).reshape(4, 16)
        dataflow = chain("two", ["s0", "s1"])
        first = runtime.esp_run(dataflow, frames, mode="pipe")
        assert not np.array_equal(first.outputs, frames + 2.0)
        second = runtime.esp_run(dataflow, frames, mode="pipe")
        np.testing.assert_array_equal(second.outputs, frames + 2.0)
