"""Tests for the accelerator tile socket and the Fig. 4 wrapper."""

import numpy as np
import pytest

from repro.soc import (
    CMD_REG,
    CMD_START,
    DST_OFFSET_REG,
    InvocationConfig,
    N_FRAMES_REG,
    P2PConfig,
    SRC_OFFSET_REG,
    SRC_STRIDE_REG,
    STATUS_DONE,
    STATUS_IDLE,
)

from tests.conftest import make_soc, make_spec


def start_device(soc, name, src, dst, n_frames, p2p=P2PConfig(),
                 src_stride=0, dst_stride=0):
    """Configure and start an accelerator from the CPU side."""
    cpu = soc.cpu
    tile = soc.accelerator(name)

    def proc():
        writes = [
            (SRC_OFFSET_REG, src), (DST_OFFSET_REG, dst),
            (SRC_STRIDE_REG, src_stride), ("DST_STRIDE_REG", dst_stride),
            (N_FRAMES_REG, n_frames), ("P2P_REG", p2p.encode()),
            (CMD_REG, CMD_START),
        ]
        for reg, value in writes:
            yield cpu.write_reg(tile.coord, reg, value)
        yield from cpu.wait_irq(name)

    return soc.env.process(proc())


class TestInvocationConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            InvocationConfig(src_offset=0, dst_offset=0, n_frames=0,
                             p2p=P2PConfig())
        with pytest.raises(ValueError):
            InvocationConfig(src_offset=-1, dst_offset=0, n_frames=1,
                             p2p=P2PConfig())
        with pytest.raises(ValueError):
            InvocationConfig(src_offset=0, dst_offset=0, n_frames=1,
                             p2p=P2PConfig(), src_stride=-1)


class TestSingleInvocation:
    def test_processes_frames_through_dram(self, rng):
        spec = make_spec(input_words=16, output_words=16)
        soc = make_soc([("acc0", spec)])
        frames = rng.uniform(0, 1, (4, 16))
        soc.memory_map.write_words(0, frames.reshape(-1))
        done = start_device(soc, "acc0", src=0, dst=1024, n_frames=4)
        soc.run(until=done)
        soc.run()
        out = soc.memory_map.read_words(1024, 64).reshape(4, 16)
        np.testing.assert_allclose(out, frames + 1.0)

    def test_status_transitions_and_irq(self):
        spec = make_spec()
        soc = make_soc([("acc0", spec)])
        tile = soc.accelerator("acc0")
        assert tile.status == STATUS_IDLE
        done = start_device(soc, "acc0", src=0, dst=512, n_frames=1)
        soc.run(until=done)
        assert tile.status == STATUS_DONE
        assert soc.cpu.irqs_received == 1

    def test_accounting(self):
        spec = make_spec()
        soc = make_soc([("acc0", spec)])
        done = start_device(soc, "acc0", src=0, dst=512, n_frames=3)
        soc.run(until=done)
        tile = soc.accelerator("acc0")
        assert tile.frames_processed == 3
        assert len(tile.invocations) == 1
        assert tile.invocations[0].frames == 3
        assert tile.busy_cycles >= 3 * spec.latency_cycles

    def test_per_frame_cost_includes_compute_latency(self):
        fast = make_spec(latency=10)
        slow = make_spec(latency=5000)

        def run_one(spec):
            soc = make_soc([("acc0", spec)])
            done = start_device(soc, "acc0", src=0, dst=512, n_frames=2)
            soc.run(until=done)
            return soc.accelerator("acc0").invocations[0].cycles

        assert run_one(slow) > run_one(fast) + 2 * 4900

    def test_strided_load(self, rng):
        spec = make_spec(input_words=8, output_words=8)
        soc = make_soc([("acc0", spec)])
        frames = rng.uniform(0, 1, (4, 8))
        # Interleave with stride 16: frames at 0, 16, 32, 48.
        for i, frame in enumerate(frames):
            soc.memory_map.write_words(i * 16, frame)
        done = start_device(soc, "acc0", src=0, dst=512, n_frames=4,
                            src_stride=16)
        soc.run(until=done)
        soc.run()
        out = soc.memory_map.read_words(512, 32).reshape(4, 8)
        np.testing.assert_allclose(out, frames + 1.0)

    def test_reinvocation_after_done(self):
        spec = make_spec()
        soc = make_soc([("acc0", spec)])
        done = start_device(soc, "acc0", src=0, dst=512, n_frames=1)
        soc.run(until=done)
        done2 = start_device(soc, "acc0", src=0, dst=512, n_frames=2)
        soc.run(until=done2)
        assert soc.accelerator("acc0").frames_processed == 3


class TestP2PBetweenTiles:
    def test_two_stage_p2p_pipeline(self, rng):
        producer = make_spec(name="prod", input_words=8, output_words=8)
        consumer = make_spec(name="cons", input_words=8, output_words=8)
        soc = make_soc([("prod0", producer), ("cons0", consumer)])
        frames = rng.uniform(0, 1, (3, 8))
        soc.memory_map.write_words(0, frames.reshape(-1))
        prod_coord = soc.accelerator("prod0").coord

        done_p = start_device(soc, "prod0", src=0, dst=0, n_frames=3,
                              p2p=P2PConfig(store_enabled=True))
        done_c = start_device(
            soc, "cons0", src=0, dst=2048, n_frames=3,
            p2p=P2PConfig(load_enabled=True, sources=(prod_coord,)))
        soc.run(until=soc.env.all_of([done_p, done_c]))
        soc.run()
        out = soc.memory_map.read_words(2048, 24).reshape(3, 8)
        np.testing.assert_allclose(out, frames + 2.0)

    def test_p2p_skips_dram_for_intermediate(self, rng):
        producer = make_spec(name="prod", input_words=8, output_words=8)
        consumer = make_spec(name="cons", input_words=8, output_words=8)
        soc = make_soc([("prod0", producer), ("cons0", consumer)])
        soc.memory_map.write_words(0, rng.uniform(0, 1, 24))
        prod_coord = soc.accelerator("prod0").coord
        done_p = start_device(soc, "prod0", src=0, dst=0, n_frames=3,
                              p2p=P2PConfig(store_enabled=True))
        done_c = start_device(
            soc, "cons0", src=0, dst=2048, n_frames=3,
            p2p=P2PConfig(load_enabled=True, sources=(prod_coord,)))
        soc.run(until=soc.env.all_of([done_p, done_c]))
        soc.run()
        # DRAM traffic: 24 words in (producer load) + 24 words out
        # (consumer store); the intermediate 24 words never appear.
        assert soc.memory_map.total_accesses == 48
