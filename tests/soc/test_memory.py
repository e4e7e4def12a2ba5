"""Tests for the memory tile (DRAM model) and the memory map."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.fixed import words_to_flits
from repro.noc import (
    DMA_REQUEST_PLANE,
    DMA_RESPONSE_PLANE,
    Mesh2D,
    MessageKind,
    Packet,
)
from repro.sim import Environment
from repro.soc import DmaRequest, MemoryMap, MemoryTile


def make_memory(size_words=4096):
    env = Environment()
    mesh = Mesh2D(env, 2, 1)
    tile = MemoryTile(env, mesh, (1, 0), size_words=size_words)
    return env, mesh, tile


def dma_request(op, offset, words, data=None, tag="t0"):
    return DmaRequest(op=op, offset=offset, words=words, word_bits=16,
                      reply_to=(0, 0), tag=tag, data=data)


def send_request(mesh, request, flits=0):
    mesh.send(Packet(src=(0, 0), dst=(1, 0), plane=DMA_REQUEST_PLANE,
                     kind=MessageKind.DMA_REQ, payload_flits=flits,
                     payload=request, tag=request.tag))


class TestDirectAccess:
    def test_write_read_roundtrip(self, rng):
        _, _, tile = make_memory()
        data = rng.uniform(-1, 1, 64)
        tile.write_words(100, data)
        np.testing.assert_array_equal(tile.read_words(100, 64), data)

    def test_out_of_range(self):
        _, _, tile = make_memory(size_words=128)
        with pytest.raises(ValueError):
            tile.read_words(100, 64)
        with pytest.raises(ValueError):
            tile.write_words(-1, np.zeros(4))

    def test_direct_access_does_not_count_as_dram_traffic(self):
        _, _, tile = make_memory()
        tile.write_words(0, np.ones(16))
        tile.read_words(0, 16)
        assert tile.total_accesses == 0


class TestDmaService:
    def test_load_returns_data_with_tag(self, rng):
        env, mesh, tile = make_memory()
        data = rng.uniform(-1, 1, 32)
        tile.write_words(64, data)
        send_request(mesh, dma_request("load", 64, 32, tag="ld1"))
        env.run()
        response = mesh.inbox((0, 0), DMA_RESPONSE_PLANE).try_get()
        assert response is not None
        assert response.tag == "ld1"
        assert response.kind is MessageKind.P2P_RSP or \
            response.kind is MessageKind.DMA_RSP
        np.testing.assert_array_equal(response.payload, data)

    def test_response_flit_count_matches_words(self):
        env, mesh, tile = make_memory()
        send_request(mesh, dma_request("load", 0, 100))
        env.run()
        response = mesh.inbox((0, 0), DMA_RESPONSE_PLANE).try_get()
        assert response.payload_flits == words_to_flits(100, 16, 64)

    def test_store_writes_and_counts(self, rng):
        env, mesh, tile = make_memory()
        data = rng.uniform(-1, 1, 16)
        send_request(mesh, dma_request("store", 32, 16, data=data),
                     flits=4)
        env.run()
        np.testing.assert_array_equal(tile.read_words(32, 16), data)
        assert tile.words_written == 16
        assert tile.store_transactions == 1

    def test_load_counts(self):
        env, mesh, tile = make_memory()
        send_request(mesh, dma_request("load", 0, 64))
        env.run()
        assert tile.words_read == 64
        assert tile.load_transactions == 1
        assert tile.total_accesses == 64

    def test_requests_served_serially(self):
        env, mesh, tile = make_memory()
        send_request(mesh, dma_request("load", 0, 400, tag="a"))
        send_request(mesh, dma_request("load", 0, 400, tag="b"))
        env.run()
        inbox = mesh.inbox((0, 0), DMA_RESPONSE_PLANE)
        first = inbox.try_get()
        second = inbox.try_get()
        assert first.tag == "a"
        # Second response delayed by the first's service time.
        assert second.delivered_at > first.delivered_at

    def test_request_validation(self):
        with pytest.raises(ValueError):
            dma_request("swizzle", 0, 4)
        with pytest.raises(ValueError):
            dma_request("load", 0, 0)
        with pytest.raises(ValueError):
            DmaRequest(op="store", offset=0, words=4, word_bits=16,
                       reply_to=(0, 0), tag="t", data=None)


class TestMemoryMap:
    def _two_tiles(self):
        env = Environment()
        mesh = Mesh2D(env, 3, 1)
        a = MemoryTile(env, mesh, (1, 0), size_words=1000)
        b = MemoryTile(env, mesh, (2, 0), size_words=1000)
        return MemoryMap([a, b]), a, b

    def test_owner_resolution(self):
        mm, a, b = self._two_tiles()
        assert mm.owner(0) == (a, 0)
        assert mm.owner(999) == (a, 999)
        assert mm.owner(1000) == (b, 0)
        assert mm.owner(1999) == (b, 999)

    def test_owner_out_of_range(self):
        mm, _, _ = self._two_tiles()
        with pytest.raises(ValueError):
            mm.owner(2000)

    def test_split_range_across_tiles(self):
        mm, a, b = self._two_tiles()
        parts = mm.split_range(900, 200)
        assert parts == [(a, 900, 100), (b, 0, 100)]

    def test_read_write_across_boundary(self, rng):
        mm, _, _ = self._two_tiles()
        data = rng.uniform(-1, 1, 200)
        mm.write_words(900, data)
        np.testing.assert_array_equal(mm.read_words(900, 200), data)

    def test_counters_aggregate(self):
        mm, a, b = self._two_tiles()
        a.words_read = 10
        b.words_written = 5
        assert mm.total_accesses == 15
        assert mm.words_read == 10
        assert mm.words_written == 5

    def test_empty_map_rejected(self):
        with pytest.raises(ValueError):
            MemoryMap([])


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_does_not_write_parent_dram():
    """The mmap-backed DRAM is copy-on-write, like the np.zeros array
    it replaced: a forked process sees a snapshot, not shared pages."""
    _, _, tile = make_memory()
    tile.write_words(0, np.ones(4))
    pid = os.fork()
    if pid == 0:
        tile.write_words(0, np.full(4, 7.0))
        os._exit(0)
    os.waitpid(pid, 0)
    np.testing.assert_array_equal(tile.read_words(0, 4), np.ones(4))


_DRAM_RSS_CHILD = """
import gc, os
import numpy as np
from repro.tune import ablation_workloads

def rss_mb():
    with open("/proc/self/statm") as statm:
        resident = int(statm.read().split()[1])
    return resident * os.sysconf("SC_PAGE_SIZE") / 2**20

workloads = ablation_workloads()
socs = [w.build()[0] for w in workloads]
# A live heap block above the DRAM arrays keeps malloc from trimming
# them back to the kernel once they are freed.
pin = np.ones(200_000)
del socs
gc.collect()
before = rss_mb()
socs = [w.build()[0] for w in workloads]
print(rss_mb() - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc"
                    or not os.path.exists("/proc/self/statm"),
                    reason="needs glibc's malloc tunables and procfs")
def test_untouched_dram_is_not_resident_after_heap_reuse():
    """With a 32 MiB mmap threshold, malloc serves the tuner SoCs' 4 MB
    DRAM arrays from recycled heap, and calloc would memset (make
    resident) every page; anonymous mmap pages stay unbacked until
    written."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="33554432",
               PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _DRAM_RSS_CHILD], env=env,
                         capture_output=True, text=True, check=True)
    assert float(out.stdout.split()[-1]) < 4.0
