"""Tests for the driver registry and the contiguous allocator."""

import numpy as np
import pytest

from repro.runtime import ContigAllocator, DeviceRegistry
from tests.conftest import make_soc, make_spec
from tests.runtime.alloc import live_buffers


def probed_soc():
    soc = make_soc([("b_acc", make_spec(name="b")),
                    ("a_acc", make_spec(name="a"))])
    registry = DeviceRegistry()
    registry.probe(soc)
    return soc, registry


def word_address(buffer, index: int = 0) -> int:
    """Global word address of element ``index`` (for DMA offsets)."""
    buffer._check(index, 1)
    return buffer.offset + index


class TestDriver:
    def test_probe_discovers_all_devices(self):
        _, registry = probed_soc()
        assert len(registry) == 2
        assert "a_acc" in registry and "b_acc" in registry

    def test_probe_order_deterministic(self):
        _, registry = probed_soc()
        assert registry.names() == sorted(registry.names())

    def test_name_to_coordinates(self):
        soc, registry = probed_soc()
        for name, tile in soc.accelerators.items():
            assert registry.coords_for(name) == tile.coord

    def test_location_reg_consistency_checked(self):
        soc, registry = probed_soc()
        device = registry.by_name("a_acc")
        assert device.location == device.coord

    def test_unknown_device(self):
        _, registry = probed_soc()
        with pytest.raises(KeyError):
            registry.by_name("zz")

    def test_reprobe_is_idempotent(self):
        soc, registry = probed_soc()
        registry.probe(soc)   # driver reload / rescan: no error
        assert len(registry) == 2
        assert registry.names() == sorted(registry.names())

    def test_reprobe_clears_failed_mark(self):
        soc, registry = probed_soc()
        registry.mark_failed("a_acc")
        assert registry.is_failed("a_acc")
        registry.probe(soc)
        assert not registry.is_failed("a_acc")

    def test_conflicting_probe_rejected(self):
        soc, registry = probed_soc()
        other = make_soc([("b_acc", make_spec(name="b")),
                          ("a_acc", make_spec(name="a"))])
        with pytest.raises(ValueError, match="different"):
            registry.probe(other)

    def test_mark_failed_unknown_device(self):
        _, registry = probed_soc()
        with pytest.raises(KeyError):
            registry.mark_failed("zz")

    def test_remove_device(self):
        soc, registry = probed_soc()
        registry.remove("a_acc")
        assert "a_acc" not in registry
        assert registry.names() == ["b_acc"]
        with pytest.raises(KeyError):
            registry.remove("a_acc")
        registry.probe(soc)   # rescan rediscovers the removed device
        assert "a_acc" in registry


class TestAllocator:
    def _allocator(self):
        soc = make_soc([("acc0", make_spec())], mem_words=4096)
        return ContigAllocator(soc.memory_map), soc

    def test_alloc_alignment(self):
        alloc, _ = self._allocator()
        a = alloc.alloc(10)
        b = alloc.alloc(10)
        assert a.offset % ContigAllocator.ALIGN == 0
        assert b.offset % ContigAllocator.ALIGN == 0
        assert b.offset >= a.offset + 10

    def test_buffer_read_write(self, rng):
        alloc, _ = self._allocator()
        buf = alloc.alloc(128)
        data = rng.uniform(-1, 1, 128)
        buf.write(data)
        np.testing.assert_array_equal(buf.read(), data)

    def test_partial_read_write(self, rng):
        alloc, _ = self._allocator()
        buf = alloc.alloc(64)
        buf.write(np.ones(16), start=32)
        np.testing.assert_array_equal(buf.read(32, 16), np.ones(16))

    def test_bounds_checked(self):
        alloc, _ = self._allocator()
        buf = alloc.alloc(16)
        with pytest.raises(ValueError):
            buf.write(np.zeros(17))
        with pytest.raises(ValueError):
            buf.read(10, 10)

    def test_out_of_memory(self):
        alloc, _ = self._allocator()
        with pytest.raises(MemoryError):
            alloc.alloc(1 << 20)

    def test_cleanup_frees_everything(self):
        alloc, _ = self._allocator()
        buf = alloc.alloc(16)
        alloc.cleanup()
        assert live_buffers(alloc) == 0
        with pytest.raises(RuntimeError):
            buf.read()

    def test_space_reusable_after_cleanup(self):
        alloc, _ = self._allocator()
        alloc.alloc(2048)
        alloc.cleanup()
        alloc.alloc(2048)   # would not fit without the reset

    def test_word_address(self):
        alloc, _ = self._allocator()
        buf = alloc.alloc(16)
        assert word_address(buf, 3) == buf.offset + 3
        with pytest.raises(ValueError):
            word_address(buf, 16)

    def test_invalid_size(self):
        alloc, _ = self._allocator()
        with pytest.raises(ValueError):
            alloc.alloc(0)
