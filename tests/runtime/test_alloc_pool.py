"""Tests for per-buffer free and free-list reuse."""

import numpy as np
import pytest

from repro.runtime import ContigAllocator
from tests.conftest import make_soc, make_spec
from tests.runtime.alloc import free_list_words


def make_allocator():
    soc = make_soc([("a0", make_spec(name="a"))])
    return ContigAllocator(soc.memory_map)


class TestFree:
    def test_free_is_idempotent(self):
        alloc = make_allocator()
        buffer = alloc.alloc(100)
        assert alloc.free(buffer) is True
        assert alloc.free(buffer) is False     # double-free: no-op
        assert free_list_words(alloc) == 0      # cursor retracted fully

    def test_freed_buffer_rejects_access(self):
        alloc = make_allocator()
        buffer = alloc.alloc(8)
        alloc.free(buffer)
        with pytest.raises(RuntimeError, match="already freed"):
            buffer.read()
        with pytest.raises(RuntimeError, match="already freed"):
            buffer.write(np.zeros(8))

    def test_freed_space_reused_first_fit(self):
        alloc = make_allocator()
        first = alloc.alloc(128)
        keeper = alloc.alloc(64)
        alloc.free(first)
        assert free_list_words(alloc) == 128
        again = alloc.alloc(128)
        assert again.offset == first.offset    # hole filled, not bumped
        assert keeper.offset != again.offset

    def test_adjacent_frees_coalesce(self):
        alloc = make_allocator()
        a = alloc.alloc(64)
        b = alloc.alloc(64)
        keeper = alloc.alloc(64)
        alloc.free(a)
        alloc.free(b)
        # One coalesced 128-word hole, reusable by a single allocation
        # bigger than either original block.
        big = alloc.alloc(128)
        assert big.offset == a.offset
        assert keeper.freed is False

    def test_cursor_retracts_when_tail_freed(self):
        alloc = make_allocator()
        probe = alloc.alloc(16)
        base_offset = probe.offset
        alloc.free(probe)
        tail = alloc.alloc(1024)
        alloc.free(tail)
        # Fully drained: the next allocation lands where the first did,
        # so one-shot runs after a serving session see pristine addresses.
        assert free_list_words(alloc) == 0
        assert alloc.alloc(16).offset == base_offset

    def test_no_frees_keeps_bump_addresses(self):
        """The seed's bump behaviour is untouched when nobody frees —
        address assignment (hence cycle counts) of one-shot runs."""
        reference = [make_allocator().alloc(n).offset
                     for n in (100, 200, 300)]
        alloc = make_allocator()
        offsets = [alloc.alloc(n).offset for n in (100, 200, 300)]
        assert offsets[0] == reference[0]
        assert offsets == sorted(offsets)
        assert all(off % ContigAllocator.ALIGN == 0 for off in offsets)
