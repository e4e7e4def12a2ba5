"""Contiguous buffer allocation (the ``esp_alloc`` of libesp).

Accelerators DMA into big physically-backed buffers that user space
sees as contiguous (paper [15]); ``esp_alloc`` hands them out and
``esp_cleanup`` releases everything. The allocator also gives software
direct read/write access to buffer contents (the CPU side of Fig. 5's
``init_buffer`` / ``validate_buffer``).

Beyond the paper's one-shot allocate-run-cleanup lifecycle, the
allocator supports per-buffer :meth:`~ContigAllocator.free` (idempotent,
with first-fit reuse of freed space) so long-lived multi-tenant
workloads — the serving layer runs thousands of plans on one SoC —
neither leak nor exhaust the accelerator address space.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..soc import MemoryMap


class Buffer:
    """One contiguous allocation in the accelerator address space."""

    def __init__(self, memory_map: MemoryMap, offset: int, words: int,
                 label: str = "buf") -> None:
        self.memory_map = memory_map
        self.offset = offset
        self.words = words
        self.label = label
        self.freed = False

    def _check(self, start: int, n_words: int) -> None:
        if self.freed:
            raise RuntimeError(f"buffer {self.label!r} already freed")
        if start < 0 or start + n_words > self.words:
            raise ValueError(
                f"range [{start}, {start + n_words}) outside buffer "
                f"{self.label!r} of {self.words} words")

    def write(self, data: np.ndarray, start: int = 0) -> None:
        """CPU-side store into the buffer."""
        data = np.asarray(data, dtype=np.float64).reshape(-1)
        self._check(start, len(data))
        self.memory_map.write_words(self.offset + start, data)

    def read(self, start: int = 0,
             n_words: Optional[int] = None) -> np.ndarray:
        """CPU-side load from the buffer."""
        n_words = self.words - start if n_words is None else n_words
        self._check(start, n_words)
        return self.memory_map.read_words(self.offset + start, n_words)

    def __len__(self) -> int:
        return self.words


class ContigAllocator:
    """First-fit allocator over the SoC's memory space, 64-word aligned.

    Real contig_alloc manages physically scattered chunks behind a
    scatter-gather list; the TLB hides that from accelerators, so a
    linear model preserves every observable behaviour. Freed ranges go
    to a coalescing free list and are reused first-fit; with no frees
    the allocator degenerates to the original bump allocator, so
    address assignment (and therefore every cycle count) of one-shot
    runs is unchanged.
    """

    ALIGN = 64

    def __init__(self, memory_map: MemoryMap, base: int = 0) -> None:
        self.memory_map = memory_map
        self.base = base
        self._cursor = base
        self._live: List[Buffer] = []
        #: Sorted, coalesced (offset, words) ranges available for reuse.
        self._free_blocks: List[Tuple[int, int]] = []

    def alloc(self, n_words: int, label: str = "buf") -> Buffer:
        if n_words < 1:
            raise ValueError(f"n_words must be >= 1, got {n_words}")
        offset = self._from_free_list(n_words)
        if offset is None:
            aligned = (self._cursor + self.ALIGN - 1) \
                // self.ALIGN * self.ALIGN
            if aligned + n_words > self.memory_map.total_words:
                raise MemoryError(
                    f"out of accelerator memory: need {n_words} words at "
                    f"{aligned}, capacity {self.memory_map.total_words}")
            offset = aligned
            self._cursor = aligned + n_words
        buffer = Buffer(self.memory_map, offset, n_words, label=label)
        self._live.append(buffer)
        return buffer

    def _from_free_list(self, n_words: int) -> Optional[int]:
        """First freed block that fits an aligned allocation, split."""
        for index, (start, words) in enumerate(self._free_blocks):
            aligned = (start + self.ALIGN - 1) // self.ALIGN * self.ALIGN
            head = aligned - start
            if head + n_words > words:
                continue
            del self._free_blocks[index]
            if head:
                self._insert_free(start, head)
            tail = words - head - n_words
            if tail:
                self._insert_free(aligned + n_words, tail)
            return aligned
        return None

    def _insert_free(self, offset: int, words: int) -> None:
        """Insert a range into the free list, coalescing neighbours."""
        blocks = self._free_blocks
        lo, hi = 0, len(blocks)
        while lo < hi:
            mid = (lo + hi) // 2
            if blocks[mid][0] < offset:
                lo = mid + 1
            else:
                hi = mid
        blocks.insert(lo, (offset, words))
        # Coalesce with the successor, then the predecessor.
        if lo + 1 < len(blocks) and \
                blocks[lo][0] + blocks[lo][1] == blocks[lo + 1][0]:
            blocks[lo] = (blocks[lo][0],
                          blocks[lo][1] + blocks[lo + 1][1])
            del blocks[lo + 1]
        if lo > 0 and blocks[lo - 1][0] + blocks[lo - 1][1] == blocks[lo][0]:
            blocks[lo - 1] = (blocks[lo - 1][0],
                              blocks[lo - 1][1] + blocks[lo][1])
            del blocks[lo]
        # Retract the bump cursor over the topmost free blocks, so a
        # fully drained allocator returns to its pristine address map.
        # A block is reabsorbed into bump space when nothing live sits
        # above it — this also swallows alignment padding between the
        # block's end and the cursor, which no allocation ever owned.
        while blocks:
            start = blocks[-1][0]
            top_live = max((b.offset + b.words for b in self._live),
                           default=self.base)
            if top_live > start:
                break
            self._cursor = max(self.base, start)
            del blocks[-1]

    def free(self, buffer: Buffer) -> bool:
        """Release one allocation; idempotent.

        Returns True when the buffer was live and is now freed, False
        when it had already been freed (double-free is a no-op, so
        cleanup paths can free unconditionally).
        """
        if buffer.freed:
            return False
        buffer.freed = True
        try:
            self._live.remove(buffer)
        except ValueError:
            # Freed via cleanup() between alloc and free, or foreign.
            return False
        self._insert_free(buffer.offset, buffer.words)
        return True

    def cleanup(self) -> None:
        """Free every allocation (the ``esp_cleanup`` call)."""
        for buffer in self._live:
            buffer.freed = True
        self._live.clear()
        self._free_blocks.clear()
        self._cursor = self.base
