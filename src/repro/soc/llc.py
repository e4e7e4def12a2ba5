"""Last-level cache model for LLC-coherent DMA.

ESP accelerators choose among cache-coherence models at run time
(Giri et al. [12], [14], cited by the paper): non-coherent DMA goes
straight to DRAM; LLC-coherent DMA allocates in a shared last-level
cache at the memory tile, which absorbs inter-accelerator traffic
whose working set fits. The paper's p2p service competes with exactly
this mechanism, so the reproduction models it: the coherence ablation
bench compares non-coherent DMA vs LLC-coherent DMA vs p2p.

The model is a set-associative write-back cache with LRU replacement,
tracked at cache-line granularity over the memory tile's word space.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Sequence, Tuple


def whole_lines(offset: int, n_words: int, line_words: int) -> range:
    """Lines that the access [offset, offset+n) covers completely."""
    return range(-(-offset // line_words), (offset + n_words) // line_words)


class LastLevelCache:
    """Set-associative LRU cache over word addresses."""

    def __init__(self, capacity_words: int = 1 << 16,
                 line_words: int = 16, ways: int = 8,
                 hit_latency: int = 6) -> None:
        if capacity_words < line_words * ways:
            raise ValueError(
                f"capacity {capacity_words} below one set "
                f"({line_words} x {ways})")
        if capacity_words % (line_words * ways):
            raise ValueError("capacity must be a whole number of sets")
        self.capacity_words = capacity_words
        self.line_words = line_words
        self.ways = ways
        self.hit_latency = hit_latency
        self.n_sets = capacity_words // (line_words * ways)
        # Per set: line_tag -> dirty flag, in LRU order (oldest first).
        self._sets: List[OrderedDict] = [OrderedDict()
                                         for _ in range(self.n_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    def lines_of(self, offset: int, n_words: int) -> range:
        """Line numbers a [offset, offset+n) access touches."""
        first = offset // self.line_words
        last = (offset + n_words - 1) // self.line_words
        return range(first, last + 1)

    def access_lines(self, lines: Sequence[int], write: bool,
                     base: int = 0,
                     whole: range = range(0)) -> Tuple[int, int, int]:
        """Touch ``line - base`` for each of ``lines``, in order.

        Each access has the per-line effect: a hit marks the line dirty
        on a write and moves it to the LRU end; a miss evicts the set's
        LRU way when the set is full and installs the line. Returns
        ``(hits, fills, writebacks)``: ``fills`` counts the misses that
        must fetch the line from DRAM, which is every miss outside
        ``whole`` (the lines a store overwrites completely; given in
        the same numbering as ``lines``), and ``writebacks`` the dirty
        victims.
        """
        sets = self._sets
        n_sets = self.n_sets
        ways = self.ways
        whole_first, whole_stop = whole.start, whole.stop
        hits = fills = evictions = writebacks = 0
        for line in lines:
            local = line - base
            cache_set = sets[local % n_sets]
            dirty = cache_set.get(local)
            if dirty is not None:
                hits += 1
                if write and not dirty:
                    cache_set[local] = True
                cache_set.move_to_end(local)
                continue
            if not whole_first <= line < whole_stop:
                fills += 1
            if len(cache_set) >= ways:
                evictions += 1
                if cache_set.popitem(last=False)[1]:
                    writebacks += 1
            cache_set[local] = write
        self.hits += hits
        self.misses += len(lines) - hits
        self.evictions += evictions
        self.writebacks += writebacks
        return hits, fills, writebacks

    def flush(self) -> int:
        """Write back every dirty line; returns the writeback count."""
        count = 0
        for cache_set in self._sets:
            for line, dirty in cache_set.items():
                if dirty:
                    count += 1
            cache_set.clear()
        self.writebacks += count
        return count

    @property
    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions,
                "writebacks": self.writebacks,
                "resident_lines": self.resident_lines}
