"""Accelerator-tile TLB.

ESP accelerators address their data through a per-tile TLB holding the
scatter-gather list of the (physically scattered, virtually contiguous)
buffer allocated by ``esp_alloc`` (paper Sec. IV and [15]). A warm
entry translates with a small fixed latency; a cold entry costs a
page-table walk to memory.

The paper's p2p support required "minor modifications" to this TLB —
here, p2p transactions bypass translation entirely (the payload rides
the NoC between tiles), which :class:`~repro.soc.dma.DmaEngine` models.
"""

from __future__ import annotations

from typing import Dict, Set


class Tlb:
    """Virtual page -> physical page translation with hit/miss costs."""

    def __init__(self, page_words: int = 1024, hit_latency: int = 1,
                 miss_latency: int = 40) -> None:
        if page_words < 1:
            raise ValueError(f"page_words must be >= 1, got {page_words}")
        self.page_words = page_words
        self.hit_latency = hit_latency
        self.miss_latency = miss_latency
        self._entries: Set[int] = set()
        self.hits = 0
        self.misses = 0

    def flush(self) -> None:
        self._entries.clear()

    def translate(self, offset_words: int, n_words: int) -> int:
        """Latency (cycles) to translate one DMA transaction.

        Every page the transaction touches is looked up; cold pages pay
        the walk and become warm.
        """
        if n_words <= 0:
            raise ValueError(f"n_words must be >= 1, got {n_words}")
        first = offset_words // self.page_words
        last = (offset_words + n_words - 1) // self.page_words
        latency = 0
        for page in range(first, last + 1):
            if page in self._entries:
                self.hits += 1
                latency += self.hit_latency
            else:
                self.misses += 1
                latency += self.miss_latency
                self._entries.add(page)
        return latency

    @property
    def entries(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self._entries)}
