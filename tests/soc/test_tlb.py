"""Tests for the accelerator-tile TLB."""

import pytest

from repro.soc import Tlb


def preload(tlb, offset_words: int, n_words: int) -> None:
    """Driver-side TLB fill for a buffer (done at configuration)."""
    if n_words <= 0:
        return
    first = offset_words // tlb.page_words
    last = (offset_words + n_words - 1) // tlb.page_words
    tlb._entries.update(range(first, last + 1))


class TestTranslate:
    def test_cold_miss_then_hit(self):
        tlb = Tlb(page_words=1024, hit_latency=1, miss_latency=40)
        assert tlb.translate(0, 16) == 40
        assert tlb.translate(0, 16) == 1
        assert tlb.misses == 1 and tlb.hits == 1

    def test_spanning_pages(self):
        tlb = Tlb(page_words=1024)
        latency = tlb.translate(1000, 100)   # touches pages 0 and 1
        assert latency == 2 * tlb.miss_latency
        assert tlb.entries == 2

    def test_preload_makes_all_hits(self):
        tlb = Tlb(page_words=256)
        preload(tlb, 0, 4096)
        assert tlb.translate(0, 4096) == 16 * tlb.hit_latency
        assert tlb.misses == 0

    def test_flush(self):
        tlb = Tlb()
        tlb.translate(0, 4096)
        tlb.flush()
        assert tlb.entries == 0
        assert tlb.translate(0, 1) == tlb.miss_latency

    def test_preload_empty_range_noop(self):
        tlb = Tlb()
        preload(tlb, 0, 0)
        assert tlb.entries == 0

    def test_invalid_words(self):
        tlb = Tlb()
        with pytest.raises(ValueError):
            tlb.translate(0, 0)

    def test_invalid_page_size(self):
        with pytest.raises(ValueError):
            Tlb(page_words=0)

    def test_stats_dict(self):
        tlb = Tlb()
        tlb.translate(0, 1)
        stats = tlb.stats()
        assert stats == {"hits": 0, "misses": 1, "entries": 1}
