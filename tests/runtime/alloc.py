"""Leak probes over a ``ContigAllocator``: what is live and what waits
on the free list."""


def live_buffers(allocator) -> int:
    return len(allocator._live)


def words_in_use(allocator) -> int:
    return sum(buffer.words for buffer in allocator._live)


def free_list_words(allocator) -> int:
    """Words parked on the free list awaiting reuse."""
    return sum(words for _, words in allocator._free_blocks)
