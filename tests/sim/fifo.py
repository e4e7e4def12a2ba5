"""A non-blocking put over any ``Fifo``."""


def try_put(fifo, item) -> bool:
    """Non-blocking put; returns False when the queue is full."""
    if fifo.is_full:
        return False
    fifo._accept(item)
    return True
