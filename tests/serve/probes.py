"""Probes over a ``TileArbiter``'s grant state."""


def free_tiles(arbiter) -> frozenset:
    return frozenset(arbiter.tiles - arbiter._busy - arbiter._unavailable)


def pending_claims(arbiter) -> int:
    return len(arbiter._pending)


def readmit_schedule(arbiter) -> dict:
    """Quarantined tile -> cycle its probation ends (copy)."""
    return dict(arbiter._readmit_at)
