"""Tile arbitration: exclusive, deadlock-free tile-set ownership.

Several plans can be in flight on one SoC as long as their tile sets
are disjoint — the accelerator sockets are independent; only the NoC,
the memory tile and the CPU are shared (and those are modelled
resources that interleave safely). The arbiter enforces the disjointness:
a tenant's batch loop acquires its whole tile set before dispatching
and releases it afterwards.

Grants are **all-or-nothing**: a claim either gets every tile of its
set atomically or holds none of them. Incremental acquisition (grab
``nv0``, then wait for ``cl0``) is the classic partial-hold deadlock;
atomic grants make the arbiter trivially deadlock-free.

The order in which waiting claims are *considered* is the scheduling
policy: ``fifo`` (arrival order), ``priority`` (highest first, FIFO
within a priority), or ``sjf`` (shortest estimated job first). The
scan is first-fit in policy order — a claim whose tiles are busy does
not block a later claim over a disjoint set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Optional, Set)

from ..sim import Environment, Event

#: Supported scheduling policies.
ARBITER_POLICIES = ("fifo", "priority", "sjf")


class TileUnavailable(Exception):
    """A claimed tile was marked failed (and the claim disallows that)."""

    def __init__(self, tiles: Iterable[str]) -> None:
        self.tiles = sorted(tiles)
        super().__init__(f"tiles unavailable: {self.tiles}")


@dataclass
class Claim:
    """One pending all-or-nothing request for a tile set."""

    tiles: FrozenSet[str]
    event: Event
    priority: int = 0
    est_cycles: int = 0
    allow_unavailable: bool = False
    seq: int = 0
    queued_at: int = 0


class TileArbiter:
    """Tracks tile ownership; grants disjoint tile sets concurrently."""

    def __init__(self, env: Environment, tiles: Iterable[str],
                 policy: str = "fifo",
                 probation_cycles: Optional[int] = None,
                 max_probation_cycles: Optional[int] = None) -> None:
        if policy not in ARBITER_POLICIES:
            raise ValueError(f"policy must be one of {ARBITER_POLICIES}, "
                             f"got {policy!r}")
        if probation_cycles is not None and probation_cycles < 1:
            raise ValueError("probation_cycles must be >= 1")
        self.env = env
        self.policy = policy
        self.tiles: FrozenSet[str] = frozenset(tiles)
        if not self.tiles:
            raise ValueError("arbiter needs at least one tile")
        self._busy: Set[str] = set()
        self._unavailable: Set[str] = set()
        self._pending: List[Claim] = []
        self._seq = itertools.count()
        # Probation: quarantined tiles are re-admitted after a delay
        # (exponential backoff per repeat quarantine, capped). None
        # keeps the original permanent-quarantine behavior.
        self.probation_cycles = probation_cycles
        self.max_probation_cycles = (
            max_probation_cycles
            if max_probation_cycles is not None
            else (probation_cycles or 0) * 16)
        self._readmit_at: Dict[str, int] = {}
        self._quarantine_count: Dict[str, int] = {}
        #: Called with the tile name when probation re-admits it
        #: (hook for the server to reset/repair the device first).
        self.on_readmit: Optional[Callable[[str], None]] = None
        self.readmissions = 0
        # Statistics.
        self.grants = 0
        self.total_wait_cycles = 0
        self.max_wait_cycles = 0
        self.holder: Dict[str, Optional[str]] = {}

    # -- state inspection ----------------------------------------------------

    @property
    def unavailable_tiles(self) -> FrozenSet[str]:
        return frozenset(self._unavailable)

    # -- acquire / release ----------------------------------------------------

    def acquire(self, tiles: Iterable[str], priority: int = 0,
                est_cycles: int = 0,
                allow_unavailable: bool = False,
                label: str = "") -> Event:
        """Claim a tile set; the event succeeds when all are granted.

        The event *fails* with :class:`TileUnavailable` if a claimed
        tile is (or becomes) marked failed — unless
        ``allow_unavailable`` (degraded service: the runtime will run
        the failed device's work in software, but the socket is still
        owned exclusively so a later repair can't race).
        """
        tiles = frozenset(tiles)
        if not tiles:
            raise ValueError("empty tile set")
        unknown = tiles - self.tiles
        if unknown:
            raise KeyError(f"unknown tiles {sorted(unknown)}; arbiter "
                           f"manages {sorted(self.tiles)}")
        self._check_probation()
        event = self.env.event()
        event.wait_reason = (f"tile grant for {sorted(tiles)}"
                             + (f" ({label})" if label else ""))
        claim = Claim(tiles=tiles, event=event, priority=priority,
                      est_cycles=est_cycles,
                      allow_unavailable=allow_unavailable,
                      seq=next(self._seq), queued_at=self.env.now)
        if not allow_unavailable and (tiles & self._unavailable):
            event.fail(TileUnavailable(tiles & self._unavailable))
            return event
        self._pending.append(claim)
        self._scan()
        return event

    def release(self, tiles: Iterable[str]) -> None:
        """Return a granted tile set; wakes eligible waiting claims."""
        tiles = set(tiles)
        not_held = tiles - self._busy
        if not_held:
            raise ValueError(f"releasing tiles not held: "
                             f"{sorted(not_held)}")
        self._busy -= tiles
        for tile in tiles:
            self.holder[tile] = None
        self._scan()

    def cancel(self, event: Event) -> bool:
        """Withdraw a pending (ungranted) claim; True if found."""
        for index, claim in enumerate(self._pending):
            if claim.event is event:
                del self._pending[index]
                return True
        return False

    # -- failure integration ---------------------------------------------------

    def mark_unavailable(self, tile: str,
                         probation: Optional[bool] = None) -> None:
        """A tile failed: stop granting it. Pending claims that need
        it and forbid degraded service fail immediately instead of
        waiting forever.

        With probation configured (``probation_cycles`` on the
        arbiter, or ``probation=True`` here), the quarantine is a
        sentence, not a verdict: the tile is re-admitted after the
        probation delay, doubled per repeat quarantine (capped at
        ``max_probation_cycles``) so a genuinely broken tile backs
        off instead of flapping. Otherwise the tile never returns to
        the free pool until :meth:`mark_available` repairs it —
        the original permanent behavior."""
        if tile not in self.tiles:
            raise KeyError(f"unknown tile {tile!r}")
        self._unavailable.add(tile)
        use_probation = (self.probation_cycles is not None
                         if probation is None else probation)
        if use_probation:
            base = self.probation_cycles or 1
            count = self._quarantine_count.get(tile, 0) + 1
            self._quarantine_count[tile] = count
            delay = base * 2 ** (count - 1)
            if self.max_probation_cycles:
                delay = min(delay, self.max_probation_cycles)
            self._readmit_at[tile] = self.env.now + delay
        else:
            self._readmit_at.pop(tile, None)
        doomed = [c for c in self._pending
                  if tile in c.tiles and not c.allow_unavailable]
        for claim in doomed:
            self._pending.remove(claim)
            claim.event.fail(TileUnavailable({tile}))

    def mark_available(self, tile: str) -> None:
        """A failed tile was repaired/reset: grant it again.

        Explicit repair, not probation: the pending probation entry
        (if any) is dropped, but the quarantine count is kept so a
        tile that keeps failing still backs off exponentially."""
        if tile not in self.tiles:
            raise KeyError(f"unknown tile {tile!r}")
        self._unavailable.discard(tile)
        self._readmit_at.pop(tile, None)
        self._scan()

    def _check_probation(self) -> None:
        """Re-admit quarantined tiles whose probation has elapsed.

        Checked lazily from :meth:`acquire` and :meth:`_scan` — no
        timer process, so an idle arbiter costs the simulation
        nothing and zero-fault runs keep their exact cycle counts."""
        if not self._readmit_at:
            return
        now = self.env.now
        due = [t for t, at in self._readmit_at.items() if now >= at]
        for tile in due:
            del self._readmit_at[tile]
            self._unavailable.discard(tile)
            self.readmissions += 1
            if self.on_readmit is not None:
                self.on_readmit(tile)

    # -- the grant scan ---------------------------------------------------------

    def _order(self) -> List[Claim]:
        if self.policy == "priority":
            return sorted(self._pending,
                          key=lambda c: (-c.priority, c.seq))
        if self.policy == "sjf":
            return sorted(self._pending,
                          key=lambda c: (c.est_cycles, c.seq))
        return sorted(self._pending, key=lambda c: c.seq)

    def _grantable(self, claim: Claim) -> bool:
        if claim.tiles & self._busy:
            return False
        if not claim.allow_unavailable \
                and (claim.tiles & self._unavailable):
            return False
        return True

    def _scan(self) -> None:
        """First-fit in policy order over the pending claims."""
        self._check_probation()
        granted = True
        while granted:
            granted = False
            for claim in self._order():
                if not self._grantable(claim):
                    continue
                self._pending.remove(claim)
                self._busy |= claim.tiles
                for tile in claim.tiles:
                    self.holder[tile] = claim.event.wait_reason
                waited = self.env.now - claim.queued_at
                self.grants += 1
                self.total_wait_cycles += waited
                self.max_wait_cycles = max(self.max_wait_cycles, waited)
                claim.event.succeed(frozenset(claim.tiles))
                granted = True
                break
