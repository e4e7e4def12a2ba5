"""Per-accelerator cache-coherence modes and the fully-coherent model.

ESP accelerators select among cache-coherence models at run time (Giri
et al. [12], [14], cited by the paper; "Towards Generalized On-Chip
Communication for Programmable Accelerators" measures all of them):

- **non-coherent DMA**: straight to DRAM, bypassing every cache;
- **LLC-coherent DMA**: requests allocate in the shared last-level
  cache at the memory tile (:mod:`repro.soc.llc`);
- **fully-coherent**: the accelerator tile owns a small private cache
  kept coherent with a MESI-style invalidation protocol. The protocol
  runs on the three NoC coherence planes that are otherwise idle
  (``coh-req`` / ``coh-fwd`` / ``coh-rsp``, Fig. 2 planes 1-3), with
  the memory-tile LLC as the shared directory point.

This module holds the mode enum threaded through the stack, the
private cache, the protocol messages, the directory's state and its
transitions, the MESI invariants and the directory process.
Everything here is **pay-for-what-you-use**: no process is spawned and
no state is allocated until the first fully-coherent transaction, so a
SoC that never uses the mode is event-for-event identical to one built
before the mode existed.

Modeling note (documented in ``docs/coherence.md``): like the LLC, the
private caches affect *timing and traffic accounting only*. Functional
data always moves through the backing store out-of-band, so a protocol
race never corrupts data. Races do break the MESI state, though: an
invalidation can overtake an in-flight ``E`` grant and leave two ``E``
copies of a line.

The bookkeeping is done once per burst, over line ranges: the private
cache probes a memory tile's run of lines at once and installs a grant
in one loop, and the LLC serves a run of lines in one call.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from typing import (Container, Dict, Iterable, List, Optional,
                    Sequence, Set, Tuple)

from ..fixed import words_to_flits
from ..noc import (
    COH_FORWARD_PLANE,
    COH_REQUEST_PLANE,
    COH_RESPONSE_PLANE,
    MessageKind,
    Packet,
)
from ..sim import Fifo
from .registers import (
    COHERENCE_FULL,
    COHERENCE_LLC,
    COHERENCE_NON_COHERENT,
)

Coord = Tuple[int, int]

#: Directory lookup/occupancy cost per transaction, in cycles.
DIRECTORY_LATENCY = 4

#: Default private-cache capacity per accelerator tile, in words. Small
#: by design: the fully-coherent model pays off exactly when a kernel's
#: working set fits next to the tile (Giri et al.).
DEFAULT_PRIVATE_CACHE_WORDS = 1024


class CoherenceMode(Enum):
    """The three run-time-selectable accelerator coherence models."""

    NON_COHERENT = "non-coherent"
    LLC_COHERENT = "llc-coherent"
    FULLY_COHERENT = "fully-coherent"

    @property
    def register_value(self) -> int:
        """The ``COHERENCE_REG`` encoding of this mode."""
        return _MODE_TO_REG[self]

    @classmethod
    def from_register(cls, value: int) -> "CoherenceMode":
        """Decode a ``COHERENCE_REG`` value (unknown values degrade to
        non-coherent, as the fabric does for unsupported requests)."""
        return _REG_TO_MODE.get(int(value), cls.NON_COHERENT)

    @classmethod
    def coerce(cls, value) -> "CoherenceMode":
        """Normalize a user-facing spelling into a mode.

        Accepts a :class:`CoherenceMode`, one of its string values
        (``"non-coherent"`` / ``"llc-coherent"`` / ``"fully-coherent"``)
        or ``None`` (= non-coherent).
        """
        if value is None:
            return cls.NON_COHERENT
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            try:
                return cls(value)
            except ValueError:
                names = [m.value for m in cls]
                raise ValueError(
                    f"unknown coherence mode {value!r}; "
                    f"options: {names}") from None
        raise TypeError(
            f"cannot interpret {value!r} as a coherence mode")


_MODE_TO_REG = {
    CoherenceMode.NON_COHERENT: COHERENCE_NON_COHERENT,
    CoherenceMode.LLC_COHERENT: COHERENCE_LLC,
    CoherenceMode.FULLY_COHERENT: COHERENCE_FULL,
}
_REG_TO_MODE = {reg: mode for mode, reg in _MODE_TO_REG.items()}


# ---------------------------------------------------------------------------
# Private cache (per accelerator tile)
# ---------------------------------------------------------------------------

#: MESI-style stable states tracked per private-cache line. ``I`` is
#: represented by absence.
MODIFIED = "M"
EXCLUSIVE = "E"
SHARED = "S"


class PrivateCache:
    """Set-associative LRU cache with per-line MESI-style state.

    Lives next to the DMA engine of a fully-coherent accelerator tile.
    Like the LLC, it models timing and traffic only; data stays in the
    backing store. Writes to an ``E`` line upgrade to ``M`` silently
    (the MESI optimization the E state exists for — no bus traffic).
    """

    def __init__(self, capacity_words: int = DEFAULT_PRIVATE_CACHE_WORDS,
                 line_words: int = 16, ways: int = 4,
                 hit_latency: int = 2) -> None:
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
        # Per set: line -> MESI state, in LRU order (oldest first).
        self._sets: List[OrderedDict] = [OrderedDict()
                                         for _ in range(self.n_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        self.invalidations_received = 0

    def state(self, line: int) -> Optional[str]:
        """The line's MESI state, or ``None`` when not resident."""
        return self._sets[line % self.n_sets].get(line)

    def probe(self, lines: Sequence[int], write: bool,
              whole: range = range(0)
              ) -> Tuple[int, List[int], List[int], List[int]]:
        """Probe a run of lines for local hits, in line order.

        A read hits in any state. A write hits in ``M`` or ``E`` (``E``
        upgrades to ``M`` silently); a write to an ``S`` line is a miss
        that needs an upgrade request for ownership. A hit moves its
        line to the LRU end; a miss leaves the set's order alone.

        Returns ``(hits, gets, getm, upgrades)``: the hit count and the
        missed lines by the request they need. A read miss is a GETS.
        A write miss is an upgrade (ownership, no data) when the line
        is ``S`` or lies in ``whole``, the lines the write overwrites
        completely; otherwise it is a GETM (ownership plus a fill).
        """
        sets = self._sets
        n_sets = self.n_sets
        whole_first, whole_stop = whole.start, whole.stop
        hits = 0
        gets: List[int] = []
        getm: List[int] = []
        upgrades: List[int] = []
        for line in lines:
            cache_set = sets[line % n_sets]
            state = cache_set.get(line)
            if state is None:
                if not write:
                    gets.append(line)
                elif whole_first <= line < whole_stop:
                    upgrades.append(line)
                else:
                    getm.append(line)
                continue
            if write:
                if state == SHARED:
                    upgrades.append(line)
                    continue
                if state == EXCLUSIVE:
                    cache_set[line] = MODIFIED
            cache_set.move_to_end(line)
            hits += 1
        self.hits += hits
        self.misses += len(lines) - hits
        return hits, gets, getm, upgrades

    def install_lines(self, lines: Iterable[int], state: str,
                      exclusive: Container[int] = ()) -> List[int]:
        """Install (or restate) lines in order; returns the evicted
        dirty lines.

        Lines in ``exclusive`` install ``E`` instead of ``state``. A
        line not yet resident in a full set evicts the set's LRU way
        first: a clean victim vanishes silently, a dirty (``M``) victim
        is returned so the caller can issue the writeback message.
        """
        if state not in (MODIFIED, EXCLUSIVE, SHARED):
            raise ValueError(f"bad MESI state {state!r}")
        sets = self._sets
        n_sets = self.n_sets
        ways = self.ways
        victims: List[int] = []
        for line in lines:
            cache_set = sets[line % n_sets]
            line_state = EXCLUSIVE if line in exclusive else state
            if line in cache_set:
                cache_set[line] = line_state
                cache_set.move_to_end(line)
                continue
            if len(cache_set) >= ways:
                victim, victim_state = cache_set.popitem(last=False)
                self.evictions += 1
                if victim_state == MODIFIED:
                    self.writebacks += 1
                    victims.append(victim)
            cache_set[line] = line_state
        return victims

    def install_grant(self, request: CoherenceRequest,
                      exclusive_lines: Tuple[int, ...]) -> List[int]:
        """Install a granted request's lines; returns the evicted dirty
        lines.

        The GETS lines install first, ``E`` when the grant lists them
        in ``exclusive_lines`` and ``S`` otherwise; then the GETM and
        upgrade lines install ``M``.
        """
        exclusive = set(exclusive_lines) if exclusive_lines else ()
        victims = self.install_lines(request.gets_lines, SHARED, exclusive)
        victims += self.install_lines(
            request.getm_lines + request.upgrade_lines, MODIFIED)
        return victims

    def invalidate_lines(self, lines: Iterable[int]) -> Tuple[int, ...]:
        """Drop lines on a coherence invalidation; returns the ones
        that were ``M`` (the ack must carry their data back). A line
        not resident is a no-op."""
        dirty = []
        for line in lines:
            state = self._sets[line % self.n_sets].pop(line, None)
            if state is not None:
                self.invalidations_received += 1
                if state == MODIFIED:
                    dirty.append(line)
        return tuple(dirty)

    def flush(self) -> int:
        """Drop every line; returns how many were dirty."""
        dirty = 0
        for cache_set in self._sets:
            for _, state in cache_set.items():
                if state == MODIFIED:
                    dirty += 1
            cache_set.clear()
        self.writebacks += dirty
        return dirty

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
                "invalidations_received": self.invalidations_received,
                "resident_lines": self.resident_lines}


# ---------------------------------------------------------------------------
# Protocol messages
# ---------------------------------------------------------------------------


@dataclass
class CoherenceRequest:
    """One batched transaction on the ``coh-req`` plane.

    The engine classifies every line a DMA transfer touches and sends
    one request per owning memory tile, carrying three line lists:
    ``gets_lines`` (read, data needed), ``getm_lines`` (write
    ownership, data needed — a partial-line store must fill first) and
    ``upgrade_lines`` (write ownership, no data — either an ``S``
    upgrade or a full-line overwrite).
    """

    gets_lines: Tuple[int, ...]
    getm_lines: Tuple[int, ...]
    upgrade_lines: Tuple[int, ...]
    requester: Coord
    tag: str
    word_bits: int

    @property
    def data_lines(self) -> Tuple[int, ...]:
        return self.gets_lines + self.getm_lines

    @property
    def all_lines(self) -> Tuple[int, ...]:
        return self.gets_lines + self.getm_lines + self.upgrade_lines


@dataclass
class InvalidateRequest:
    """``coh-fwd`` payload: directory orders a tile to drop lines."""

    lines: Tuple[int, ...]
    reply_to: Coord     # the directory's tile
    tag: str            # the transaction being serviced


@dataclass
class InvalidateAck:
    """``coh-rsp`` payload: a tile acknowledges an invalidation.

    ``dirty_lines`` lists the lines that were ``M`` locally — the ack
    carries their data back to the directory (a MESI recall), so its
    packet is sized by ``len(dirty_lines) * line_words``.
    """

    lines: Tuple[int, ...]
    dirty_lines: Tuple[int, ...]
    tag: str


@dataclass
class CoherenceReply:
    """``coh-rsp`` payload: directory grants a transaction.

    ``exclusive_lines`` are the GETS lines granted ``E`` because no
    other tile held them — the requester installs them exclusive and
    can later write them without any traffic.
    """

    tag: str
    exclusive_lines: Tuple[int, ...] = ()


@dataclass
class CoherenceWriteback:
    """``coh-rsp`` payload: fire-and-forget dirty-eviction writeback."""

    lines: Tuple[int, ...]
    word_bits: int


def line_list_flits(n_lines: int) -> int:
    """Flits of a command packet listing line ids (8 ids per flit)."""
    return max(1, (n_lines + 7) // 8)


# ---------------------------------------------------------------------------
# Directory (memory-tile side)
# ---------------------------------------------------------------------------


@dataclass
class DirectoryStats:
    requests: int = 0
    invalidations_sent: int = 0
    recalls: int = 0
    writebacks_received: int = 0
    exclusive_grants: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


class DirectoryState:
    """Who holds which line, as the directory knows it, and the
    directory's protocol decisions as transitions over it.

    ``owner`` maps a line to the tile holding it ``E`` or ``M`` (the
    two look alike here: ``E`` upgrades to ``M`` silently);
    ``sharers`` maps a line to the tiles holding it ``S``. The
    transitions touch nothing else, so they need no simulator.
    """

    def __init__(self) -> None:
        self.owner: Dict[int, Coord] = {}
        self.sharers: Dict[int, Set[Coord]] = {}

    def invalidation_targets(
            self, request: CoherenceRequest
    ) -> Tuple[Dict[Coord, List[int]], int]:
        """Which tiles must drop which lines before ``request`` is
        granted, and how many of those lines are recalls from an owner.
        Every line is recalled from a remote owner (whose copy may be
        dirty); a write line is also dropped by every remote sharer."""
        me = request.requester
        n_reads = len(request.gets_lines)
        targets: Dict[Coord, List[int]] = {}
        recalls = 0
        for index, line in enumerate(request.all_lines):
            owner = self.owner.get(line)
            if owner is not None and owner != me:
                targets.setdefault(owner, []).append(line)
                recalls += 1
            if index >= n_reads:
                for sharer in self.sharers.get(line, ()):
                    if sharer != me:
                        targets.setdefault(sharer, []).append(line)
        return targets, recalls

    def grant(self, request: CoherenceRequest) -> List[int]:
        """Record ``request``'s grant; returns the GETS lines granted
        ``E`` because no other tile shares them. Every other GETS line
        joins its sharers; GETM and upgrade lines become the
        requester's."""
        owner_of = self.owner
        sharers_of = self.sharers
        me = request.requester
        exclusive: List[int] = []
        for line in request.gets_lines:
            owner = owner_of.pop(line, None)
            sharers = sharers_of.setdefault(line, set())
            sharers.discard(owner)
            if not sharers:
                owner_of[line] = me
                sharers_of.pop(line, None)
                exclusive.append(line)
            else:
                sharers.add(me)
        for line in request.getm_lines + request.upgrade_lines:
            owner_of[line] = me
            sharers_of.pop(line, None)
        return exclusive

    def forget(self, lines: Iterable[int]) -> None:
        """Drop written-back lines: their holder evicted them."""
        for line in lines:
            self.owner.pop(line, None)
            self.sharers.pop(line, None)


def mesi_violations(caches: Dict[Coord, PrivateCache],
                    directories: Iterable[DirectoryState]) -> List[str]:
    """Every broken MESI invariant over the tiles' private caches
    (``caches``, by tile) and the memory tiles' ``directories``, one
    line of text each: a line held ``E`` or ``M`` is held by no other
    tile, an ``E``/``M`` holder is the line's owner, and an ``S``
    holder is a sharer or the owner. A directory entry with no copy
    behind it is fine: a clean eviction is silent."""
    owners: Dict[int, Coord] = {}
    sharers: Dict[int, Set[Coord]] = {}
    for directory in directories:
        owners.update(directory.owner)
        sharers.update(directory.sharers)
    holders: Dict[int, List[Tuple[Coord, str]]] = {}
    for coord, cache in caches.items():
        for cache_set in cache._sets:
            for line, state in cache_set.items():
                holders.setdefault(line, []).append((coord, state))
    violations = []
    for line, held in sorted(holders.items()):
        copies = ", ".join(f"{state} at {coord}" for coord, state in held)
        if len(held) > 1 and any(state != SHARED for _, state in held):
            violations.append(f"line {line}: a writer among {copies}")
        owner = owners.get(line)
        for coord, state in held:
            if state != SHARED and owner != coord:
                violations.append(
                    f"line {line}: {state} at {coord}, directory owner "
                    f"{owner}")
            elif owner != coord and coord not in sharers.get(line, ()):
                violations.append(
                    f"line {line}: S at {coord}, not a directory sharer")
    return violations


class CoherenceDirectory:
    """The coherence point of one memory tile.

    Tracks who holds each line in a :class:`DirectoryState`, serves
    transactions serially from the ``coh-req`` inbox, forwards
    invalidations on ``coh-fwd`` and collects acks / writebacks /
    sends grants on ``coh-rsp``. The tile's
    :class:`~repro.soc.llc.LastLevelCache` is the shared data point:
    granted lines are looked up there first, and only LLC misses move
    DRAM words — exactly the accounting of LLC-coherent DMA.

    Created lazily by :meth:`MemoryTile.ensure_directory` on the first
    fully-coherent transaction, never at SoC build.
    """

    def __init__(self, tile) -> None:
        self.tile = tile
        self.env = tile.env
        self.mesh = tile.mesh
        self.llc = tile.llc
        if self.llc is None:
            raise ValueError(
                "a coherence directory needs the memory tile to host "
                "an LLC (the shared directory point)")
        self.state = DirectoryState()
        self._acks: Dict[str, Fifo] = {}
        #: Global id of the tile's first line: the LLC indexes lines
        #: from there.
        self._base_line = tile.base_words // self.llc.line_words
        self.stats = DirectoryStats()
        self.env.process(self._server(),
                         name=f"coh-dir{tile.coord}")
        self.env.process(self._rsp_dispatcher(),
                         name=f"coh-dir-rsp{tile.coord}")

    # -- helpers -----------------------------------------------------------

    def _ack_queue(self, tag: str) -> Fifo:
        queue = self._acks.get(tag)
        if queue is None:
            queue = Fifo(self.env, name=f"coh-ack:{tag}")
            self._acks[tag] = queue
        return queue

    def _stream_cycles(self, words: int) -> int:
        """SRAM streaming cost (twice the DRAM word rate)."""
        wpc = 2 * self.tile.words_per_cycle
        return (words + wpc - 1) // wpc

    def _absorb_writeback(self, lines: Tuple[int, ...]) -> int:
        """Install written-back dirty lines into the LLC.

        A writeback carries a whole line, so there is never a fetch;
        installing may evict another dirty LLC line to DRAM. Returns
        the SRAM streaming cycles of the absorption.
        """
        llc = self.llc
        _, _, evicted = llc.access_lines(lines, True, self._base_line)
        self.tile.words_written += evicted * llc.line_words
        self.stats.writebacks_received += len(lines)
        return self._stream_cycles(len(lines) * llc.line_words)

    # -- processes ---------------------------------------------------------

    def _rsp_dispatcher(self):
        """Route ``coh-rsp`` arrivals at the memory tile.

        Invalidation acks are demultiplexed by transaction tag to the
        waiting server; eviction writebacks are absorbed inline.
        """
        inbox = self.mesh.inbox(self.tile.coord, COH_RESPONSE_PLANE)
        while True:
            packet = yield inbox.get()
            payload = packet.payload
            if isinstance(payload, CoherenceWriteback):
                self.state.forget(payload.lines)
                yield self.env.timeout(
                    self._absorb_writeback(payload.lines))
            elif isinstance(payload, InvalidateAck):
                yield self._ack_queue(payload.tag).put(payload)
            else:
                raise TypeError(
                    f"directory at {self.tile.coord} got unexpected "
                    f"coh-rsp payload {payload!r}")

    def _server(self):
        """Serve coherence transactions, one at a time (the directory
        is a serial resource, like the DMA request queue)."""
        env = self.env
        mesh = self.mesh
        tile = self.tile
        llc = self.llc
        inbox = mesh.inbox(tile.coord, COH_REQUEST_PLANE)
        while True:
            packet = yield inbox.get()
            request = packet.payload
            if not isinstance(request, CoherenceRequest):
                raise TypeError(
                    f"directory at {tile.coord} got unexpected coh-req "
                    f"payload {request!r}")
            self.stats.requests += 1
            tracer = env.tracer
            sid = None if tracer is None else tracer.begin(
                f"mem{tile.coord}", "coh-dir",
                f"txn[{len(request.all_lines)}l]", "coh.directory",
                requester=str(request.requester),
                lines=len(request.all_lines))
            yield env.timeout(DIRECTORY_LATENCY)

            # 1. Invalidate / recall conflicting copies.
            targets, recalls = self.state.invalidation_targets(request)
            self.stats.recalls += recalls
            for coord, lines in targets.items():
                self.stats.invalidations_sent += len(lines)
                mesh.send(Packet(
                    src=tile.coord, dst=coord,
                    plane=COH_FORWARD_PLANE, kind=MessageKind.COH_INV,
                    payload_flits=line_list_flits(len(lines)),
                    payload=InvalidateRequest(
                        lines=tuple(lines), reply_to=tile.coord,
                        tag=request.tag),
                    tag=request.tag))
            for _ in targets:
                ack = yield self._ack_queue(request.tag).get()
                if ack.dirty_lines:
                    # Recalled dirty data lands in the LLC, so the
                    # immediately following lookup hits on chip.
                    yield env.timeout(
                        self._absorb_writeback(ack.dirty_lines))
            self._acks.pop(request.tag, None)

            # 2. Data lines through the LLC (timing + DRAM counters,
            # mirroring the LLC-coherent service path).
            n_hit, n_fill, evicted = llc.access_lines(
                request.data_lines, False, self._base_line)
            tile.words_written += evicted * llc.line_words
            tile.words_read += n_fill * llc.line_words
            cycles = 0
            if n_hit:
                cycles += llc.hit_latency + self._stream_cycles(
                    n_hit * llc.line_words)
            if n_fill:
                fill_words = n_fill * llc.line_words
                cycles += tile.dram_latency + (
                    fill_words + tile.words_per_cycle - 1) \
                    // tile.words_per_cycle
            if cycles:
                yield env.timeout(cycles)

            # 3. Update directory state and grant.
            exclusive = self.state.grant(request)
            self.stats.exclusive_grants += len(exclusive)

            data_words = len(request.data_lines) * llc.line_words
            flits = words_to_flits(
                data_words, request.word_bits,
                mesh.flit_bits(COH_RESPONSE_PLANE)) if data_words \
                else line_list_flits(len(request.upgrade_lines))
            mesh.send(Packet(
                src=tile.coord, dst=request.requester,
                plane=COH_RESPONSE_PLANE, kind=MessageKind.COH_RSP,
                payload_flits=flits,
                payload=CoherenceReply(tag=request.tag,
                                       exclusive_lines=tuple(exclusive)),
                tag=request.tag))
            if sid is not None:
                tracer.end(sid, invalidations=sum(
                    len(v) for v in targets.values()), fills=n_fill)
