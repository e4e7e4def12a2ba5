"""Memory tile: the DRAM controller behind the NoC.

Accelerators exchange "long sequences of data between their on-chip
local private memories and the off-chip main memory (DRAM)" via DMA
(paper Sec. II). The memory tile serves DMA requests arriving on the
dma-req plane and answers loads on the dma-rsp plane.

The DRAM access counters on this tile are what Fig. 8 of the paper
reports: p2p communication cuts them by 2-3x because intermediate
results stop round-tripping through this tile.
"""

from __future__ import annotations

import mmap
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

import numpy as np

from ..fixed import words_to_flits
from ..noc import (
    DMA_REQUEST_PLANE,
    DMA_RESPONSE_PLANE,
    Mesh2D,
    MessageKind,
    Packet,
)
from ..sim import Environment, Event
from .llc import LastLevelCache, whole_lines

Coord = Tuple[int, int]


@dataclass
class DmaRequest:
    """Payload of a DMA_REQ packet."""

    op: str                 # "load" | "store"
    offset: int             # word address in the memory tile
    words: int
    word_bits: int
    reply_to: Coord
    tag: str
    data: Optional[np.ndarray] = None   # store payload
    coherent: bool = False  # LLC-coherent DMA (vs straight to DRAM)

    def __post_init__(self) -> None:
        if self.op not in ("load", "store"):
            raise ValueError(f"op must be load/store, got {self.op!r}")
        if self.words < 1:
            raise ValueError(f"words must be >= 1, got {self.words}")
        if self.op == "store" and self.data is None:
            raise ValueError("store request needs data")


#: Copy-on-write pages, as np.zeros had: a forked process must not
#: write into its parent's DRAM (Windows anonymous maps are private).
_PRIVATE = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}


class MemoryTile:
    """One DRAM channel: storage, a serial controller, access counters."""

    def __init__(self, env: Environment, mesh: Mesh2D, coord: Coord,
                 size_words: int = 1 << 22, dram_latency: int = 30,
                 words_per_cycle: int = 4,
                 llc: Optional[LastLevelCache] = None) -> None:
        if size_words < 1:
            raise ValueError(f"size_words must be >= 1, got {size_words}")
        if dram_latency < 0:
            raise ValueError("dram_latency must be >= 0")
        if words_per_cycle < 1:
            raise ValueError("words_per_cycle must be >= 1")
        self.env = env
        self.mesh = mesh
        self.coord = coord
        self.size_words = size_words
        self.dram_latency = dram_latency
        self.words_per_cycle = words_per_cycle
        self.llc = llc
        # Anonymous mmap, not np.zeros: zero pages stay unbacked until
        # written, whereas calloc may memset a recycled heap block and
        # make the whole DRAM resident, depending on malloc's history.
        self.storage = np.frombuffer(
            mmap.mmap(-1, size_words * 8, **_PRIVATE), dtype=np.float64)
        # Fig. 8 counters.
        self.words_read = 0
        self.words_written = 0
        self.load_transactions = 0
        self.store_transactions = 0
        # Fault hook (None = fault-free, zero overhead) + upset count.
        self.fault_injector = None
        self.bitflips = 0
        # Set by the owning MemoryMap; lets the tile retire posted
        # stores for the map-level quiescence tracking.
        self.parent_map: Optional["MemoryMap"] = None
        #: Global word address of this tile's first word (set by the
        #: MemoryMap) — the coherence directory maps global cache-line
        #: ids onto the tile-local LLC with it.
        self.base_words = 0
        #: Lazily-created coherence directory (fully-coherent mode
        #: only); ``None`` means no fully-coherent transaction has ever
        #: targeted this tile and no directory process exists.
        self.directory = None
        self._server_proc = env.process(self._server(),
                                        name=f"mem-server{coord}")

    def ensure_directory(self):
        """The tile's coherence directory, created on first use.

        Lazy by contract: the directory spawns two processes, and the
        pinned-seed timing invariant requires a SoC that never issues a
        fully-coherent transaction to schedule exactly the same events
        as one built before the mode existed. Returns ``None`` when the
        tile hosts no LLC — the fabric then downgrades fully-coherent
        requests, exactly as the flag-era LLC-coherent path degrades
        without an LLC.
        """
        if self.directory is None and self.llc is not None:
            from .coherence import CoherenceDirectory
            self.directory = CoherenceDirectory(self)
        return self.directory

    # -- direct (software) access: processor loads/stores ------------------

    def read_words(self, offset: int, n_words: int) -> np.ndarray:
        self._check_range(offset, n_words)
        return self.storage[offset:offset + n_words].copy()

    def write_words(self, offset: int, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=np.float64).reshape(-1)
        self._check_range(offset, len(data))
        self.storage[offset:offset + len(data)] = data

    def _check_range(self, offset: int, n_words: int) -> None:
        if offset < 0 or offset + n_words > self.size_words:
            raise ValueError(
                f"access [{offset}, {offset + n_words}) outside memory of "
                f"{self.size_words} words")

    # -- DMA service ---------------------------------------------------------

    @property
    def total_accesses(self) -> int:
        """DRAM words moved (the Fig. 8 metric)."""
        return self.words_read + self.words_written

    def _service_cycles(self, words: int) -> int:
        return self.dram_latency + (words + self.words_per_cycle - 1) \
            // self.words_per_cycle

    def _coherent_service(self, request: DmaRequest) -> int:
        """Serve one transaction through the LLC.

        The cache affects timing and the DRAM counters only; the
        backing store always holds current data (write-back dirtiness
        is tracked for eviction accounting). DRAM words move on line
        fills and writebacks, not on hits — this is what lets an
        LLC-coherent pipeline keep intermediate frames on chip.
        """
        llc = self.llc
        is_store = request.op == "store"
        lines = llc.lines_of(request.offset, request.words)
        # Fetch-on-write is skipped when the store overwrites the whole
        # line (streaming DMA stores hit this path); loads and partial
        # stores must fill from DRAM.
        whole = whole_lines(request.offset, request.words,
                            llc.line_words) if is_store else range(0)
        n_hit, n_fill, n_writeback = llc.access_lines(lines, is_store,
                                                      whole=whole)
        dram_words = (n_fill + n_writeback) * llc.line_words
        self.words_read += n_fill * llc.line_words
        self.words_written += n_writeback * llc.line_words
        if is_store:
            self.store_transactions += 1
        else:
            self.load_transactions += 1
        # Hits stream from SRAM at twice the DRAM word rate after one
        # access-latency; misses add the DRAM burst.
        hit_words = n_hit * llc.line_words
        cycles = 0
        if hit_words:
            cycles += llc.hit_latency + (
                hit_words + 2 * self.words_per_cycle - 1) \
                // (2 * self.words_per_cycle)
        if dram_words:
            cycles += self.dram_latency + (
                dram_words + self.words_per_cycle - 1) \
                // self.words_per_cycle
        return cycles

    def _server(self):
        inbox = self.mesh.inbox(self.coord, DMA_REQUEST_PLANE)
        while True:
            packet = yield inbox.get()
            request = packet.payload
            if not isinstance(request, DmaRequest):
                raise TypeError(
                    f"memory tile received non-DMA payload {request!r}")
            if self.fault_injector is not None and request.op == "load":
                # A DRAM upset flips one bit of the loaded range in the
                # backing storage; it persists until rewritten, so the
                # runtime's retry (which regenerates the data) is what
                # clears it.
                if self.fault_injector.maybe_flip_dram(
                        self.storage, request.offset, request.words,
                        self.env.now):
                    self.bitflips += 1
            if request.coherent and self.llc is not None:
                yield self.env.timeout(self._coherent_service(request))
                if request.op == "load":
                    data = self.read_words(request.offset, request.words)
                    self.mesh.send(Packet(
                        src=self.coord,
                        dst=request.reply_to,
                        plane=DMA_RESPONSE_PLANE,
                        kind=MessageKind.DMA_RSP,
                        payload_flits=words_to_flits(
                            request.words, request.word_bits,
                            self.mesh.flit_bits(DMA_RESPONSE_PLANE)),
                        payload=data,
                        tag=request.tag,
                    ))
                else:
                    self.write_words(request.offset, request.data)
                    if self.parent_map is not None:
                        self.parent_map.store_retired()
                continue
            yield self.env.timeout(self._service_cycles(request.words))
            if request.op == "load":
                self.words_read += request.words
                self.load_transactions += 1
                data = self.read_words(request.offset, request.words)
                response = Packet(
                    src=self.coord,
                    dst=request.reply_to,
                    plane=DMA_RESPONSE_PLANE,
                    kind=MessageKind.DMA_RSP,
                    payload_flits=words_to_flits(
                        request.words, request.word_bits,
                        self.mesh.flit_bits(DMA_RESPONSE_PLANE)),
                    payload=data,
                    tag=request.tag,
                )
                self.mesh.send(response)
            else:
                self.words_written += request.words
                self.store_transactions += 1
                self.write_words(request.offset, request.data)
                if self.parent_map is not None:
                    self.parent_map.store_retired()


class MemoryMap:
    """Address routing across one or more memory tiles.

    Each tile owns a contiguous word range; ESP SoCs can host several
    memory tiles (Fig. 2 shows one), and DMA requests are routed to the
    owner of the address.
    """

    def __init__(self, tiles: List[MemoryTile]) -> None:
        if not tiles:
            raise ValueError("at least one memory tile required")
        self.tiles = list(tiles)
        self._bases: List[int] = []
        base = 0
        for tile in self.tiles:
            self._bases.append(base)
            tile.base_words = base
            base += tile.size_words
            tile.parent_map = self
        self.total_words = base
        # Posted-store quiescence tracking: DMA stores are posted (the
        # engine moves on once the NoC accepts the data), so a reader
        # that bypasses the memory tile's request queue — the CPU-side
        # result read of a serving loop — must first wait until every
        # posted store has landed. Counters only; zero simulation cost.
        self.stores_posted = 0
        self.stores_retired = 0
        self._quiesce_waiters: List[Event] = []

    # -- posted-store quiescence ------------------------------------------

    @property
    def stores_in_flight(self) -> int:
        """Posted DMA stores not yet applied by a memory tile."""
        return max(0, self.stores_posted - self.stores_retired)

    def store_posted(self) -> None:
        """A DMA engine handed one store request to the NoC."""
        self.stores_posted += 1

    def store_retired(self) -> None:
        """A memory tile applied one posted store to its storage."""
        self.stores_retired += 1
        if self.stores_in_flight == 0:
            waiters, self._quiesce_waiters = self._quiesce_waiters, []
            for event in waiters:
                event.succeed()

    def quiesce_event(self, env: Environment) -> Event:
        """Event that triggers once no posted store is in flight."""
        event = Event(env)
        if self.stores_in_flight == 0:
            event.succeed()
        else:
            event.wait_reason = (f"quiesce of {self.stores_in_flight} "
                                 f"in-flight posted stores")
            self._quiesce_waiters.append(event)
        return event

    def owner(self, offset: int) -> Tuple[MemoryTile, int]:
        """(tile, local_offset) owning the global word address."""
        if offset < 0 or offset >= self.total_words:
            raise ValueError(
                f"address {offset} outside {self.total_words}-word space")
        index = bisect_right(self._bases, offset) - 1
        return self.tiles[index], offset - self._bases[index]

    def split_range(self, offset: int,
                    n_words: int) -> List[Tuple[MemoryTile, int, int]]:
        """Split [offset, offset+n) into per-tile (tile, local, words)."""
        if n_words < 1:
            raise ValueError(f"n_words must be >= 1, got {n_words}")
        out = []
        remaining = n_words
        cursor = offset
        while remaining > 0:
            tile, local = self.owner(cursor)
            available = tile.size_words - local
            take = min(remaining, available)
            out.append((tile, local, take))
            cursor += take
            remaining -= take
        return out

    def read_words(self, offset: int, n_words: int) -> np.ndarray:
        parts = [tile.read_words(local, words)
                 for tile, local, words in self.split_range(offset, n_words)]
        return np.concatenate(parts) if len(parts) > 1 else parts[0]

    def write_words(self, offset: int, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=np.float64).reshape(-1)
        cursor = 0
        for tile, local, words in self.split_range(offset, len(data)):
            tile.write_words(local, data[cursor:cursor + words])
            cursor += words

    @property
    def total_accesses(self) -> int:
        return sum(tile.total_accesses for tile in self.tiles)

    @property
    def words_read(self) -> int:
        return sum(tile.words_read for tile in self.tiles)

    @property
    def words_written(self) -> int:
        return sum(tile.words_written for tile in self.tiles)
