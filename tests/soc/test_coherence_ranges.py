"""Coherence over line ranges against a per-line oracle.

The private cache, the directory and the LLC resolve each burst once,
over its line range: ``PrivateCache.probe`` classifies a tile's run of
lines, ``PrivateCache.install_grant`` installs a grant, and
``LastLevelCache.access_lines`` serves the directory's data lines,
absorbed writebacks and the LLC-coherent DMA service. This test keeps
the per-line code those replaced (the fully-coherent transaction, the
directory server's data and grant step, the writeback absorption and
the LLC-coherent service, down to the per-line cache methods) and
drives both through the same seeded runs: one or two memory tiles,
with a tile boundary that is not on a line boundary, misaligned
offsets and sizes, reads and writes, fully-coherent and LLC-coherent
transfers, caches of one to four sets so that lines evict, and two to
four tiles sharing lines. Every observable must match: each cache
set's lines in LRU order with their states, the directory's owners
and sharers, every cache, directory and tile counter, the simulated
time, the events dispatched and each packet's injection cycle.
"""

from dataclasses import dataclass
from types import MethodType
from typing import List, Tuple

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.fixed import words_to_flits
from repro.noc import (
    COH_FORWARD_PLANE,
    COH_REQUEST_PLANE,
    COH_RESPONSE_PLANE,
    Mesh2D,
    MessageKind,
    Packet,
)
from repro.sim import Environment
from repro.soc import LastLevelCache, PrivateCache
from repro.soc.coherence import (
    DIRECTORY_LATENCY,
    EXCLUSIVE,
    MODIFIED,
    SHARED,
    CoherenceDirectory,
    CoherenceReply,
    CoherenceRequest,
    CoherenceWriteback,
    InvalidateRequest,
    line_list_flits,
)
from repro.soc.dma import DmaEngine
from repro.soc.memory import MemoryMap, MemoryTile

LINE_WORDS = 16


# ---------------------------------------------------------------------------
# Reference: the per-line cache methods
# ---------------------------------------------------------------------------

def ref_touch(cache, line, write):
    """One private-cache line probe: the state on a hit, else None."""
    cache_set = cache._sets[line % cache.n_sets]
    state = cache_set.get(line)
    if state is None:
        cache.misses += 1
        return None
    if write and state == SHARED:
        cache.misses += 1
        return None
    if write and state == EXCLUSIVE:
        cache_set[line] = MODIFIED
    cache_set.move_to_end(line)
    cache.hits += 1
    return cache_set[line]


def ref_install(cache, line, state):
    """Install one private-cache line; returns an evicted dirty line."""
    cache_set = cache._sets[line % cache.n_sets]
    dirty_victim = None
    if line not in cache_set and len(cache_set) >= cache.ways:
        victim, victim_state = cache_set.popitem(last=False)
        cache.evictions += 1
        if victim_state == MODIFIED:
            cache.writebacks += 1
            dirty_victim = victim
    cache_set[line] = state
    cache_set.move_to_end(line)
    return dirty_victim


def ref_access_line(llc, line, write):
    """One LLC line access; returns (hit, writeback_needed)."""
    cache_set = llc._sets[line % llc.n_sets]
    writeback = False
    if line in cache_set:
        llc.hits += 1
        cache_set[line] = cache_set[line] or write
        cache_set.move_to_end(line)
        return True, False
    llc.misses += 1
    if len(cache_set) >= llc.ways:
        _, dirty = cache_set.popitem(last=False)
        llc.evictions += 1
        if dirty:
            llc.writebacks += 1
            writeback = True
    cache_set[line] = write
    return False, writeback


# ---------------------------------------------------------------------------
# Reference: the per-line accelerator-tile transaction
# ---------------------------------------------------------------------------

def ref_line_tile(engine, line):
    """The memory tile owning the line's first word."""
    return engine.memory_map.owner(line * engine.cache.line_words)[0]


def ref_fc_writebacks(engine, victims):
    cache = engine.cache
    by_tile = {}
    for line in victims:
        by_tile.setdefault(ref_line_tile(engine, line), []).append(line)
    for tile, lines in by_tile.items():
        yield engine.mesh.send(Packet(
            src=engine.coord, dst=tile.coord,
            plane=COH_RESPONSE_PLANE, kind=MessageKind.COH_WB,
            payload_flits=engine._flits(
                len(lines) * cache.line_words, COH_RESPONSE_PLANE),
            payload=CoherenceWriteback(lines=tuple(lines),
                                       word_bits=engine.word_bits),
            tag=None))


def ref_fc_transaction(engine, offset, n_words, write):
    """The fully-coherent transaction, one line at a time."""
    cache = engine.cache
    line_words = cache.line_words
    end = offset + n_words
    hit_lines = 0
    per_tile = {}
    for line in range(offset // line_words, (end - 1) // line_words + 1):
        if ref_touch(cache, line, write) is not None:
            hit_lines += 1
            continue
        gets, getm, upgrades = per_tile.setdefault(
            ref_line_tile(engine, line), ([], [], []))
        if not write:
            gets.append(line)
        else:
            line_start = line * line_words
            full_cover = (offset <= line_start
                          and line_start + line_words <= end)
            if cache.state(line) == SHARED or full_cover:
                upgrades.append(line)
            else:
                getm.append(line)
    if hit_lines:
        yield engine.env.timeout(
            cache.hit_latency + (hit_lines * line_words + 7) // 8)
    if not per_tile:
        return
    pending = []
    for tile, (gets, getm, upgrades) in per_tile.items():
        tile.ensure_directory()
        tag = engine._new_tag()
        request = CoherenceRequest(
            gets_lines=tuple(gets), getm_lines=tuple(getm),
            upgrade_lines=tuple(upgrades), requester=engine.coord,
            tag=tag, word_bits=engine.word_bits)
        engine.mesh.send(Packet(
            src=engine.coord, dst=tile.coord,
            plane=COH_REQUEST_PLANE, kind=MessageKind.COH_REQ,
            payload_flits=line_list_flits(len(request.all_lines)),
            payload=request, tag=tag))
        pending.append((tag, request))
    victims = []
    for tag, request in pending:
        packet = yield engine._response_queue(tag).get()
        del engine._responses[tag]
        victims += ref_install_grant(cache, request,
                                     packet.payload.exclusive_lines)
    if victims:
        yield from ref_fc_writebacks(engine, victims)


def ref_install_grant(cache, request, exclusive_lines):
    """A grant's installs, one line at a time: GETS first, then GETM
    and upgrades."""
    exclusive = set(exclusive_lines)
    victims = []
    for line in request.gets_lines:
        victim = ref_install(
            cache, line, EXCLUSIVE if line in exclusive else SHARED)
        if victim is not None:
            victims.append(victim)
    for line in request.getm_lines + request.upgrade_lines:
        victim = ref_install(cache, line, MODIFIED)
        if victim is not None:
            victims.append(victim)
    return victims


# ---------------------------------------------------------------------------
# Reference: the per-line memory-tile side
# ---------------------------------------------------------------------------

class ReferenceDirectory(CoherenceDirectory):
    """The directory with per-line LLC data and writeback loops."""

    def _local_line(self, line):
        return line - self.tile.base_words // self.llc.line_words

    def _absorb_writeback(self, lines):
        llc = self.llc
        for line in lines:
            _, evicted = ref_access_line(llc, self._local_line(line), True)
            if evicted:
                self.tile.words_written += llc.line_words
        self.stats.writebacks_received += len(lines)
        return self._stream_cycles(len(lines) * llc.line_words)

    def _server(self):
        env = self.env
        mesh = self.mesh
        tile = self.tile
        llc = self.llc
        inbox = mesh.inbox(tile.coord, COH_REQUEST_PLANE)
        while True:
            packet = yield inbox.get()
            request = packet.payload
            self.stats.requests += 1
            yield env.timeout(DIRECTORY_LATENCY)

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
                    yield env.timeout(
                        self._absorb_writeback(ack.dirty_lines))
            self._acks.pop(request.tag, None)

            n_hit = n_fill = 0
            for line in request.data_lines:
                hit, evicted = ref_access_line(llc, self._local_line(line),
                                               False)
                if hit:
                    n_hit += 1
                else:
                    n_fill += 1
                if evicted:
                    tile.words_written += llc.line_words
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

            exclusive = []
            me = request.requester
            owner_of = self.state.owner
            sharers_of = self.state.sharers
            for line in request.gets_lines:
                owner = owner_of.pop(line, None)
                sharers = sharers_of.setdefault(line, set())
                sharers.discard(owner)
                if not sharers:
                    owner_of[line] = me
                    sharers_of.pop(line, None)
                    exclusive.append(line)
                    self.stats.exclusive_grants += 1
                else:
                    sharers.add(me)
            for line in request.getm_lines + request.upgrade_lines:
                owner_of[line] = me
                sharers_of.pop(line, None)

            data_words = len(request.data_lines) * llc.line_words
            flits = words_to_flits(
                data_words, request.word_bits,
                mesh.flit_bits(COH_RESPONSE_PLANE)) if data_words \
                else line_list_flits(len(request.upgrade_lines))
            mesh.send(Packet(
                src=tile.coord, dst=me, plane=COH_RESPONSE_PLANE,
                kind=MessageKind.COH_RSP, payload_flits=flits,
                payload=CoherenceReply(tag=request.tag,
                                       exclusive_lines=tuple(exclusive)),
                tag=request.tag))


def ref_ensure_directory(tile):
    if tile.directory is None and tile.llc is not None:
        tile.directory = ReferenceDirectory(tile)
    return tile.directory


def ref_coherent_service(tile, request):
    """The LLC-coherent DMA service, one line at a time."""
    llc = tile.llc
    is_store = request.op == "store"
    n_hit = n_fill = n_writeback = 0
    end = request.offset + request.words
    for line in llc.lines_of(request.offset, request.words):
        hit, writeback = ref_access_line(llc, line, is_store)
        if hit:
            n_hit += 1
        else:
            line_start = line * llc.line_words
            full_cover = (request.offset <= line_start and
                          line_start + llc.line_words <= end)
            if not (is_store and full_cover):
                n_fill += 1
        if writeback:
            n_writeback += 1
    dram_words = (n_fill + n_writeback) * llc.line_words
    tile.words_read += n_fill * llc.line_words
    tile.words_written += n_writeback * llc.line_words
    if is_store:
        tile.store_transactions += 1
    else:
        tile.load_transactions += 1
    hit_words = n_hit * llc.line_words
    cycles = 0
    if hit_words:
        cycles += llc.hit_latency + (
            hit_words + 2 * tile.words_per_cycle - 1) \
            // (2 * tile.words_per_cycle)
    if dram_words:
        cycles += tile.dram_latency + (
            dram_words + tile.words_per_cycle - 1) \
            // tile.words_per_cycle
    return cycles


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

class RecordingMesh(Mesh2D):
    """The mesh, keeping every packet it was handed."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.sent: List[Packet] = []

    def send(self, packet):
        self.sent.append(packet)
        return super().send(packet)


MEMORY_COORDS = [(0, 0), (1, 0)]
ENGINE_COORDS = [(2, 0), (0, 1), (1, 1), (2, 1)]


@dataclass(frozen=True)
class Op:
    delay: int
    write: bool
    fully_coherent: bool
    offset: int
    words: int


@dataclass(frozen=True)
class Scenario:
    tile_words: Tuple[int, ...]     # per memory tile
    llc_sets: int
    cache_sets: int
    clients: Tuple[Tuple[int, Tuple[Op, ...]], ...]   # (engine, ops)


@st.composite
def scenarios(draw):
    if draw(st.booleans()):
        # The boundary falls inside a line: that line belongs to the
        # first tile, which owns its first word.
        first = draw(st.integers(12, 30)) * LINE_WORDS \
            + draw(st.integers(1, LINE_WORDS - 1))
        tile_words = (first, draw(st.integers(100, 400)))
    else:
        tile_words = (draw(st.integers(200, 700)),)
    total = sum(tile_words)
    n_engines = draw(st.integers(2, 4))
    clients = []
    for _ in range(draw(st.integers(n_engines, n_engines + 2))):
        ops = []
        for _ in range(draw(st.integers(1, 5))):
            words = draw(st.integers(1, 160))
            ops.append(Op(delay=draw(st.integers(0, 60)),
                          write=draw(st.booleans()),
                          fully_coherent=draw(st.integers(0, 3)) > 0,
                          offset=draw(st.integers(0, total - words)),
                          words=words))
        clients.append((draw(st.integers(0, n_engines - 1)), tuple(ops)))
    return Scenario(tile_words=tile_words,
                    llc_sets=draw(st.integers(1, 4)),
                    cache_sets=draw(st.integers(1, 4)),
                    clients=tuple(clients))


def _client(env, engine, ops, done):
    for op in ops:
        if op.delay:
            yield env.timeout(op.delay)
        mode = "fully-coherent" if op.fully_coherent else "llc-coherent"
        if op.write:
            yield from engine.store(op.offset, np.full(op.words, 1.0),
                                    coherence=mode)
        else:
            yield from engine.load(op.offset, op.words, coherence=mode)
    done.append(engine.coord)


def _use_reference(tiles, engines) -> None:
    """Swap the per-line code in, before any transaction runs."""
    for tile in tiles:
        tile.ensure_directory = MethodType(ref_ensure_directory, tile)
        tile._coherent_service = MethodType(ref_coherent_service, tile)
    for engine in engines:
        engine._fc_transaction = MethodType(ref_fc_transaction, engine)


def _sets(cache):
    return None if cache is None else [list(s.items())
                                       for s in cache._sets]


def run(scenario: Scenario, reference: bool):
    env = Environment()
    mesh = RecordingMesh(env, 3, 2)
    tiles = [MemoryTile(env, mesh, coord, size_words=words,
                        llc=LastLevelCache(
                            capacity_words=LINE_WORDS * 2 * scenario.llc_sets,
                            line_words=LINE_WORDS, ways=2))
             for coord, words in zip(MEMORY_COORDS, scenario.tile_words)]
    memory_map = MemoryMap(tiles)
    engines = [DmaEngine(env, mesh, coord, memory_map,
                         private_cache_words=LINE_WORDS * 4
                         * scenario.cache_sets)
               for coord in ENGINE_COORDS]
    if reference:
        _use_reference(tiles, engines)
    done: List[Tuple[int, int]] = []
    for index, ops in scenario.clients:
        env.process(_client(env, engines[index], ops, done))
    env.run()
    return {
        "now": env.now,
        "events": env.events_processed,
        "done": done,
        "packets": [(p.kind, p.src, p.dst, p.plane, p.tag, p.injected_at)
                    for p in mesh.sent],
        "caches": [(_sets(e.cache), e.cache and e.cache.stats(),
                    e.transactions, e.words) for e in engines],
        "llcs": [(_sets(t.llc), t.llc.stats()) for t in tiles],
        "tiles": [(t.words_read, t.words_written, t.load_transactions,
                   t.store_transactions) for t in tiles],
        "directories": [
            None if t.directory is None else
            (t.directory.state.owner, t.directory.state.sharers,
             t.directory.stats.as_dict()) for t in tiles],
    }


@given(scenario=scenarios())
@settings(max_examples=150, deadline=None)
def test_ranges_match_per_line_oracle(scenario):
    ranges = run(scenario, reference=False)
    oracle = run(scenario, reference=True)
    assert ranges.keys() == oracle.keys()
    for key in ranges:
        assert ranges[key] == oracle[key], key


def test_boundary_line_belongs_to_the_tile_owning_its_first_word():
    """Line 12 spans words 192..207 and the first tile ends at 200: a
    read of words 200..215 asks the first tile's directory for it."""
    scenario = Scenario(tile_words=(200, 200), llc_sets=1, cache_sets=1,
                        clients=((0, (Op(0, False, True, 200, 16),)),))
    result = run(scenario, reference=False)
    assert result == run(scenario, reference=True)
    requests = [p for p in result["packets"]
                if p[0] is MessageKind.COH_REQ]
    assert [p[2] for p in requests] == MEMORY_COORDS


# ---------------------------------------------------------------------------
# The grant install, with requests the engine never builds
# ---------------------------------------------------------------------------

@st.composite
def grants(draw):
    """A warm cache and a grant mixing GETS, GETM and upgrade lines.

    The engine's requests are all reads or all writes, so this drives
    the install order that whole runs cannot reach.
    """
    sets = draw(st.integers(1, 4))
    ways = draw(st.integers(1, 4))
    warm = draw(st.lists(st.tuples(st.integers(0, 23),
                                   st.sampled_from([MODIFIED, EXCLUSIVE,
                                                    SHARED])),
                         max_size=12))
    lines = draw(st.lists(st.integers(0, 23), unique=True, max_size=12))
    cut1, cut2 = sorted(draw(st.lists(st.integers(0, len(lines)),
                                      min_size=2, max_size=2)))
    gets, getm, upgrades = lines[:cut1], lines[cut1:cut2], lines[cut2:]
    exclusive = [line for line in gets if draw(st.booleans())]
    return sets, ways, warm, CoherenceRequest(
        gets_lines=tuple(gets), getm_lines=tuple(getm),
        upgrade_lines=tuple(upgrades), requester=(0, 0), tag="t",
        word_bits=16), tuple(exclusive)


@given(grant=grants())
@settings(max_examples=200, deadline=None)
def test_grant_install_matches_per_line_oracle(grant):
    sets, ways, warm, request, exclusive = grant
    caches = [PrivateCache(capacity_words=LINE_WORDS * ways * sets,
                           line_words=LINE_WORDS, ways=ways)
              for _ in range(2)]
    for cache in caches:
        for line, state in warm:
            ref_install(cache, line, state)
    victims = caches[0].install_grant(request, exclusive)
    assert victims == ref_install_grant(caches[1], request, exclusive)
    assert _sets(caches[0]) == _sets(caches[1])
    assert caches[0].stats() == caches[1].stats()
