"""The MESI invariants of the fully-coherent protocol.

``mesi_violations`` (``repro.soc.coherence``) checks private caches
against directory states. It is checked here three ways:

- at the end of the coherence ablation runs: each tuner ablation SoC
  runs its batch with every device fully coherent, as the ``coherent``
  ledger workload does;
- on the recorded ``false-sharing`` race, replayed as protocol
  transitions with no SoC and no simulator;
- after every step of random in-order transactions (hypothesis).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.soc import PrivateCache
from repro.soc.coherence import (
    EXCLUSIVE,
    MODIFIED,
    SHARED,
    CoherenceRequest,
    DirectoryState,
    mesi_violations,
)
from repro.tune import ablation_workloads

WORKLOADS = {workload.name: workload for workload in ablation_workloads()}

#: An invalidation can overtake an in-flight E grant. The directory
#: grants line 162 E to (2, 0) at cycle 7512, on coh-rsp. At 7552 it
#: recalls the line from (2, 0) for a GETS from (3, 0). The recall on
#: coh-fwd lands at 7556 and (2, 0) acks it at 7558, with nothing to
#: drop: its E grant only lands, and installs, at 7567. (3, 0) is then
#: granted E as well, at 7705. Lines 162 and 187 end E at both tiles.
GRANT_RACE = ("invalidation overtakes an in-flight E grant: lines 162 "
              "and 187 end E at both (2, 0) and (3, 0)")

LINE_WORDS = 16


def soc_violations(soc):
    """``mesi_violations`` over every private cache and directory of
    ``soc``."""
    caches = {acc.coord: acc.dma.cache for acc in soc.accelerators.values()
              if acc.dma.cache is not None}
    directories = [tile.directory.state for tile in soc.memory_map.tiles
                   if tile.directory is not None]
    return mesi_violations(caches, directories)


@pytest.mark.parametrize("name", [
    "fc-streaming",
    "llc-resident",
    pytest.param("false-sharing", marks=pytest.mark.xfail(
        strict=True, reason=GRANT_RACE)),
])
def test_ablation_runs_end_mesi_clean(name):
    workload = WORKLOADS[name]
    soc, runtime = workload.build()
    runtime.esp_run(workload.dataflow, workload.frames, mode=workload.mode,
                    coherence="fully-coherent")
    assert soc_violations(soc) == []


# ---------------------------------------------------------------------------
# Transitions, with no SoC and no simulator
# ---------------------------------------------------------------------------

def coherence_request(coord, gets=(), getm=(), upgrades=()):
    return CoherenceRequest(gets_lines=tuple(gets), getm_lines=tuple(getm),
                            upgrade_lines=tuple(upgrades), requester=coord,
                            tag=f"txn{coord}", word_bits=16)


def grant_race(recall_first):
    """The ``false-sharing`` order on line 162: an E grant to A, a
    GETS from B that recalls the line from A, A's ack with nothing
    dirty, B's E grant. A's grant installs before the recall reaches
    A, or, with ``recall_first``, after B's grant installs."""
    a, b, line = (2, 0), (3, 0), 162
    directory = DirectoryState()
    caches = {a: PrivateCache(), b: PrivateCache()}
    gets_a = coherence_request(a, gets=[line])
    gets_b = coherence_request(b, gets=[line])
    assert directory.invalidation_targets(gets_a) == ({}, 0)
    grant_a = directory.grant(gets_a)
    assert grant_a == [line]
    if not recall_first:
        caches[a].install_grant(gets_a, grant_a)
    targets, recalls = directory.invalidation_targets(gets_b)
    assert targets == {a: [line]} and recalls == 1
    caches[a].invalidate_lines(targets[a])
    grant_b = directory.grant(gets_b)
    assert grant_b == [line]
    caches[b].install_grant(gets_b, grant_b)
    if recall_first:
        caches[a].install_grant(gets_a, grant_a)
    return mesi_violations(caches, [directory])


@pytest.mark.xfail(strict=True, reason=GRANT_RACE)
def test_recall_overtaking_an_e_grant_keeps_one_writer():
    assert grant_race(recall_first=True) == []


def test_e_grant_landing_before_the_recall_keeps_one_writer():
    assert grant_race(recall_first=False) == []


def transact(directory, caches, coord, lines, write, whole):
    """One transaction applied atomically, with no other message in
    flight: probe, invalidate the targets, grant, install, write back
    the dirty victims."""
    cache = caches[coord]
    hits, gets, getm, upgrades = cache.probe(lines, write, whole)
    if hits == len(lines):
        return
    request = coherence_request(coord, gets, getm, upgrades)
    targets, _ = directory.invalidation_targets(request)
    for target, target_lines in targets.items():
        caches[target].invalidate_lines(target_lines)
    victims = cache.install_grant(request, directory.grant(request))
    directory.forget(victims)


@st.composite
def in_order_runs(draw):
    """2-3 tiles, 1-2 lines, single-set caches of 1-2 ways, a
    MESI-clean start (each line unheld, owned E/M or shared S) and
    reads, partial writes and whole-line overwrites."""
    n_tiles = draw(st.integers(2, 3))
    n_lines = draw(st.integers(1, 2))
    ways = draw(st.integers(1, 2))
    tiles = st.integers(0, n_tiles - 1)
    start = [draw(st.one_of(
        st.none(),
        st.tuples(tiles, st.sampled_from([EXCLUSIVE, MODIFIED])),
        st.tuples(st.frozensets(tiles, min_size=1), st.just(SHARED)),
    )) for _ in range(n_lines)]
    ops = draw(st.lists(st.tuples(
        tiles, st.integers(0, n_lines - 1), st.integers(1, 2),
        st.sampled_from(["read", "write", "overwrite"])), max_size=12))
    return n_tiles, n_lines, ways, start, ops


@given(run=in_order_runs())
@settings(max_examples=300, deadline=None)
def test_in_order_transactions_keep_mesi_invariants(run):
    n_tiles, n_lines, ways, start, ops = run
    coords = [(2 + i, 0) for i in range(n_tiles)]
    caches = {coord: PrivateCache(capacity_words=LINE_WORDS * ways,
                                  line_words=LINE_WORDS, ways=ways)
              for coord in coords}
    directory = DirectoryState()
    for line, held in enumerate(start):
        if held is None:
            continue
        holders, state = held
        if state == SHARED:
            directory.sharers[line] = {coords[i] for i in holders}
            for i in sorted(holders):
                caches[coords[i]].install_lines((line,), SHARED)
        else:
            directory.owner[line] = coords[holders]
            caches[coords[holders]].install_lines((line,), state)
    assert mesi_violations(caches, [directory]) == []
    for tile, first, count, kind in ops:
        lines = range(first, min(first + count, n_lines))
        transact(directory, caches, coords[tile], lines, kind != "read",
                 lines if kind == "overwrite" else range(0))
        assert mesi_violations(caches, [directory]) == [], (tile, lines,
                                                            kind)
