"""The MESI invariants of the fully-coherent protocol, as a test helper.

``mesi_violations(soc)`` reads every accelerator tile's private cache
and every memory tile's directory and lists the lines that break one
of three rules:

- single writer, multiple readers: a line held ``E`` or ``M`` by one
  tile is held by no other tile;
- every ``E``/``M`` holder is the directory's owner of the line;
- every ``S`` holder is in the line's sharer set, or is its owner.
"""

from typing import Dict, List, Tuple

from repro.soc.coherence import SHARED

Coord = Tuple[int, int]


def mesi_violations(soc) -> List[str]:
    """Every broken invariant on ``soc``, one line of text each."""
    owners: Dict[int, Coord] = {}
    sharers: Dict[int, set] = {}
    for tile in soc.memory_map.tiles:
        if tile.directory is not None:
            owners.update(tile.directory._owner)
            sharers.update(tile.directory._sharers)
    holders: Dict[int, List[Tuple[Coord, str]]] = {}
    for acc in soc.accelerators.values():
        cache = acc.dma.cache
        if cache is None:
            continue
        for cache_set in cache._sets:
            for line, state in cache_set.items():
                holders.setdefault(line, []).append((acc.coord, state))
    violations = []
    for line, held in sorted(holders.items()):
        copies = ", ".join(f"{state} at {coord}" for coord, state in held)
        if len(held) > 1 and any(state != SHARED for _, state in held):
            violations.append(f"line {line}: a writer among {copies}")
        for coord, state in held:
            owner = owners.get(line)
            if state != SHARED and owner != coord:
                violations.append(
                    f"line {line}: {state} at {coord}, directory owner "
                    f"{owner}")
            elif state == SHARED and owner != coord \
                    and coord not in sharers.get(line, ()):
                violations.append(
                    f"line {line}: S at {coord}, not a directory sharer")
    return violations
