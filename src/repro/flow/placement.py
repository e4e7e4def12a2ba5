"""Accelerator placement optimization (floorplanning the tile grid).

Paper Sec. IV: "the ESP graphic configuration interface can be used to
pick the location of each accelerator in the SoC". Placement matters:
XY-routed traffic pays one router + link per hop, so a dataflow whose
heavy edges span the mesh wastes cycles and link energy. This module
automates the choice: it builds a traffic matrix from the dataflow and
the accelerator I/O geometries, and minimizes total words x hops with
a greedy seed plus pairwise-swap hill climbing (deterministic).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..accelerators.base import AcceleratorSpec
from ..noc import hop_count
from ..runtime.dataflow import Dataflow
from ..soc import SoCConfig

Coord = Tuple[int, int]

#: Pseudo-device representing the memory tile in the traffic matrix.
MEMORY = "__memory__"


def traffic_matrix(dataflow: Dataflow,
                   specs: Dict[str, AcceleratorSpec],
                   p2p: bool = True) -> Dict[Tuple[str, str], int]:
    """Words exchanged per frame between endpoints.

    With p2p, inter-accelerator edges carry their words directly;
    without it every edge round-trips through :data:`MEMORY`. Roots
    always load their input from memory and leaves store their output
    to it.
    """
    for device in dataflow.devices:
        if device not in specs:
            raise KeyError(f"no spec for device {device!r}")
    traffic: Dict[Tuple[str, str], int] = {}

    def add(a: str, b: str, words: int) -> None:
        key = (a, b) if a <= b else (b, a)
        traffic[key] = traffic.get(key, 0) + words

    levels = dataflow.levels()
    for root in levels[0]:
        add(MEMORY, root, specs[root].input_words)
    for leaf in levels[-1]:
        add(MEMORY, leaf, specs[leaf].output_words)
    for edge in dataflow.edges:
        words = specs[edge.src].output_words
        if p2p:
            add(edge.src, edge.dst, words)
        else:
            add(edge.src, MEMORY, words)
            add(MEMORY, edge.dst, words)
    return traffic


def placement_cost(positions: Dict[str, Coord],
                   traffic: Dict[Tuple[str, str], int]) -> int:
    """Total words x hops for one assignment (MEMORY must be placed)."""
    cost = 0
    for (a, b), words in traffic.items():
        cost += words * hop_count(positions[a], positions[b])
    return cost


@dataclass(frozen=True)
class PlacementResult:
    positions: Dict[str, Coord]
    cost: int
    initial_cost: int
    swaps: int


def optimize_placement(slots: Sequence[Coord], devices: Sequence[str],
                       traffic: Dict[Tuple[str, str], int],
                       memory_coord: Coord,
                       max_rounds: int = 50) -> PlacementResult:
    """Assign ``devices`` to ``slots`` minimizing words x hops.

    Greedy seed: devices in decreasing total-traffic order each take
    the free slot minimizing their cost against everything already
    placed. Refinement: pairwise swaps until a full round yields no
    improvement (hill climbing; deterministic, so results are
    reproducible).
    """
    slots = list(slots)
    devices = list(devices)
    if len(slots) < len(devices):
        raise ValueError(
            f"{len(devices)} devices but only {len(slots)} free slots")
    if len(set(slots)) != len(slots):
        raise ValueError("duplicate slots")

    weight: Dict[str, int] = {d: 0 for d in devices}
    for (a, b), words in traffic.items():
        for endpoint in (a, b):
            if endpoint in weight:
                weight[endpoint] += words

    positions: Dict[str, Coord] = {MEMORY: memory_coord}
    free = list(slots)
    for device in sorted(devices, key=lambda d: (-weight[d], d)):
        best_slot = None
        best_cost = None
        for slot in free:
            cost = 0
            for (a, b), words in traffic.items():
                if a == device and b in positions:
                    cost += words * hop_count(slot, positions[b])
                elif b == device and a in positions:
                    cost += words * hop_count(slot, positions[a])
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_slot = slot
        positions[device] = best_slot
        free.remove(best_slot)

    initial_cost = placement_cost(positions, traffic)
    cost = initial_cost
    swaps = 0
    for _ in range(max_rounds):
        improved = False
        for i in range(len(devices)):
            for j in range(i + 1, len(devices)):
                a, b = devices[i], devices[j]
                positions[a], positions[b] = positions[b], positions[a]
                candidate = placement_cost(positions, traffic)
                if candidate < cost:
                    cost = candidate
                    swaps += 1
                    improved = True
                else:
                    positions[a], positions[b] = (positions[b],
                                                  positions[a])
        if not improved:
            break
    final = {d: positions[d] for d in devices}
    return PlacementResult(positions=final, cost=cost,
                           initial_cost=initial_cost, swaps=swaps)


def placed_soc_config(cols: int, rows: int, name: str,
                      devices: Sequence[Tuple[str, AcceleratorSpec]],
                      dataflow: Dataflow,
                      clock_mhz: float = 78.0,
                      memory_words: int = 1 << 22,
                      p2p: bool = True) -> SoCConfig:
    """Build a SoCConfig with optimized accelerator placement.

    CPU, memory and auxiliary tiles take the first row-major slots (as
    the default flow does); the accelerators are then placed to
    minimize the dataflow's words x hops.
    """
    config = SoCConfig(cols=cols, rows=rows, name=name,
                       clock_mhz=clock_mhz)
    config.add_cpu(config.next_free())
    mem_coord = config.next_free()
    config.add_memory(mem_coord, size_words=memory_words)
    config.add_aux(config.next_free())

    slots = [(x, y) for y in range(rows) for x in range(cols)
             if (x, y) not in config.tiles]
    specs = dict(devices)
    traffic = traffic_matrix(dataflow, specs, p2p=p2p)
    result = optimize_placement(slots, [d for d, _ in devices], traffic,
                                memory_coord=mem_coord)
    for device, spec in devices:
        config.add_accelerator(result.positions[device], device, spec)
    return config
