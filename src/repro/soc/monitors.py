"""SoC performance monitors (ESP's hardware counters, aggregated).

ESP instruments tiles with performance counters; the infrastructure
papers the DATE paper builds on read them out for DVFS and traffic
studies. This module gathers every counter the simulated SoC keeps —
per-accelerator activity, DMA engine traffic, TLB behaviour, memory
bandwidth, LLC statistics and NoC link utilization — into one
monitor report.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional

from .soc_builder import SoCInstance


@dataclass(frozen=True)
class TileActivity:
    """Per-accelerator activity between two snapshots.

    The serving layer's attribution primitive: the tile arbiter grants
    a tenant exclusive tiles, so the counter delta between grant and
    release is exactly that tenant's hardware activity — no sampling,
    no estimation.
    """

    device: str
    invocations: int
    frames: int
    busy_cycles: int
    dma_loads: int
    dma_stores: int
    p2p_loads: int
    p2p_stores: int
    words_loaded: int
    words_stored: int

    def __add__(self, other: "TileActivity") -> "TileActivity":
        if other.device != self.device:
            raise ValueError(f"cannot add activity of {self.device!r} "
                             f"and {other.device!r}")
        return _combine(self, other, operator.add)


@dataclass(frozen=True)
class AcceleratorCounters(TileActivity):
    """One tile's monitor row: its activity plus occupancy and TLB."""

    utilization: float
    tlb_hits: int
    tlb_misses: int


def _activity(name: str, tile) -> dict:
    """The :class:`TileActivity` fields of one tile, read from its
    socket's hardware counters."""
    dma = tile.dma
    return dict(device=name, invocations=len(tile.invocations),
                frames=tile.frames_processed, busy_cycles=tile.busy_cycles,
                dma_loads=dma.transactions["dma_load"],
                dma_stores=dma.transactions["dma_store"],
                p2p_loads=dma.transactions["p2p_load"],
                p2p_stores=dma.transactions["p2p_store"],
                words_loaded=dma.words_loaded,
                words_stored=dma.words_stored)


def _combine(a, b, op, **overrides):
    """Field-wise ``op(a, b)`` over every counter of one monitor row
    (each field after the row's key, ``device`` or ``coord``)."""
    values = {f.name: op(getattr(a, f.name), getattr(b, f.name))
              for f in fields(a)[1:]}
    values.update(overrides)
    return replace(a, **values)


@dataclass(frozen=True)
class MemoryCounters:
    coord: tuple
    words_read: int
    words_written: int
    load_transactions: int
    store_transactions: int
    llc_hits: Optional[int]
    llc_misses: Optional[int]
    llc_writebacks: Optional[int]


@dataclass(frozen=True)
class MonitorReport:
    """One snapshot of every hardware counter in the SoC."""

    elapsed_cycles: int
    clock_mhz: float
    accelerators: List[AcceleratorCounters]
    memories: List[MemoryCounters]
    noc_flit_hops: int
    noc_packets: int
    noc_plane_flits: Dict[str, int]
    busiest_link: Optional[str]

    @property
    def total_dram_words(self) -> int:
        return sum(m.words_read + m.words_written for m in self.memories)

    def dram_bandwidth_words_per_cycle(self) -> float:
        if self.elapsed_cycles == 0:
            return 0.0
        return self.total_dram_words / self.elapsed_cycles

    def to_text(self) -> str:
        lines = [
            f"== SoC monitors @ cycle {self.elapsed_cycles:,} "
            f"({self.clock_mhz} MHz) ==",
            f"{'device':<12}{'invk':>6}{'frames':>8}{'busy%':>7}"
            f"{'ld':>6}{'st':>6}{'p2p-ld':>8}{'p2p-st':>8}"
            f"{'tlb h/m':>12}",
        ]
        for acc in self.accelerators:
            lines.append(
                f"{acc.device:<12}{acc.invocations:>6}{acc.frames:>8}"
                f"{acc.utilization:>7.0%}{acc.dma_loads:>6}"
                f"{acc.dma_stores:>6}{acc.p2p_loads:>8}"
                f"{acc.p2p_stores:>8}"
                f"{f'{acc.tlb_hits}/{acc.tlb_misses}':>12}")
        for mem in self.memories:
            llc = ""
            if mem.llc_hits is not None:
                llc = (f"   LLC h/m/wb: {mem.llc_hits}/{mem.llc_misses}"
                       f"/{mem.llc_writebacks}")
            lines.append(
                f"memory {mem.coord}: {mem.words_read:,} read, "
                f"{mem.words_written:,} written{llc}")
        lines.append(
            f"NoC: {self.noc_packets:,} packets, "
            f"{self.noc_flit_hops:,} flit-hops; busiest link "
            f"{self.busiest_link}")
        lines.append(
            f"DRAM bandwidth: "
            f"{self.dram_bandwidth_words_per_cycle():.3f} words/cycle")
        return "\n".join(lines)


def tile_activity(soc: SoCInstance, names) -> Dict[str, TileActivity]:
    """Snapshot the activity counters of the named accelerator tiles."""
    out: Dict[str, TileActivity] = {}
    for name in names:
        if name not in soc.accelerators:
            raise KeyError(f"unknown accelerator {name!r}; options: "
                           f"{sorted(soc.accelerators)}")
        out[name] = TileActivity(**_activity(name, soc.accelerators[name]))
    return out


def activity_delta(before: Dict[str, TileActivity],
                   after: Dict[str, TileActivity]
                   ) -> Dict[str, TileActivity]:
    """Counter-wise ``after - before`` over matching devices."""
    out: Dict[str, TileActivity] = {}
    for name, end in after.items():
        start = before.get(name)
        if start is None:
            raise KeyError(f"no 'before' snapshot for {name!r}")
        out[name] = _combine(end, start, operator.sub)
    return out


def read_monitors(soc: SoCInstance) -> MonitorReport:
    """Snapshot every counter of the SoC."""
    accelerators = []
    for name in sorted(soc.accelerators):
        tile = soc.accelerators[name]
        tlb_stats = tile.dma.tlb.stats()
        accelerators.append(AcceleratorCounters(
            **_activity(name, tile), utilization=tile.utilization(),
            tlb_hits=tlb_stats["hits"], tlb_misses=tlb_stats["misses"]))
    memories = []
    for tile in soc.memory_map.tiles:
        llc = tile.llc
        memories.append(MemoryCounters(
            coord=tile.coord,
            words_read=tile.words_read,
            words_written=tile.words_written,
            load_transactions=tile.load_transactions,
            store_transactions=tile.store_transactions,
            llc_hits=llc.hits if llc else None,
            llc_misses=llc.misses if llc else None,
            llc_writebacks=llc.writebacks if llc else None,
        ))
    busiest = soc.mesh.busiest_links(top=1)
    busiest_label = None
    if busiest and busiest[0].flits_carried > 0:
        link = busiest[0]
        busiest_label = (f"{link.src}->{link.dst}@{link.plane} "
                         f"({link.flits_carried:,} flits)")
    return MonitorReport(
        elapsed_cycles=soc.env.now,
        clock_mhz=soc.clock_mhz,
        accelerators=accelerators,
        memories=memories,
        noc_flit_hops=soc.mesh.flit_hops,
        noc_packets=soc.mesh.packets_delivered,
        noc_plane_flits=soc.mesh.plane_flits(),
        busiest_link=busiest_label,
    )
