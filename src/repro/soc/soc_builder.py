"""SoC generation: floorplan -> runnable instance (the "bitstream").

The ESP flow takes the validated configuration, generates wrappers,
routing tables, the FPGA bitstream and a bootable Linux image (paper
Sec. IV). Here generation produces a :class:`SoCInstance`: a live
simulation with all tiles instantiated on the NoC, ready to execute
software through the runtime layer; XY routing stands in for the
routing tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..hls import ResourceEstimate
from ..noc import Mesh2D
from ..sim import Environment
from .accelerator import AcceleratorTile
from .config import SoCConfig
from .llc import LastLevelCache
from .memory import MemoryMap, MemoryTile
from .processor import AuxTile, ProcessorTile

Coord = Tuple[int, int]

#: Socket/infrastructure cost per tile kind, added on top of the
#: accelerator kernels (NoC routers, wrapper FIFOs, DMA engine, regs).
TILE_OVERHEAD = {
    "cpu": ResourceEstimate(luts=150_000, ffs=120_000, brams=60, dsps=27),
    "mem": ResourceEstimate(luts=20_000, ffs=24_000, brams=8, dsps=0),
    "acc": ResourceEstimate(luts=17_000, ffs=19_000, brams=16, dsps=0),
    "aux": ResourceEstimate(luts=14_000, ffs=12_000, brams=12, dsps=0),
    "empty": ResourceEstimate(luts=1_500, ffs=2_000, brams=0, dsps=0),
}


@dataclass
class SoCInstance:
    """A built SoC: simulation environment plus tile handles."""

    name: str
    config: SoCConfig
    env: Environment
    mesh: Mesh2D
    cpu: ProcessorTile
    memory_map: MemoryMap
    accelerators: Dict[str, AcceleratorTile]
    aux_tiles: List[AuxTile]

    @property
    def clock_mhz(self) -> float:
        return self.config.clock_mhz

    def run(self, until=None):
        """Advance the simulation (delegates to the environment)."""
        return self.env.run(until=until)

    def resources(self) -> ResourceEstimate:
        """Whole-SoC resource usage: kernels + sockets + infrastructure."""
        total = ResourceEstimate()
        for _, tile in self.config.tiles.items():
            total = total + TILE_OVERHEAD[tile.kind]
            if tile.kind == "acc" and tile.spec is not None:
                total = total + tile.spec.resources
        # Unassigned grid slots still instantiate NoC routers.
        unassigned = self.config.cols * self.config.rows \
            - len(self.config.tiles)
        for _ in range(unassigned):
            total = total + TILE_OVERHEAD["empty"]
        return total

    def dram_accesses(self) -> int:
        """Total DRAM words moved (Fig. 8 metric)."""
        return self.memory_map.total_accesses

    def accelerator(self, name: str) -> AcceleratorTile:
        if name not in self.accelerators:
            raise KeyError(
                f"no accelerator named {name!r}; available: "
                f"{sorted(self.accelerators)}")
        return self.accelerators[name]


def build_soc(config: SoCConfig,
              env: Optional[Environment] = None,
              trace_links: bool = False) -> SoCInstance:
    """Generate a runnable SoC from a validated configuration.

    ``trace_links`` records per-link occupancy transitions so the run
    can be exported as a VCD waveform (:mod:`repro.soc.vcd`).
    """
    config.validate()
    env = env or Environment()
    mesh = Mesh2D(env, config.cols, config.rows,
                  trace_links=trace_links)

    cpu_tiles = config.tiles_of_kind("cpu")
    cpu_coord = cpu_tiles[0][0]

    memory_tiles: List[MemoryTile] = []
    for coord, tile in config.tiles_of_kind("mem"):
        llc = LastLevelCache(capacity_words=tile.llc_words) \
            if tile.llc_words else None
        memory_tiles.append(MemoryTile(env, mesh, coord,
                                       size_words=tile.mem_size_words,
                                       llc=llc))
    memory_map = MemoryMap(memory_tiles)

    cpu = ProcessorTile(env, mesh, cpu_coord)

    accelerators: Dict[str, AcceleratorTile] = {}
    for coord, tile in config.tiles_of_kind("acc"):
        accelerators[tile.name] = AcceleratorTile(
            env, mesh, coord, tile.spec, memory_map,
            device_name=tile.name, irq_dst=cpu_coord,
            private_cache_words=tile.private_cache_words)

    aux_tiles = [AuxTile(env, mesh, coord)
                 for coord, _ in config.tiles_of_kind("aux")]

    return SoCInstance(
        name=config.name,
        config=config,
        env=env,
        mesh=mesh,
        cpu=cpu,
        memory_map=memory_map,
        accelerators=accelerators,
        aux_tiles=aux_tiles,
    )
