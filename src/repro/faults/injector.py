"""The fault injector: binds a :class:`FaultPlan` to a built SoC.

``attach(soc)`` hands the injector to every faultable component — the
NoC mesh, each accelerator tile and its DMA engine, each memory tile.
Components consult it at their injection points with plain method
calls; when no plan is attached (the default ``fault_injector = None``
on every component) those call sites cost nothing and the simulation
is cycle-identical to a fault-free build.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from .plan import FaultPlan

Coord = Tuple[int, int]

#: Sentinel returned by :meth:`FaultInjector.dma_stall` for a stall
#: that never ends (the engine wedges; the runtime watchdog recovers).
HANG = -1


class FaultInjector:
    """Consulted by SoC components at each fault opportunity."""

    HANG = HANG

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._names_by_coord: Dict[Coord, str] = {}
        # Per-site counters (the campaign's injected-fault accounting).
        self.packets_dropped = 0
        self.packets_corrupted = 0
        self.dma_stalls = 0
        self.p2p_reqs_dropped = 0
        self.acc_faults = 0
        self.bits_flipped = 0

    def attach(self, soc) -> "FaultInjector":
        """Wire this injector into every tile of a built SoC."""
        soc.mesh.fault_injector = self
        for name, tile in soc.accelerators.items():
            tile.fault_injector = self
            tile.dma.fault_injector = self
            self._names_by_coord[tile.coord] = name
        for tile in soc.memory_map.tiles:
            tile.fault_injector = self
        return self

    def _name(self, coord: Coord) -> Optional[str]:
        return self._names_by_coord.get(coord)

    # -- injection points --------------------------------------------------

    def on_deliver(self, packet, now: int) -> str:
        """NoC ejection fault: ``"ok"``, ``"drop"`` or ``"corrupt"``.

        Both faulty outcomes lose the packet: a dropped packet vanished
        in flight, a corrupted one is caught by the link-level CRC and
        discarded at ejection. Either way the waiting requester times
        out and the runtime watchdog drives recovery — corruption is
        never silently delivered.
        """
        target = self._name(packet.dst)
        kind_name = packet.kind.name
        if self.plan.draw("link_drop", target, now, plane=packet.plane,
                          message_kind=kind_name) is not None:
            self.packets_dropped += 1
            return "drop"
        if self.plan.draw("link_corrupt", target, now, plane=packet.plane,
                          message_kind=kind_name) is not None:
            self.packets_corrupted += 1
            return "corrupt"
        return "ok"

    def dma_stall(self, coord: Coord, now: int) -> Optional[int]:
        """Stall cycles before a DMA transaction; HANG for a dead engine."""
        spec = self.plan.draw("dma_stall", self._name(coord), now)
        if spec is None:
            return None
        self.dma_stalls += 1
        return HANG if spec.duration is None else spec.duration

    def p2p_req_lost(self, coord: Coord, now: int) -> bool:
        """True when this tile's p2p load request is lost pre-injection."""
        if self.plan.draw("p2p_req_drop", self._name(coord),
                          now) is not None:
            self.p2p_reqs_dropped += 1
            return True
        return False

    def acc_fault(self, device: str, now: int) -> Optional[tuple]:
        """Kernel fault for this invocation.

        Returns ``None`` or one of ``("hang",)``, ``("crash",)``,
        ``("slow", factor)``.
        """
        spec = self.plan.draw("acc_hang", device, now)
        if spec is not None:
            self.acc_faults += 1
            return ("hang",)
        spec = self.plan.draw("acc_crash", device, now)
        if spec is not None:
            self.acc_faults += 1
            return ("crash",)
        spec = self.plan.draw("acc_slow", device, now)
        if spec is not None:
            self.acc_faults += 1
            return ("slow", spec.factor)
        return None

    def maybe_flip_dram(self, storage: np.ndarray, offset: int,
                        words: int, now: int) -> bool:
        """Flip one mantissa bit of a word in [offset, offset+words).

        Called by the memory tile while servicing a load; the flip
        lands in the backing storage (a real DRAM upset persists until
        the word is rewritten). Returns True when a flip happened.
        """
        if self.plan.draw("dram_bitflip", None, now) is None:
            return False
        index = offset + self.plan.randint(words)
        bit = self.plan.randint(52)     # mantissa bits: value stays finite
        view = storage[index:index + 1].view(np.int64)
        view[0] ^= np.int64(1) << np.int64(bit)
        self.bits_flipped += 1
        return True
