"""NoC packets and message kinds.

ESP's NoC moves multi-flit packets between tiles; accelerators use two
dedicated DMA planes (requests and responses on decoupled planes to
prevent deadlock, paper Sec. II), and the p2p service reuses exactly
those planes (Sec. IV).
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Any, Optional, Tuple

Coord = Tuple[int, int]

_packet_ids = itertools.count()


class MessageKind(Enum):
    """Message classes carried by the NoC."""

    DMA_REQ = "dma_req"        # DMA load/store request (to memory tile)
    DMA_RSP = "dma_rsp"        # DMA load response (data from memory)
    P2P_REQ = "p2p_req"        # p2p load request (receiver -> sender tile)
    P2P_RSP = "p2p_rsp"        # p2p data (sender tile -> receiver)
    REG_ACCESS = "reg_access"  # memory-mapped register read/write
    IRQ = "irq"                # interrupt toward the processor tile
    COHERENCE = "coherence"    # processor cache traffic (background)
    COH_REQ = "coh_req"        # fully-coherent request (tile -> directory)
    COH_INV = "coh_inv"        # invalidation/recall (directory -> tile)
    COH_ACK = "coh_ack"        # invalidation ack (+ dirty data) back
    COH_RSP = "coh_rsp"        # directory grant/data to the requester
    COH_WB = "coh_wb"          # dirty-eviction writeback (fire-and-forget)


class Packet:
    """One NoC packet: header flit + payload flits.

    ``payload`` is opaque to the network (the functional data rides
    along with the timing model). ``payload_flits`` determines the
    serialization time on every link of the route; ``size_flits``, the
    total on the wire, is computed once, here.

    A slotted class with an explicit constructor: one is built per
    NoC message, so no ``__dict__`` and no default factory per packet.
    ``packet_id`` defaults to the next value of a process-wide counter.
    """

    __slots__ = ("src", "dst", "plane", "kind", "payload_flits",
                 "size_flits", "payload", "tag", "packet_id",
                 "injected_at", "delivered_at", "on_lost")

    def __init__(self, src: Coord, dst: Coord, plane: str,
                 kind: MessageKind, payload_flits: int,
                 payload: Any = None, tag: Optional[str] = None,
                 packet_id: Optional[int] = None,
                 injected_at: Optional[int] = None,
                 delivered_at: Optional[int] = None,
                 on_lost: Optional[Any] = None) -> None:
        self.src = src
        self.dst = dst
        self.plane = plane
        self.kind = kind
        self.payload_flits = payload_flits
        self.payload = payload
        self.tag = tag
        self.packet_id = (next(_packet_ids) if packet_id is None
                          else packet_id)
        self.injected_at = injected_at
        self.delivered_at = delivered_at
        #: Optional callback the mesh fires if the packet is lost
        #: (dropped or discarded at ejection with a bad CRC) — lets
        #: posted-store accounting reconcile stores that will never
        #: arrive.
        self.on_lost = on_lost
        if payload_flits < 0:
            raise ValueError(
                f"payload_flits must be >= 0, got {payload_flits}")
        #: Total flits on the wire (1 header flit + payload).
        self.size_flits = 1 + payload_flits

    @property
    def latency(self) -> Optional[int]:
        if self.injected_at is None or self.delivered_at is None:
            return None
        return self.delivered_at - self.injected_at

    def __repr__(self) -> str:
        return (f"Packet(id={self.packet_id}, {self.kind._name_} "
                f"{self.src}->{self.dst}@{self.plane}, "
                f"{self.size_flits} flits, tag={self.tag!r})")
