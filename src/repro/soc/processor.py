"""Processor tile: the Ariane core running Linux and the auxiliary tile.

The SoC's software — the ESP4ML runtime and the accelerator device
drivers — executes on this tile. Simulation processes representing
software threads use its methods to touch accelerator registers over
the NoC IO plane and to wait for completion interrupts.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Tuple

from ..noc import IO_PLANE, Mesh2D, MessageKind, Packet
from ..sim import Environment, Event, Fifo
from .accelerator import RegRead, RegReadReply, RegWrite

Coord = Tuple[int, int]


class ProcessorTile:
    """The CPU tile: register access initiator + interrupt controller."""

    def __init__(self, env: Environment, mesh: Mesh2D, coord: Coord,
                 name: str = "ariane-0") -> None:
        self.env = env
        self.mesh = mesh
        self.coord = coord
        self.name = name
        self._irq_queues: Dict[str, Fifo] = {}
        self._read_replies: Dict[str, Fifo] = {}
        self._read_tags = itertools.count()
        self.irqs_received = 0
        self.reg_writes = 0
        self.reg_reads = 0
        self.reg_read_timeouts = 0
        env.process(self._irq_dispatcher(), name=f"irq-dispatch:{name}")

    def _irq_queue(self, device_name: str) -> Fifo:
        queue = self._irq_queues.get(device_name)
        if queue is None:
            queue = Fifo(self.env, name=f"irq:{device_name}")
            self._irq_queues[device_name] = queue
        return queue

    def _irq_dispatcher(self):
        inbox = self.mesh.inbox(self.coord, IO_PLANE)
        while True:
            packet = yield inbox.get()
            if packet.kind is MessageKind.IRQ:
                self.irqs_received += 1
                yield self._irq_queue(packet.payload).put(packet)
            elif isinstance(packet.payload, RegReadReply):
                queue = self._read_replies.get(packet.tag)
                if queue is None:
                    queue = Fifo(self.env, name=f"rdrply:{packet.tag}")
                    self._read_replies[packet.tag] = queue
                yield queue.put(packet.payload)
            else:
                raise TypeError(
                    f"processor tile got unexpected {packet.kind} on the "
                    f"IO plane")

    def write_reg(self, tile_coord: Coord, name: str, value: int) -> Event:
        """Uncached MMIO store to an accelerator register: one posted
        store, returned as its packet's delivery event.

        The event succeeds when the write packet reaches the tile,
        which is when the hardware applies it, so stores awaited one
        after another are applied in program order. The runtime's
        store sequence is :class:`repro.runtime.executor.RegisterStores`.
        """
        self.reg_writes += 1
        return self.mesh.send(Packet(
            src=self.coord, dst=tile_coord, plane=IO_PLANE,
            kind=MessageKind.REG_ACCESS, payload_flits=1,
            payload=RegWrite(name, value), tag=name))

    def read_reg_bounded(self, tile_coord: Coord, name: str,
                         max_cycles: int):
        """Uncached MMIO load with a watchdog: a round trip over the
        IO plane (generator) that returns the register value, or
        ``None`` when no reply arrives.

        A lost reply packet (or a dead tile) surfaces as a ``None``
        return after ``max_cycles`` instead of blocking the calling
        thread forever.
        """
        if max_cycles < 1:
            raise ValueError(f"max_cycles must be >= 1, got {max_cycles}")
        self.reg_reads += 1
        tag = f"rd{next(self._read_tags)}"
        queue = Fifo(self.env, name=f"rdrply:{tag}")
        self._read_replies[tag] = queue
        self.mesh.send(Packet(
            src=self.coord, dst=tile_coord, plane=IO_PLANE,
            kind=MessageKind.REG_ACCESS, payload_flits=1,
            payload=RegRead(name, reply_to=self.coord, tag=tag),
            tag=tag))
        reply_event = queue.get()
        watchdog = self.env.timeout(max_cycles)
        yield self.env.any_of([reply_event, watchdog])
        if not reply_event.triggered:
            # Give up: withdraw the getter so a late reply parks in the
            # (now orphaned) queue instead of resuming a dead waiter.
            queue.cancel(reply_event)
            del self._read_replies[tag]
            self.reg_read_timeouts += 1
            return None
        del self._read_replies[tag]
        return reply_event.value.value

    def wait_irq(self, device_name: str):
        """Block until the named device raises its interrupt."""
        yield self._irq_queue(device_name).get()

    # -- watchdog-friendly IRQ interface ---------------------------------

    def irq_event(self, device_name: str) -> Event:
        """A get event on the device's IRQ queue (for any_of races).

        The executor's watchdog yields ``any_of([irq_event, timeout])``
        instead of blocking unconditionally in :meth:`wait_irq`; on
        timeout it must withdraw the event with :meth:`cancel_irq`.
        """
        return self._irq_queue(device_name).get()

    def cancel_irq(self, device_name: str, event: Event) -> bool:
        """Withdraw a pending :meth:`irq_event` (watchdog expired)."""
        return self._irq_queue(device_name).cancel(event)

    def try_irq(self, device_name: str) -> Optional[Packet]:
        """Non-blocking IRQ poll; drains one stale interrupt if any."""
        return self._irq_queue(device_name).try_get()


class AuxTile:
    """Auxiliary tile (debug link, frame buffer, timers).

    Takes part in the floorplan but has no behaviour the experiments
    exercise; ESP SoCs always carry one (Fig. 2).
    """

    def __init__(self, env: Environment, mesh: Mesh2D, coord: Coord) -> None:
        self.env = env
        self.mesh = mesh
        self.coord = coord

    def __repr__(self) -> str:
        return f"<AuxTile at {self.coord}>"
