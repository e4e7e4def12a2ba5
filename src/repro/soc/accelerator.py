"""The accelerator tile: ESP socket around a synthesized kernel.

The socket (paper Fig. 2) provides the platform services the kernel
needs: configuration registers (written by the Linux driver over the
NoC), a DMA engine with TLB, private local memory, interrupt-request
logic, and — new in ESP4ML — the p2p communication service.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from typing import Iterable, Iterator, List, Optional, Tuple

from ..accelerators.base import AcceleratorSpec
from ..faults.errors import KernelCrash
from ..noc import IO_PLANE, Mesh2D, MessageKind, Packet
from ..sim import Environment, Event, Semaphore
from .coherence import CoherenceMode
from .dma import DmaEngine
from .memory import MemoryMap
from .registers import (
    CMD_REG,
    CMD_RESET,
    CMD_START,
    COHERENCE_REG,
    DVFS_REG,
    DST_OFFSET_REG,
    MAX_DVFS_DIVIDER,
    DST_STRIDE_REG,
    RegisterFile,
    SRC_OFFSET_REG,
    SRC_STRIDE_REG,
    STATUS_DONE,
    STATUS_ERROR,
    STATUS_IDLE,
    STATUS_RUNNING,
)
from .tlb import Tlb
from .wrapper import (InvocationConfig, InvocationResult, KernelMemo,
                      wrapper_process, wrapper_process_double_buffered)

Coord = Tuple[int, int]

#: Register holding the number of frames of the current invocation
#: (the ``conf_size`` of Fig. 4, in frame units).
N_FRAMES_REG = "N_FRAMES_REG"


class RegWrite:
    """Payload of a REG_ACCESS packet (driver -> accelerator tile)."""

    def __init__(self, name: str, value: int) -> None:
        self.name = name
        self.value = value

    def __repr__(self) -> str:
        return f"RegWrite({self.name}={self.value})"


class RegRead:
    """Payload of a REG_ACCESS read request (driver -> tile)."""

    def __init__(self, name: str, reply_to: Coord, tag: str) -> None:
        self.name = name
        self.reply_to = reply_to
        self.tag = tag

    def __repr__(self) -> str:
        return f"RegRead({self.name})"


class RegReadReply:
    """Payload of a REG_ACCESS read response (tile -> driver)."""

    def __init__(self, name: str, value: int, tag: str) -> None:
        self.name = name
        self.value = value
        self.tag = tag


@contextmanager
def run_memo(tiles: Iterable[AcceleratorTile]) -> Iterator[KernelMemo]:
    """The kernel memo of the run that drives ``tiles``, for its
    duration.

    The outermost run owns it: if no tile holds a memo, a fresh one is
    installed on all of them and cleared when the block exits,
    normally or not. A run nested in another (a plan dispatched by a
    serving trace or a fleet run) finds the outer memo, adds to it and
    clears nothing.
    """
    tiles = list(tiles)
    held = next((tile.memo for tile in tiles if tile.memo is not None),
                None)
    if held is not None:
        yield held
        return
    memo: KernelMemo = {}
    for tile in tiles:
        tile.memo = memo
    try:
        yield memo
    finally:
        for tile in tiles:
            tile.memo = None


class AcceleratorTile:
    """One accelerator tile: socket + wrapper + kernel."""

    #: The kernel results of the run that drives this tile, evaluated
    #: ahead of the timing model and read by COMPUTE (see
    #: ``wrapper._compute``); ``None`` outside a run. Only
    #: :func:`run_memo` sets it.
    memo: Optional[KernelMemo] = None

    def __init__(self, env: Environment, mesh: Mesh2D, coord: Coord,
                 spec: AcceleratorSpec, memory_map: MemoryMap,
                 device_name: str, irq_dst: Coord,
                 tlb: Optional[Tlb] = None,
                 private_cache_words: Optional[int] = None) -> None:
        self.env = env
        self.mesh = mesh
        self.coord = coord
        self.spec = spec
        self.device_name = device_name
        self.irq_dst = irq_dst
        self.regs = RegisterFile(coord, user_registers=[N_FRAMES_REG])
        self.dma = DmaEngine(env, mesh, coord, memory_map, tlb=tlb,
                             word_bits=spec.word_bits,
                             max_burst_words=max(spec.input_words,
                                                 spec.output_words),
                             private_cache_words=private_cache_words)
        self.dma.owner = device_name
        self._start = Semaphore(env, name=f"start:{device_name}")
        self.regs.on_write(self._on_reg_write)

        # Accounting.
        self.invocations: List[InvocationResult] = []
        self.frames_processed = 0
        self.busy_cycles = 0
        self.resets = 0
        self.kernel_crashes = 0

        # Fault hook (None = fault-free, zero overhead) and the reset
        # line the host pulls through CMD_RESET to abort a wedged run.
        self.fault_injector = None
        self._abort: Optional[Event] = None

        env.process(self._io_server(), name=f"io-server:{device_name}")
        env.process(self._run_loop(), name=f"run-loop:{device_name}")

    # -- NoC-facing ----------------------------------------------------------

    def _io_server(self):
        """Serve register accesses arriving on the IO plane."""
        inbox = self.mesh.inbox(self.coord, IO_PLANE)
        while True:
            packet = yield inbox.get()
            access = packet.payload
            if isinstance(access, RegWrite):
                self.regs.write(access.name, access.value)
            elif isinstance(access, RegRead):
                self.mesh.send(Packet(
                    src=self.coord, dst=access.reply_to, plane=IO_PLANE,
                    kind=MessageKind.REG_ACCESS, payload_flits=1,
                    payload=RegReadReply(access.name,
                                         self.regs.read(access.name),
                                         access.tag),
                    tag=access.tag))
            else:
                raise TypeError(
                    f"tile {self.coord} got unexpected IO payload "
                    f"{access!r}")

    def _on_reg_write(self, name: str, value: int) -> None:
        if name == CMD_REG and value == CMD_START:
            self._start.post()
        elif name == CMD_REG and value == CMD_RESET:
            self.host_reset()

    def _instant(self, name: str, cat: str, **args) -> None:
        """A socket event on the tile's trace row (no-op untraced)."""
        if self.env.tracer is not None:
            self.env.tracer.instant(self.device_name, "socket", name, cat,
                                    **args)

    def _raise_irq(self) -> None:
        if self.env.tracer is not None:
            self._instant("irq", "acc.irq", status=self.status)
        self.mesh.send(Packet(
            src=self.coord, dst=self.irq_dst, plane=IO_PLANE,
            kind=MessageKind.IRQ, payload_flits=0,
            payload=self.device_name, tag=self.device_name))

    # -- execution -------------------------------------------------------------

    def _snapshot_config(self) -> InvocationConfig:
        regs = self.regs
        read = regs.read
        return InvocationConfig(
            src_offset=read(SRC_OFFSET_REG),
            dst_offset=read(DST_OFFSET_REG),
            n_frames=max(1, read(N_FRAMES_REG)),
            p2p=regs.p2p_config(),
            src_stride=read(SRC_STRIDE_REG),
            dst_stride=read(DST_STRIDE_REG),
            coherence=CoherenceMode.from_register(read(COHERENCE_REG)),
            clock_divider=min(MAX_DVFS_DIVIDER, max(1, read(DVFS_REG))),
        )

    def host_reset(self) -> None:
        """Abort the in-flight invocation and return the socket to idle.

        The hardware effect of writing ``CMD_RESET`` to ``CMD_REG``:
        the running kernel (hung or not) is abandoned, the socket DMA
        queues are flushed, pending start pulses are cleared, and
        ``STATUS_REG`` returns to idle so the driver can reprogram and
        restart the tile.
        """
        self.resets += 1
        self._start._value = 0   # clear start pulses posted while wedged
        if self._abort is not None and not self._abort.triggered:
            # Busy: pull the reset line; the run loop does the cleanup.
            self._abort.succeed()
        else:
            # Idle (or between invocations): clean up directly.
            self.dma.reset()
            self.regs._values[CMD_REG] = 0
            self.regs._values["STATUS_REG"] = STATUS_IDLE

    def _invocation_body(self, config: InvocationConfig, fault):
        """One wrapper run, possibly perturbed by an injected fault."""
        if fault is not None:
            if fault[0] == "hang":
                forever = self.env.event()
                forever.wait_reason = (f"injected kernel hang in "
                                       f"{self.device_name!r}")
                yield forever
            if fault[0] == "crash":
                yield self.env.timeout(1)
                raise KernelCrash(self.device_name)
            if fault[0] == "slow":
                # A latency spike: the kernel limps along as if the
                # tile clock were divided down by the spike factor.
                divider = min(MAX_DVFS_DIVIDER, max(
                    config.clock_divider + 1,
                    int(config.clock_divider * fault[1])))
                config = replace(config, clock_divider=divider)
        wrapper = wrapper_process_double_buffered \
            if self.spec.double_buffered else wrapper_process
        result = yield self.env.process(
            wrapper(self.env, self.spec, self.dma, config, self.memo),
            name=f"wrapper:{self.device_name}")
        return result

    def _run_loop(self):
        """Idle -> start command -> wrapper run -> IRQ, forever.

        Each invocation runs as a child process raced against the
        socket's reset line, so a host CMD_RESET can abandon a hung or
        misbehaving kernel; a kernel crash is caught here and surfaces
        as a completion IRQ with ``STATUS_ERROR``.
        """
        env = self.env
        while True:
            yield self._start.wait()
            self.regs._values[CMD_REG] = 0
            self.regs._values["STATUS_REG"] = STATUS_RUNNING
            # Heartbeat: starting counts as progress, so a tile that sat
            # idle for a long time (a freshly activated spare) is not
            # instantly "stalled" on its first invocation — quiet time
            # is measured from the start, not from whenever the tile
            # last did work.
            self.dma.last_progress = env.now
            config = self._snapshot_config()
            fault = None
            if self.fault_injector is not None:
                fault = self.fault_injector.acc_fault(self.device_name,
                                                      env.now)
            work = env.process(self._invocation_body(config, fault),
                               name=f"invocation:{self.device_name}")
            self._abort = env.event()
            abort = self._abort
            try:
                yield env.any_of([work, abort])
            except KernelCrash:
                self._abort = None
                self.kernel_crashes += 1
                self.regs._values["STATUS_REG"] = STATUS_ERROR
                self._instant("kernel-crash", "acc.crash")
                self._raise_irq()
                continue
            self._abort = None
            if not work.triggered:
                # Reset won the race: abandon the invocation. The
                # zombie work process is defused so a late failure
                # cannot crash the simulation.
                work.__sim_defused__ = True
                self.dma.reset()
                self.regs._values[CMD_REG] = 0
                self.regs._values["STATUS_REG"] = STATUS_IDLE
                self._instant("host-reset", "acc.abort")
                continue
            result = work.value
            if env.tracer is not None:
                env.tracer.complete(
                    self.device_name, "socket", self.spec.name,
                    "acc.invocation", result.start_cycle,
                    result.end_cycle, device=self.device_name,
                    frames=result.frames)
            self.invocations.append(result)
            self.frames_processed += result.frames
            self.busy_cycles += result.cycles
            self.dma.last_progress = env.now
            self.regs._values["STATUS_REG"] = STATUS_DONE
            self._raise_irq()

    # -- reporting ----------------------------------------------------------------

    @property
    def status(self) -> int:
        return self.regs.read("STATUS_REG")

    def utilization(self, elapsed: Optional[int] = None) -> float:
        span = elapsed if elapsed is not None else self.env.now
        return self.busy_cycles / span if span else 0.0

    def __repr__(self) -> str:
        return (f"<AcceleratorTile {self.device_name!r} at {self.coord} "
                f"spec={self.spec.name!r}>")
