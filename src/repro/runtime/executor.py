"""The runtime executor: dataflow -> running accelerator pipeline.

This is the paper's contribution 3 (Sec. V): "a runtime system on top
of Linux that takes this dataflow and translates it into a pipeline of
accelerators that are dynamically configured, managed, and kept
synchronized as they access shared data ... fully transparent to the
application programmer."

Execution modes (base/pipe/p2p are the bars of Fig. 7; ``custom``
honours each edge's own transport):

- ``base``: the accelerators are "invoked serially in a single-thread
  application"; every invocation is one frame; all data through DRAM.
- ``pipe``: "concurrent executions in a reconfigurable pipeline, as
  the accelerators are invoked with a multi-threaded application (one
  thread per accelerator)"; per-frame dependencies "enforced with
  pthread primitives"; data still through DRAM.
- ``p2p``: the same pipeline "adds the ESP4ML p2p communication":
  one *streaming* invocation per accelerator covering all frames;
  synchronization moves into hardware, software overhead drops to "the
  ioctl system calls that are used to start the accelerators".

``pipe`` is a preset of the ``custom`` driver: the plan marks no edge
p2p, so every frame synchronizes in software and moves through DRAM.
``p2p`` keeps its own driver although it is ``custom`` with every edge
p2p: it issues one streaming invocation per device over ``n_frames``
frames with strides, where ``custom`` invokes once per frame. Folding
it in would multiply the ioctl count and change the very cycle counts
its Fig. 7 bar measures.

Both entry points share one run path, :meth:`DataflowExecutor._drive`:
the mode's driver, its recovery (a dead p2p stream degrades to a
``pipe`` re-run) and its teardown. ``execute`` runs it as its ``main``
process and owns the event loop; ``run_process`` yields from it inside
a serving process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np

from ..faults import NodeFailed, RecoveryPolicy
from ..sim import Event, Interrupt, Process, ProgressCounter
from ..sim.kernel import PENDING
from ..soc import (
    CMD_REG,
    CMD_RESET,
    CMD_START,
    COHERENCE_REG,
    CoherenceMode,
    DVFS_REG,
    DST_OFFSET_REG,
    DST_STRIDE_REG,
    N_FRAMES_REG,
    P2PConfig,
    P2P_REG,
    SRC_OFFSET_REG,
    SRC_STRIDE_REG,
    STATUS_DONE,
    STATUS_REG,
    SoCInstance,
    fill_memo,
    run_memo,
)
from .alloc import Buffer, ContigAllocator
from .dataflow import Dataflow, EXECUTION_MODES
from .driver import DeviceRegistry, EspDevice


# Software overheads on the RISC-V core, in cycles at SoC clock.
IOCTL_CYCLES = 600          # syscall entry/exit + driver work
REG_WRITE_CYCLES = 10       # uncached MMIO store issue
THREAD_SPAWN_CYCLES = 150   # pthread_create
SYNC_CYCLES = 40            # semaphore wait/post pair
#: CPU execution cost of a kernel, as a multiple of the accelerator's
#: latency (Table 1 of the paper measures SW/HW gaps of one to three
#: orders of magnitude; 40x is a conservative mid-range value).
SOFTWARE_SLOWDOWN = 40.0


class RegisterStores(Event):
    """The driver's register-programming sequence: an event, not a
    generator.

    The driver issues each posted store ``REG_WRITE_CYCLES`` after the
    previous one was delivered, and the sequence succeeds when the last
    store reaches the tile. One step event, built with the sequence and
    re-armed for every gap, sends the next store when it is dispatched
    (:meth:`ProcessorTile.write_reg`), and the same callback rides each
    store's delivery event. At the last delivery the sequence resumes
    its waiters inline, inside that dispatch; a store that raises is
    thrown into them the same way. So the sequence itself is never
    dispatched: a store over ``h`` hops dispatches ``2h + 6`` events
    (the step, the packet's ``2h + 4`` and the tile's inbox get) at the
    cycles and in the order of the generator it replaces, which resumed
    the driver thread after each of them.

    The sequence runs only while something waits on it: a waiter
    interrupted mid-sequence (an aborted plan) lets the stores already
    sent land and sends no further one, as the closed generator did.
    """

    __slots__ = ("cpu", "coord", "writes", "sent", "last", "step", "calls")

    def __init__(self, cpu, coord, writes) -> None:
        # The Event fields are assigned directly, as Timeout does: one
        # sequence is built per invocation.
        env = cpu.env
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self.cpu = cpu
        self.coord = coord
        self.writes = writes
        self.sent = 0
        self.last = len(writes)
        self.calls = [self._advance]
        step = self.step = Event(env)
        step._value = None
        step.callbacks = self.calls
        env._schedule(step, REG_WRITE_CYCLES)

    def _advance(self, event: Event) -> None:
        """The step event or a store's delivery was dispatched."""
        if not self.callbacks:
            # The waiter is gone: stop before the next store.
            self.step = self.calls = None
            return
        step = self.step
        if event is step:
            reg, value = self.writes[self.sent]
            self.sent += 1
            try:
                delivery = self.cpu.write_reg(self.coord, reg, value)
            except Exception as exc:
                self._resume(False, exc)
                return
            delivery.callbacks.append(self.calls[0])
        elif self.sent < self.last:
            step.callbacks = self.calls
            self.env._schedule(step, REG_WRITE_CYCLES)
        else:
            self._resume(True, None)

    def _resume(self, ok: bool, value) -> None:
        """Trigger the sequence and run its waiters now, as the kernel
        runs a dispatched event's callbacks. Dropping the step event
        and the callback list, which refer back to the sequence, lets
        reference counting free it."""
        self.step = self.calls = None
        self._ok = ok
        self._value = value
        callbacks = self.callbacks
        self.callbacks = None
        for callback in callbacks:
            callback(self)


@dataclass
class NodePlan:
    """One device's role in the planned execution."""

    device: EspDevice
    level: int
    index: int            # position among its level's siblings
    siblings: int         # number of devices at this level
    n_frames: int         # frames this instance processes
    #: The device's name, read by every driver step and span.
    name: str = field(init=False)

    def __post_init__(self) -> None:
        self.name = self.device.name

    @property
    def spec(self):
        return self.device.tile.spec


@dataclass
class ExecutionPlan:
    """Buffers and per-node assignments for one esp_run call.

    Plans are self-contained so several can be in flight concurrently
    on one SoC (the serving layer interleaves plans over disjoint tile
    sets): pipeline threads and runtime-overhead counts live on the
    plan, not on the executor, and the buffers the plan allocated can
    be released as a unit when it completes.
    """

    dataflow: Dataflow
    mode: str
    n_frames: int
    levels: List[List[NodePlan]]
    input_buffer: Buffer
    output_buffer: Buffer
    inter_buffers: List[Optional[Buffer]]   # one per level boundary
    #: (producer, consumer) pairs whose data moves over p2p: every edge
    #: under ``p2p``, the ``comm == "p2p"`` edges under ``custom`` and
    #: none under ``base``/``pipe``.
    p2p_edges: FrozenSet[Tuple[str, str]] = frozenset()
    #: Per-device DMA coherence mode; devices not in the mapping run
    #: non-coherent (the seed behaviour).
    coherence: Dict[str, CoherenceMode] = field(default_factory=dict)
    dvfs: Dict[str, int] = field(default_factory=dict)  # device -> divider
    #: Pipeline threads spawned for this plan (plan-local so concurrent
    #: plans never clobber each other's thread lists).
    threads: List[Process] = field(default_factory=list)
    #: Runtime accounting, per plan so concurrent plans never mix
    #: their counts (a degraded re-run carries the aborted plan's
    #: forward); the ``runtime_*`` families hold since-boot totals.
    counts: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(
        ("ioctl_calls", "retries", "watchdog_timeouts", "software_frames"),
        0))
    #: First unrecoverable error a pipeline thread hit. Threads record
    #: it here (and trigger ``abort``) instead of crashing the global
    #: event loop, so a failure inside one plan stays observable by
    #: that plan's main alone — a second plan sharing the SoC keeps
    #: running.
    failure: Optional[BaseException] = None
    abort: Optional[Event] = None

    def mode_for(self, name: str) -> CoherenceMode:
        return self.coherence.get(name, CoherenceMode.NON_COHERENT)

    @property
    def device_names(self) -> List[str]:
        return [node.name for level in self.levels for node in level]

    @property
    def buffers(self) -> List[Buffer]:
        """Every buffer this plan allocated (for pooled release)."""
        return [self.input_buffer, self.output_buffer] + \
            [b for b in self.inter_buffers if b is not None]


@dataclass
class RunResult:
    """Measured outcome of one esp_run call."""

    dataflow: str
    mode: str
    frames: int
    cycles: int
    clock_mhz: float
    dram_accesses: int
    ioctl_calls: int
    outputs: np.ndarray = field(repr=False)
    # Recovery accounting (all zero on a fault-free run).
    retries: int = 0
    watchdog_timeouts: int = 0
    software_frames: int = 0
    degraded: bool = False

    @property
    def seconds(self) -> float:
        return self.cycles / (self.clock_mhz * 1e6)

    @property
    def frames_per_second(self) -> float:
        return self.frames / self.seconds if self.seconds > 0 else 0.0

    def frames_per_joule(self, watts: float) -> float:
        if watts <= 0:
            raise ValueError(f"watts must be > 0, got {watts}")
        return self.frames_per_second / watts


class DataflowExecutor:
    """Plans and executes dataflows on a built SoC instance."""

    def __init__(self, soc: SoCInstance, registry: DeviceRegistry,
                 allocator: ContigAllocator,
                 recovery: Optional[RecoveryPolicy] = None) -> None:
        self.soc = soc
        self.registry = registry
        self.allocator = allocator
        #: ``None`` (the default) keeps the original fail-stop runtime:
        #: every wait is unbounded and the execution path is exactly the
        #: non-robust one (pay-for-what-you-use). A policy arms the
        #: per-invocation watchdog, bounded retry and software fallback.
        self.recovery = recovery
        #: Devices the control plane ordered onto the CPU fallback.
        #: Unlike a registry ``failed`` mark (the hardware's verdict),
        #: a forced device is a *policy* decision: invocations route
        #: straight to software without burning the watchdog ladder,
        #: and an in-flight watchdog wait is preempted immediately.
        self.forced_software: Set[str] = set()
        self._preempts: Dict[str, Event] = {}

    # -- planning ----------------------------------------------------------

    @staticmethod
    def _resolve_modes(dataflow: Dataflow,
                       coherence) -> Dict[str, CoherenceMode]:
        """Per-device coherence assignment for one plan.

        ``coherence`` may be a single mode (enum or string) applied to
        every device, or a mapping ``device -> mode`` for mixed-mode
        pipelines; call-level assignments overlay any modes the
        dataflow itself declares. Non-coherent devices are left out of
        the result so the default plan is empty (seed behaviour).
        """
        modes: Dict[str, CoherenceMode] = {
            device: CoherenceMode.coerce(value)
            for device, value in dataflow.coherence.items()}
        if isinstance(coherence, dict):
            overlay = coherence
        elif coherence is None:
            overlay = {}
        else:
            overlay = dict.fromkeys(dataflow.devices, coherence)
        for device, value in overlay.items():
            if device not in dataflow.devices:
                raise ValueError(
                    f"coherence mode given for {device!r}, which is "
                    f"not in the dataflow")
            modes[device] = CoherenceMode.coerce(value)
        return {device: mode for device, mode in modes.items()
                if mode is not CoherenceMode.NON_COHERENT}

    def plan(self, dataflow: Dataflow, n_frames: int,
             mode: str, coherence=None,
             dvfs: Optional[Dict[str, int]] = None) -> ExecutionPlan:
        if mode not in EXECUTION_MODES:
            raise ValueError(
                f"mode must be one of {EXECUTION_MODES}, got {mode!r}")
        if n_frames < 1:
            raise ValueError(f"n_frames must be >= 1, got {n_frames}")
        dataflow.validate_for(mode)
        p2p_edges = frozenset(
            (e.src, e.dst) for e in dataflow.edges
            if mode == "p2p" or (mode == "custom" and e.comm == "p2p"))
        modes = self._resolve_modes(dataflow, coherence)
        dvfs = dict(dvfs or {})
        for device, divider in dvfs.items():
            if device not in dataflow.devices:
                raise ValueError(
                    f"DVFS divider given for {device!r}, which is not in "
                    f"the dataflow")
            if divider < 1:
                raise ValueError(
                    f"DVFS divider for {device!r} must be >= 1")

        level_names = dataflow.levels()
        levels: List[List[NodePlan]] = []
        for level_idx, names in enumerate(level_names):
            siblings = len(names)
            if n_frames % siblings:
                raise ValueError(
                    f"{n_frames} frames do not split evenly over the "
                    f"{siblings} devices of level {level_idx}")
            row = []
            for index, name in enumerate(names):
                device = self.registry.by_name(name)
                row.append(NodePlan(device=device, level=level_idx,
                                    index=index, siblings=siblings,
                                    n_frames=n_frames // siblings))
            levels.append(row)

        self._check_geometry(levels)

        in_words = levels[0][0].spec.input_words
        out_words = levels[-1][0].spec.output_words
        input_buffer = self.allocator.alloc(n_frames * in_words,
                                            label=f"{dataflow.name}:in")
        output_buffer = self.allocator.alloc(n_frames * out_words,
                                             label=f"{dataflow.name}:out")
        inter_buffers: List[Optional[Buffer]] = []
        for boundary in range(len(levels) - 1):
            consumers = {n.name for n in levels[boundary + 1]}
            if all((e.src, e.dst) in p2p_edges for e in dataflow.edges
                   if e.dst in consumers):
                inter_buffers.append(None)   # data never touches DRAM
            else:
                words = levels[boundary][0].spec.output_words
                inter_buffers.append(self.allocator.alloc(
                    n_frames * words,
                    label=f"{dataflow.name}:l{boundary}"))
        plan = ExecutionPlan(dataflow=dataflow, mode=mode,
                             n_frames=n_frames, levels=levels,
                             input_buffer=input_buffer,
                             output_buffer=output_buffer,
                             inter_buffers=inter_buffers,
                             p2p_edges=p2p_edges,
                             coherence=modes,
                             dvfs=dvfs,
                             abort=self.soc.env.event())
        tracer = self.soc.env.tracer
        if tracer is not None:
            for buffer in plan.buffers:
                tracer.instant("cpu", "alloc", buffer.label or "buffer",
                               "runtime.alloc", offset=buffer.offset,
                               words=buffer.words)
        return plan

    @staticmethod
    def _check_geometry(levels: List[List[NodePlan]]) -> None:
        for row in levels:
            in_sizes = {n.spec.input_words for n in row}
            out_sizes = {n.spec.output_words for n in row}
            if len(in_sizes) > 1 or len(out_sizes) > 1:
                raise ValueError(
                    f"devices at level {row[0].level} disagree on frame "
                    f"geometry: in={in_sizes}, out={out_sizes}")
        for upper, lower in zip(levels, levels[1:]):
            if upper[0].spec.output_words != lower[0].spec.input_words:
                raise ValueError(
                    f"level {upper[0].level} outputs "
                    f"{upper[0].spec.output_words} words but level "
                    f"{lower[0].level} expects "
                    f"{lower[0].spec.input_words}")

    # -- the layer's instrumentation sites -----------------------------------

    def _step(self, driver: str, name: str, cat: str, body, close=None,
              **args):
        """One step of ``driver``'s thread: ``body`` inside its span.

        The runtime's one span site, shaped like ``DmaEngine._op``.
        ``body`` is a generator, or a one-event tuple for a plain delay
        or a :class:`RegisterStores` sequence (``yield from`` passes the
        event's ``None`` through a tuple iterator: no generator).
        Untraced, ``body`` is returned as is; traced,
        :meth:`Tracer.drive` ends the span when ``body`` returns
        (``close`` maps its result to closing args) or raises.
        """
        tracer = self.soc.env.tracer
        if tracer is None:
            return body
        return tracer.drive(tracer.begin(
            "cpu", f"driver:{driver}", name, cat, **args), body, close)

    def _count(self, plan: ExecutionPlan, outcome: str) -> None:
        """Count one recovery outcome in its ``runtime_*`` family: the
        runtime's one counting site.

        ``retries`` and ``watchdog_timeouts`` count on the plan too;
        ``degraded_runs`` shows as ``RunResult.degraded`` instead.
        """
        if outcome in plan.counts:
            plan.counts[outcome] += 1
        metrics = self.soc.env.metrics
        if metrics is not None:
            getattr(metrics, outcome).inc()

    # -- driver-level invocation --------------------------------------------

    def _ioctl(self, plan: ExecutionPlan, node: NodePlan):
        """The system call that opens every invocation."""
        plan.counts["ioctl_calls"] += 1
        return self._step(node.name, "ioctl", "runtime.ioctl",
                          (self.soc.env.timeout(IOCTL_CYCLES),),
                          device=node.name)

    def _program_and_start(self, node: NodePlan, src_offset: int,
                           dst_offset: int, n_frames: int, p2p: P2PConfig,
                           src_stride: int, dst_stride: int,
                           coherence: CoherenceMode, divider: int):
        """The driver's register-programming sequence, ending CMD_START."""
        writes = (
            (SRC_OFFSET_REG, src_offset),
            (DST_OFFSET_REG, dst_offset),
            (SRC_STRIDE_REG, src_stride),
            (DST_STRIDE_REG, dst_stride),
            (N_FRAMES_REG, n_frames),
            (P2P_REG, p2p.encode()),
            (COHERENCE_REG, coherence.register_value),
            (DVFS_REG, divider),
            (CMD_REG, CMD_START),
        )
        return self._step(node.name, "config", "runtime.config",
                          (RegisterStores(self.soc.cpu, node.device.coord,
                                          writes),),
                          device=node.name)

    def _invoke(self, plan: ExecutionPlan, node: NodePlan,
                src_offset: int, dst_offset: int,
                n_frames: int, p2p: P2PConfig, src_stride: int = 0,
                dst_stride: int = 0,
                coherence: CoherenceMode = CoherenceMode.NON_COHERENT,
                divider: int = 1):
        """Configure the device over the NoC, start it, await its IRQ."""
        yield from self._ioctl(plan, node)
        yield from self._program_and_start(
            node, src_offset, dst_offset, n_frames, p2p, src_stride,
            dst_stride, coherence, divider)
        yield from self._step(node.name, "wait-completion",
                              "runtime.irq_wait",
                              self.soc.cpu.wait_irq(node.name),
                              device=node.name)

    # -- control-plane override ---------------------------------------------

    def force_software(self, name: str) -> None:
        """Order ``name`` onto the CPU fallback until further notice.

        The control plane's escalation for a tile whose stall alert
        outlives the local retry budget: subsequent invocations skip
        the hardware entirely, and an invocation currently parked on
        the watchdog is preempted *now* instead of serving out the
        backed-off deadline. Requires a recovery policy with
        ``software_fallback`` (there is nothing to fall back to
        otherwise)."""
        if self.recovery is None or not self.recovery.software_fallback:
            raise RuntimeError(
                "force_software needs a recovery policy with "
                "software_fallback enabled")
        self.registry.by_name(name)   # raises on unknown devices
        self.forced_software.add(name)
        pending = self._preempts.get(name)
        if pending is not None and not pending.triggered:
            pending.succeed()

    def clear_forced(self, name: str) -> None:
        """Lift a :meth:`force_software` order (tile repaired)."""
        self.forced_software.discard(name)

    def _await_completion(self, node: NodePlan, watchdog_cycles: int):
        """IRQ race against the watchdog; True when the IRQ arrived.

        On timeout the pending IRQ getter is withdrawn so a late
        interrupt parks in the queue (drained before the next attempt)
        instead of resuming a waiter that gave up. A
        :meth:`force_software` order for the device resolves the race
        immediately (not counted as a timeout by the caller)."""
        env = self.soc.env
        cpu = self.soc.cpu
        irq = cpu.irq_event(node.name)
        preempt = env.event()
        preempt.wait_reason = f"force-software preempt for {node.name}"
        self._preempts[node.name] = preempt
        yield env.any_of([irq, env.timeout(watchdog_cycles), preempt])
        if self._preempts.get(node.name) is preempt:
            del self._preempts[node.name]
        if irq.triggered:
            return True
        cpu.cancel_irq(node.name, irq)
        return False

    def _invoke_guarded(self, plan: ExecutionPlan, node: NodePlan,
                        src_offset: int,
                        dst_offset: int, n_frames: int, p2p: P2PConfig,
                        src_stride: int, dst_stride: int,
                        coherence: CoherenceMode,
                        divider: int, max_attempts: int):
        """Watchdogged invocation with bounded retry; True on success.

        Each attempt programs and starts the device, then races its
        completion IRQ against ``recovery.watchdog_for(attempt)`` (the
        exponential backoff stretches the window for a slow but live
        device). A missed watchdog or a completion whose STATUS_REG is
        not DONE (kernel crash, lost packet) triggers a hardware
        CMD_RESET of the socket before the next attempt.
        """
        env = self.soc.env
        cpu = self.soc.cpu
        coord = node.device.coord
        policy = self.recovery
        yield from self._ioctl(plan, node)
        for attempt in range(max_attempts):
            if node.name in self.forced_software:
                # The control plane ordered this device onto the CPU
                # mid-retry: stop burning the watchdog ladder.
                return False
            if attempt:
                self._count(plan, "retries")
            # Drain interrupts a previous (abandoned) attempt left over.
            while cpu.try_irq(node.name) is not None:
                pass
            yield from self._program_and_start(
                node, src_offset, dst_offset, n_frames, p2p, src_stride,
                dst_stride, coherence, divider)
            arrived = yield from self._step(
                node.name, "wait-completion", "runtime.irq_wait",
                self._await_completion(node, policy.watchdog_for(attempt)),
                lambda arrived: {"arrived": arrived}, device=node.name,
                attempt=attempt)
            if arrived:
                status = yield from cpu.read_reg_bounded(
                    coord, STATUS_REG, policy.watchdog_cycles)
                if status == STATUS_DONE:
                    return True
            elif node.name not in self.forced_software:
                # A force_software preemption is no watchdog verdict.
                self._count(plan, "watchdog_timeouts")
            # Recover the socket: abort whatever is (not) running.
            yield RegisterStores(cpu, coord, ((CMD_REG, CMD_RESET),))
            yield env.timeout(policy.reset_cycles)
        return False

    def _software_node(self, plan: ExecutionPlan, node: NodePlan,
                       src_offset: int,
                       dst_offset: int, n_frames: int,
                       src_stride: int = 0, dst_stride: int = 0):
        """Graceful degradation: run the node's kernel on the CPU.

        Bit-exact with the accelerator (same NumPy kernel), but each
        frame costs ``latency_cycles * SOFTWARE_SLOWDOWN`` — the
        scalar-core penalty the paper's accelerators exist to avoid.
        The compute delay also quiesces in-flight posted stores from
        upstream accelerators before the CPU-side read.
        """
        env = self.soc.env
        spec = node.spec
        memory = self.soc.memory_map
        src_step = src_stride or spec.input_words
        dst_step = dst_stride or spec.output_words
        cost = max(1, int(spec.latency_cycles * SOFTWARE_SLOWDOWN))
        for index in range(n_frames):
            yield env.timeout(cost)
            frame = memory.read_words(src_offset + index * src_step,
                                      spec.input_words)
            memory.write_words(dst_offset + index * dst_step,
                               spec.run(frame))
            plan.counts["software_frames"] += 1

    def _run_node(self, plan: ExecutionPlan, node: NodePlan,
                  src_offset: int, dst_offset: int, n_frames: int,
                  p2p: P2PConfig, src_stride: int = 0,
                  dst_stride: int = 0):
        """Dispatch one node invocation through the recovery policy.

        Without a policy this is exactly the original `_invoke` path.
        With one: a device already marked failed goes straight to the
        software fallback; otherwise the guarded invocation runs, and
        on permanent failure the device is marked failed and either
        falls back to software (DMA transports — the data is in DRAM)
        or raises :class:`NodeFailed` (p2p transports — the stream's
        alignment with its peers is unrecoverable, the whole run must
        degrade).
        """
        divider = plan.dvfs.get(node.name, 1)
        node_mode = plan.mode_for(node.name)
        if self.recovery is None:
            yield from self._invoke(
                plan, node, src_offset, dst_offset, n_frames, p2p,
                src_stride=src_stride, dst_stride=dst_stride,
                coherence=node_mode, divider=divider)
            return
        policy = self.recovery
        streaming = p2p.uses_p2p
        if self.registry.is_failed(node.name) \
                or node.name in self.forced_software:
            reason = ("device marked failed; a p2p stream cannot be "
                      "serviced in software")
        else:
            # Retrying a p2p stream would desynchronize it from its
            # peers (they hold partial progress): one attempt.
            attempts = 1 if streaming else policy.max_retries + 1
            ok = yield from self._invoke_guarded(
                plan, node, src_offset, dst_offset, n_frames, p2p,
                src_stride, dst_stride, node_mode, divider, attempts)
            if ok:
                return
            if node.name in self.forced_software:
                # A control-plane order, not a hardware verdict: route
                # to software without branding the device failed.
                reason = "forced to software mid-stream"
            else:
                self.registry.mark_failed(node.name)
                reason = "watchdog expired mid-stream"
                if not streaming and not policy.software_fallback:
                    raise NodeFailed(node.name, "retries exhausted and "
                                     "software fallback disabled")
        if streaming:
            raise NodeFailed(node.name, reason)
        yield from self._step(
            node.name, "software-fallback", "runtime.software",
            self._software_node(plan, node, src_offset, dst_offset,
                                n_frames, src_stride, dst_stride),
            device=node.name, frames=n_frames)

    def _thread_guard(self, plan: ExecutionPlan, body):
        """Contain a pipeline thread's failure inside its plan.

        An unhandled exception in a bare thread process would crash the
        whole event loop — fatal when several plans share the SoC. The
        guard records the first failure on the plan and triggers its
        ``abort`` event; the plan's main observes it and re-raises, so
        the error surfaces exactly where the plan is being driven.
        """
        try:
            yield from body
        except Interrupt:
            raise    # plan aborted from outside; die quietly (defused)
        except Exception as exc:
            if plan.failure is None:
                plan.failure = exc
                if not plan.abort.triggered:
                    plan.abort.succeed(exc)

    def _spawn_threads(self, plan: ExecutionPlan, make_body):
        """Stagger-spawn one guarded thread per node; then await them.

        ``make_body`` maps a :class:`NodePlan` to the thread generator.
        Stops early if a freshly spawned thread already failed (e.g. a
        p2p stream on a device marked failed raises immediately).
        """
        env = self.soc.env
        for row in plan.levels:
            for node in row:
                yield from self._step(
                    node.name, "pthread-create", "runtime.spawn",
                    (env.timeout(THREAD_SPAWN_CYCLES),),
                    device=node.name)
                if plan.failure is not None:
                    raise plan.failure
                plan.threads.append(env.process(
                    self._thread_guard(plan, make_body(node)),
                    name=f"{plan.mode}-thread:{node.name}"))
        yield env.any_of([env.all_of(plan.threads), plan.abort])
        if plan.failure is not None:
            raise plan.failure

    # -- address helpers -------------------------------------------------------

    @staticmethod
    def _frame_addr(buffer: Buffer, frame: int, words: int) -> int:
        return buffer.offset + frame * words

    def _src_buffer(self, plan: ExecutionPlan, level: int) -> Buffer:
        return plan.input_buffer if level == 0 \
            else plan.inter_buffers[level - 1]

    def _dst_buffer(self, plan: ExecutionPlan, level: int) -> Buffer:
        last = len(plan.levels) - 1
        return plan.output_buffer if level == last \
            else plan.inter_buffers[level]

    # -- base mode ----------------------------------------------------------------

    def _base_main(self, plan: ExecutionPlan):
        no_p2p = P2PConfig()
        for frame in range(plan.n_frames):
            for level_idx, row in enumerate(plan.levels):
                node = row[frame % len(row)]
                spec = node.spec
                src = self._frame_addr(self._src_buffer(plan, level_idx),
                                       frame, spec.input_words)
                dst = self._frame_addr(self._dst_buffer(plan, level_idx),
                                       frame, spec.output_words)
                yield from self._run_node(plan, node, src, dst, 1,
                                          no_p2p)

    # -- custom mode (per-edge communication; ``pipe`` is its preset) -------------

    def _custom_thread(self, plan: ExecutionPlan, node: NodePlan,
                       counters: Dict[str, ProgressCounter]):
        """Per-frame invocations with each edge's own transport.

        DMA edges synchronize in software and move each frame through
        DRAM; p2p edges rely on the hardware handshake and reprogram
        ``P2P_REG`` every invocation with that frame's single source —
        the "dynamically configured" per-invocation choice of Sec. V.
        Under ``pipe`` no edge is p2p, so every frame takes the DMA
        path.
        """
        p2p_edges = plan.p2p_edges
        spec = node.spec
        last = len(plan.levels) - 1
        for local in range(node.n_frames):
            frame = node.index + local * node.siblings
            load_p2p = store_p2p = False
            sources: Tuple[Tuple[int, int], ...] = ()
            if node.level > 0:
                producers = plan.levels[node.level - 1]
                producer = producers[frame % len(producers)]
                load_p2p = (producer.name, node.name) in p2p_edges
                if load_p2p:
                    sources = (producer.device.coord,)
                else:
                    needed = (frame - producer.index) \
                        // producer.siblings + 1
                    yield from self._step(
                        node.name, "frame-sync", "runtime.sync",
                        self._sync(counters[producer.name], needed),
                        producer=producer.name, frame=frame)
            if node.level < last:
                consumers = plan.levels[node.level + 1]
                consumer = consumers[frame % len(consumers)]
                store_p2p = (node.name, consumer.name) in p2p_edges
            src = 0 if load_p2p else self._frame_addr(
                self._src_buffer(plan, node.level), frame, spec.input_words)
            dst = 0 if store_p2p else self._frame_addr(
                self._dst_buffer(plan, node.level), frame,
                spec.output_words)
            p2p = P2PConfig(store_enabled=store_p2p,
                            load_enabled=load_p2p, sources=sources)
            yield from self._run_node(plan, node, src, dst, 1, p2p)
            counters[node.name].increment()

    def _sync(self, counter: ProgressCounter, needed: int):
        """Semaphore wait until the producer finished frame ``needed``."""
        yield self.soc.env.timeout(SYNC_CYCLES)
        yield counter.wait_until(needed)

    def _custom_main(self, plan: ExecutionPlan):
        env = self.soc.env
        counters = {node.name: ProgressCounter(env, name=f"done:{node.name}")
                    for row in plan.levels for node in row}
        yield from self._spawn_threads(
            plan, lambda node: self._custom_thread(plan, node, counters))

    # -- p2p mode ------------------------------------------------------------------

    def _p2p_thread(self, plan: ExecutionPlan, node: NodePlan):
        spec = node.spec
        last = len(plan.levels) - 1
        load_p2p = node.level > 0
        store_p2p = node.level < last

        src_offset = src_stride = 0
        if not load_p2p:
            src_offset = plan.input_buffer.offset \
                + node.index * spec.input_words
            src_stride = node.siblings * spec.input_words
        dst_offset = dst_stride = 0
        if not store_p2p:
            dst_offset = plan.output_buffer.offset \
                + node.index * spec.output_words
            dst_stride = node.siblings * spec.output_words

        sources: Tuple[Tuple[int, int], ...] = ()
        if load_p2p:
            rotation = plan.dataflow.source_rotation(node.name)
            sources = tuple(self.registry.coords_for(name)
                            for name in rotation)
        p2p = P2PConfig(store_enabled=store_p2p, load_enabled=load_p2p,
                        sources=sources)
        yield from self._run_node(plan, node, src_offset, dst_offset,
                                  node.n_frames, p2p,
                                  src_stride=src_stride,
                                  dst_stride=dst_stride)

    def _p2p_main(self, plan: ExecutionPlan):
        yield from self._spawn_threads(
            plan, lambda node: self._p2p_thread(plan, node))

    #: One driver per mode. ``pipe`` is a preset of ``custom``: its plan
    #: marks no edge p2p.
    _DRIVERS = {"base": _base_main, "pipe": _custom_main,
                "p2p": _p2p_main, "custom": _custom_main}

    # -- entry point --------------------------------------------------------------------

    def _prepare(self, dataflow: Dataflow, frames: np.ndarray, mode: str,
                 coherence, dvfs: Optional[Dict[str, int]]):
        """Shared front half of :meth:`execute` and :meth:`run_process`.

        Coerces ``frames`` to N x words, plans the run and writes the
        input buffer; returns ``(frames, plan)``. A frame width the
        level-0 devices do not take releases the plan before raising,
        so a rejected call leaks no buffer.
        """
        frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
        plan = self.plan(dataflow, len(frames), mode, coherence=coherence,
                         dvfs=dvfs)
        in_words = plan.levels[0][0].spec.input_words
        if frames.shape[1] != in_words:
            self.release_plan(plan)
            raise ValueError(
                f"input frames have {frames.shape[1]} words; level-0 "
                f"devices expect {in_words}")
        plan.input_buffer.write(frames.reshape(-1))
        return frames, plan

    def _close_run(self, mode: str, plan: ExecutionPlan, start: int,
                   degraded: bool) -> int:
        """Cycles since ``start``; records the run's trace span."""
        env = self.soc.env
        if env.tracer is not None:
            env.tracer.complete(
                "cpu", "main", f"{mode}:{plan.dataflow.name}",
                "runtime.run", start, env.now, frames=plan.n_frames,
                degraded=degraded)
        return env.now - start

    def _result(self, mode: str, plan: ExecutionPlan, cycles: int,
                dram_before: int, degraded: bool) -> RunResult:
        """The outcome of a finished plan, read once its stores landed.

        Runtime counters are the plan's own (a degraded re-run carries
        the aborted attempt's forward); ``dram_accesses`` is a global
        delta since ``dram_before``.
        """
        out_words = plan.levels[-1][0].spec.output_words
        outputs = plan.output_buffer.read().reshape(plan.n_frames,
                                                    out_words)
        return RunResult(
            dataflow=plan.dataflow.name,
            mode=mode,
            frames=plan.n_frames,
            cycles=cycles,
            clock_mhz=self.soc.clock_mhz,
            dram_accesses=self.soc.memory_map.total_accesses - dram_before,
            outputs=outputs,
            degraded=degraded,
            **plan.counts,
        )

    def execute(self, dataflow: Dataflow, frames: np.ndarray,
                mode: str, coherence=None,
                dvfs: Optional[Dict[str, int]] = None) -> RunResult:
        """Run the dataflow over ``frames`` (N x input_words).

        ``coherence`` selects the DMA coherence model — one
        :class:`CoherenceMode` (or its string value) for the whole run,
        or a ``device -> mode`` mapping so each accelerator picks its
        own. Cached modes require a memory tile with an LLC; without
        one the request silently behaves like non-coherent DMA, as in
        ESP where the fabric downgrades unsupported coherence
        requests.
        """
        frames, plan = self._prepare(dataflow, frames, mode, coherence,
                                     dvfs)
        env = self.soc.env
        dram_before = self.soc.memory_map.total_accesses
        start = env.now
        done = env.process(self._drive(plan, frames),
                           name=f"main:{mode}:{dataflow.name}")
        try:
            plan, degraded = env.run(until=done)
        except BaseException:
            # A failure inside main has already torn its plan down. A
            # DeadlockError is raised by env.run itself while main is
            # still parked: interrupt it into that teardown. Then drain
            # (in-flight IRQs land), and release in case the teardown's
            # quiesce wait never ended.
            done.interrupt("plan aborted")
            env.run()
            self._drain_stale_irqs(plan)
            self.release_plan(plan)
            raise
        cycles = self._close_run(mode, plan, start, degraded)
        # Drain the schedule: stores are posted, so the final write may
        # still be in the memory tile's request queue when the IRQ
        # lands. Dependent DMA traffic is ordered by that queue, but the
        # CPU-side result read below bypasses it, so quiesce first. The
        # tail is a few service cycles and is excluded from the timing.
        env.run()
        return self._result(mode, plan, cycles, dram_before, degraded)

    def _drive(self, plan: ExecutionPlan, frames: np.ndarray):
        """Run ``plan``'s driver with recovery and teardown; returns
        ``(plan, degraded)``, the plan whose output buffer holds the
        results. The one run path of :meth:`execute` and
        :meth:`run_process`.

        Before the driver starts, the plan's frames pass its kernels
        into the run's memo (:func:`~repro.soc.fill_memo`), which the
        plan's tiles hold until the run ends
        (:func:`~repro.soc.run_memo`). The degraded re-run of
        :meth:`_run_plan` finds its frames there.
        """
        tiles = [node.device.tile for row in plan.levels for node in row]
        with run_memo(tiles) as memo:
            fill_memo(memo, [[node.spec for node in row]
                             for row in plan.levels], frames)
            return (yield from self._run_plan(plan, frames))

    def _run_plan(self, plan: ExecutionPlan, frames: np.ndarray):
        """The driver of :meth:`_drive`, with recovery and teardown.

        Any failure (an :class:`Interrupt` too: the server cancelling
        the request) aborts the plan and releases its buffers before it
        propagates. A :class:`NodeFailed` under a policy with
        ``software_fallback`` degrades instead: a dead p2p stream cannot
        be patched in place (its peers hold partial progress), so after
        the teardown and a device reset the whole batch re-runs in
        ``pipe`` mode, where the device marked failed runs in software.
        The re-run carries the aborted attempt's accounting forward, so
        the result covers the whole request.
        """
        try:
            yield from self._DRIVERS[plan.mode](self, plan)
            return plan, False
        except Exception as exc:
            yield from self._abort_and_release(plan)
            policy = self.recovery
            if not isinstance(exc, NodeFailed) or policy is None \
                    or not policy.software_fallback:
                raise
        self._count(plan, "degraded_runs")
        yield self.soc.env.timeout(policy.reset_cycles)
        replan = self.plan(plan.dataflow, plan.n_frames, "pipe",
                           coherence=plan.coherence, dvfs=plan.dvfs)
        replan.input_buffer.write(frames.reshape(-1))
        replan.counts = dict(plan.counts)
        replan, _ = yield from self._run_plan(replan, frames)
        return replan, True

    # -- plan teardown ------------------------------------------------------------

    def _abort_plan(self, plan: ExecutionPlan) -> None:
        """Stop every thread and accelerator the plan still occupies.

        Surviving pipeline threads are interrupted (defused, so their
        deaths never crash the event loop); already-dead ones are
        defused in case their failure is still queued. Every tile of
        the plan gets a hardware reset, aborting in-flight kernels and
        flushing socket queues.
        """
        for thread in plan.threads:
            if thread.is_alive:
                thread.interrupt("plan aborted")
            else:
                thread.__sim_defused__ = True  # type: ignore[attr-defined]
        for row in plan.levels:
            for node in row:
                node.device.tile.host_reset()

    def _drain_stale_irqs(self, plan: ExecutionPlan) -> None:
        """Discard queued completion IRQs from the plan's devices."""
        cpu = self.soc.cpu
        for name in plan.device_names:
            while cpu.try_irq(name) is not None:
                pass

    def release_plan(self, plan: ExecutionPlan) -> None:
        """Return every buffer the plan allocated to the allocator.

        Idempotent (``free`` ignores already-freed buffers), so a
        failure path and a finally-style caller can both release.
        """
        for buffer in plan.buffers:
            self.allocator.free(buffer)

    def _quiesce_stores(self):
        """Wait (in-process) until posted stores have retired.

        The blocking ``execute`` path drains the whole schedule before
        reading outputs; a serving loop cannot (other plans are still
        running), so it waits only for the memory map's posted-store
        count to reach zero.
        """
        yield self.soc.memory_map.quiesce_event(self.soc.env)

    def _abort_and_release(self, plan: ExecutionPlan):
        """In-process teardown: abort, quiesce, then free the buffers.

        The quiesce between the abort and the release is load-bearing:
        the plan's posted stores must land before its addresses can be
        handed to the next plan, or a stale store could corrupt the
        successor's buffers.
        """
        self._abort_plan(plan)
        yield from self._quiesce_stores()
        self._drain_stale_irqs(plan)
        self.release_plan(plan)

    # -- re-entrant entry point (serving layer) -----------------------------------

    def run_process(self, dataflow: Dataflow, frames: np.ndarray,
                    mode: str, coherence=None,
                    dvfs: Optional[Dict[str, int]] = None):
        """Re-entrant ``execute``: a generator to run as a sim process.

        ``execute`` drives the event loop itself (``env.run``), so only
        one call can be outstanding — fine for the paper's single-app
        experiments, unusable for serving. ``run_process`` runs the
        same :meth:`_drive` inside the caller's process: several
        instances can be in flight concurrently over disjoint tile
        sets, interleaved by the kernel like any other processes.
        Returns a :class:`RunResult` built from the plan's own
        counters, and releases the plan's buffers.

        The one difference from the blocking path: output reads are
        gated on posted-store quiescence instead of a global schedule
        drain. ``dram_accesses`` is a global delta over the request's
        lifetime, best-effort when plans overlap (the per-tile monitors
        give exact per-plan numbers).
        """
        frames, plan = self._prepare(dataflow, frames, mode, coherence,
                                     dvfs)
        dram_before = self.soc.memory_map.total_accesses
        start = self.soc.env.now
        plan, degraded = yield from self._drive(plan, frames)
        cycles = self._close_run(mode, plan, start, degraded)
        # Posted stores: the final write may still be in flight when
        # the IRQ lands; wait for it to retire before the CPU-side
        # read below (the serving analogue of execute's global drain —
        # the tail is excluded from the timing, as there).
        yield from self._quiesce_stores()
        result = self._result(mode, plan, cycles, dram_before, degraded)
        self.release_plan(plan)
        return result
