"""The ESP accelerator wrapper for the Vivado HLS design flow.

Paper Sec. III: the wrapper's top-level function iterates LOAD ->
COMPUTE -> STORE over chunks (Fig. 4); LOAD unpacks data from the DMA
read port into the PLM, COMPUTE invokes the kernel (e.g. generated by
HLS4ML), STORE packs results to the DMA write port. Both LOAD and
STORE compute the virtual address and length of the current DMA
transaction from the loop index, the dataset size and the local buffer
size; runtime parameters (e.g. ``conf_size``) come from configuration
registers.

Here the wrapper is the simulation process executed by an accelerator
tile for one invocation. It is identical for DMA and p2p communication
— the p2p remapping happens inside the DMA engine, "completely
transparent to the accelerator". COMPUTE costs the kernel's cycles
whatever the data; its result may come from the run's memo of kernel
results evaluated ahead of the timing model, but only for a frame
whose delivered bytes are exactly the ones the memo holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..accelerators.base import AcceleratorSpec
from .coherence import CoherenceMode
from .dma import DmaEngine
from .registers import P2PConfig


@dataclass(frozen=True)
class InvocationConfig:
    """Snapshot of the configuration registers for one invocation.

    Strides of 0 mean "dense": advance by one frame of the spec's
    input/output size per loop iteration. Non-zero strides support
    interleaved layouts where several accelerator instances process
    every k-th frame of a shared buffer.
    """

    src_offset: int
    dst_offset: int
    n_frames: int
    p2p: P2PConfig
    src_stride: int = 0
    dst_stride: int = 0
    coherence: CoherenceMode = CoherenceMode.NON_COHERENT
    clock_divider: int = 1

    def __post_init__(self) -> None:
        if self.n_frames < 1:
            raise ValueError(f"n_frames must be >= 1, got {self.n_frames}")
        if self.src_offset < 0 or self.dst_offset < 0:
            raise ValueError("offsets must be >= 0")
        if self.src_stride < 0 or self.dst_stride < 0:
            raise ValueError("strides must be >= 0")
        if self.clock_divider < 1:
            raise ValueError("clock_divider must be >= 1")


@dataclass
class InvocationResult:
    """What one wrapper run reports back through the socket."""

    frames: int
    start_cycle: int
    end_cycle: int

    @property
    def cycles(self) -> int:
        return self.end_cycle - self.start_cycle


def _phase(env, dma: DmaEngine, row: str, phase: str, index: int, body):
    """One LOAD/COMPUTE/STORE phase of frame ``index``.

    The wrapper's one bookkeeping site: the phase runs inside its
    tracer span, its cycles go into the socket's per-phase counter,
    and its completion stamps the progress heartbeat (a completed
    compute counts too, so a long-latency kernel does not look stalled
    between DMA transactions).
    """
    tracer = env.tracer
    sid = None if tracer is None else tracer.begin(
        dma.owner, row, f"{phase} f{index}", f"acc.{phase}", frame=index)
    start = env.now
    result = yield from body
    end = dma.last_progress = env.now
    dma.phase_cycles[phase] = dma.phase_cycles.get(phase, 0) + end - start
    if sid is not None:
        tracer.end(sid)
    return result


#: One run's kernel results evaluated ahead of the timing model:
#: ``{kernel: {input frame bytes: result}}``, where the kernel is a
#: spec's ``kernel`` object. A synthesized kernel has fixed
#: weights, so its result is a function of its input's exact bytes
#: alone (-0.0 and 0.0 differ), and every plan of the run may read
#: it. Entries are added during the run and never taken.
KernelMemo = Dict[Callable, Dict[bytes, np.ndarray]]


def fill_memo(memo: KernelMemo,
              levels: Sequence[Sequence[AcceleratorSpec]],
              frames: np.ndarray) -> None:
    """Evaluate ``frames`` through ``levels`` into ``memo`` before the
    timing model runs.

    Frame ``f`` passes level ``k`` on spec ``levels[k][f mod width]``,
    so each level's inputs are the previous level's outputs. A frame
    the memo already holds under its spec's kernel is not run again;
    the rest of each (level, spec) run as one
    :meth:`~AcceleratorSpec.run_batch` call. Speculative: a kernel
    that raises ends the pass, and the run reaches the error itself
    in COMPUTE.
    """
    inputs = frames
    try:
        for row in levels:
            tables = [memo.setdefault(spec.kernel, {}) for spec in row]
            width = len(row)
            outputs = np.empty((len(inputs), row[0].output_words))
            keys = [frame.tobytes() for frame in inputs]
            misses: Dict[int, List[int]] = {}
            for f, key in enumerate(keys):
                hit = tables[f % width].get(key)
                if hit is None:
                    misses.setdefault(id(row[f % width]), []).append(f)
                else:
                    outputs[f] = hit
            for picked in misses.values():
                spec = row[picked[0] % width]
                outputs[picked] = spec.run_batch(inputs[picked])
                for f in picked:
                    tables[f % width][keys[f]] = outputs[f]
            inputs = outputs
    except Exception:
        pass


def _compute(env, spec: AcceleratorSpec, frame, cycles: int,
             memo: Optional[KernelMemo]):
    """COMPUTE: the kernel's schedule sets the cycle cost (stretched by
    the tile's DVFS divider); the functional result is the bit-accurate
    NumPy kernel's on the frame LOAD delivered.

    ``memo`` is the run's :data:`KernelMemo` (``None`` outside a run).
    The entry under this tile's ``spec.kernel`` and the delivered
    frame's exact bytes is used as is. A frame with no entry (a DRAM
    bitflip changed it, or the pass ended at a kernel that raised)
    runs the kernel now. Either way the result is ``spec.run(frame)``
    byte for byte.
    """
    yield env.timeout(cycles)
    if memo:
        result = memo.get(spec.kernel, {}).get(frame.tobytes())
        if result is not None:
            return result
    return spec.run(frame)


def wrapper_process(env, spec: AcceleratorSpec, dma: DmaEngine,
                    config: InvocationConfig,
                    memo: Optional[KernelMemo]):
    """One accelerator invocation: the Fig. 4 loop as a sim process.

    Each loop iteration moves one frame: a LOAD of ``input_words``, a
    COMPUTE of the kernel's latency, a STORE of ``output_words``. The
    source/destination addresses advance by one frame per iteration,
    exactly as the generated wrapper derives them from the iteration
    index and the configured dataset size. ``memo`` is the run's
    results evaluated ahead (see :func:`_compute`).
    """
    start = env.now
    p2p = config.p2p
    dma.reset_p2p_rotation()
    src_stride = config.src_stride or spec.input_words
    dst_stride = config.dst_stride or spec.output_words
    for index in range(config.n_frames):
        # LOAD: get and unpack one frame into the PLM.
        in_addr = config.src_offset + index * src_stride
        frame = yield from _phase(env, dma, "wrapper", "load", index,
                                  dma.load(in_addr, spec.input_words,
                                           p2p=p2p,
                                           coherence=config.coherence))
        result = yield from _phase(
            env, dma, "wrapper", "compute", index,
            _compute(env, spec, frame,
                     spec.latency_cycles * config.clock_divider,
                     memo))
        # STORE: pack the output and push it downstream.
        out_addr = config.dst_offset + index * dst_stride
        yield from _phase(env, dma, "wrapper", "store", index,
                          dma.store(out_addr, result, p2p=p2p,
                                    coherence=config.coherence))
    return InvocationResult(frames=config.n_frames, start_cycle=start,
                            end_cycle=env.now)


def wrapper_process_double_buffered(env, spec: AcceleratorSpec,
                                    dma: DmaEngine,
                                    config: InvocationConfig,
                                    memo: Optional[KernelMemo]):
    """Ping-pong variant of the wrapper: LOAD/COMPUTE/STORE overlap.

    Three concurrent stages connected by depth-2 FIFOs (the two PLM
    banks of a ping-pong design): the loader fetches frame i+1 while
    the kernel computes frame i and the storer drains frame i-1. The
    kernel sustains its initiation interval after paying the full
    latency once.
    """
    from ..sim import Fifo

    start = env.now
    p2p = config.p2p
    dma.reset_p2p_rotation()
    src_stride = config.src_stride or spec.input_words
    dst_stride = config.dst_stride or spec.output_words
    in_plm = Fifo(env, capacity=2, name="plm-in")
    out_plm = Fifo(env, capacity=2, name="plm-out")

    def loader():
        for index in range(config.n_frames):
            in_addr = config.src_offset + index * src_stride
            frame = yield from _phase(
                env, dma, "loader", "load", index,
                dma.load(in_addr, spec.input_words, p2p=p2p,
                         coherence=config.coherence))
            yield in_plm.put(frame)

    def computer():
        for index in range(config.n_frames):
            frame = yield in_plm.get()
            cycles = spec.latency_cycles if index == 0 else max(
                spec.interval_cycles, 1)
            result = yield from _phase(
                env, dma, "compute", "compute", index,
                _compute(env, spec, frame, cycles * config.clock_divider,
                         memo))
            yield out_plm.put(result)

    def storer():
        for index in range(config.n_frames):
            result = yield out_plm.get()
            out_addr = config.dst_offset + index * dst_stride
            yield from _phase(env, dma, "storer", "store", index,
                              dma.store(out_addr, result, p2p=p2p,
                                        coherence=config.coherence))

    stages = [env.process(loader()), env.process(computer()),
              env.process(storer())]
    yield env.all_of(stages)
    return InvocationResult(frames=config.n_frames, start_cycle=start,
                            end_cycle=env.now)
