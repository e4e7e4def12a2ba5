"""Application dataflow specification (the ``dflow.h`` of Fig. 5).

Paper Sec. I contribution 2: "an API that for a given embedded
application and a target SoC architecture allows the specification of
the software part to be accelerated as a simple dataflow of
computational kernels". The dataflow names accelerator *devices* (never
NoC coordinates — the driver resolves those), connects them with edges,
and the runtime turns it into a pipeline in one of four execution
modes:

- ``base``: serial single-thread invocation, DMA through DRAM;
- ``pipe``: one thread per accelerator, per-frame synchronization with
  pthread-style primitives, DMA through DRAM — ``custom`` with every
  edge DMA, whatever its ``comm`` says;
- ``p2p``: one thread per accelerator, a single streaming invocation
  each, inter-accelerator data over the p2p service;
- ``custom``: per-edge transport choice (each edge's ``comm``), the
  per-invocation DMA-or-P2P flexibility of Fig. 5.

``base``/``pipe``/``p2p`` are the bars of Fig. 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Dict, List, Sequence, Tuple

from ..soc import MAX_P2P_SOURCES

#: ``custom`` honours each edge's own ``comm`` attribute — the
#: per-invocation DMA-or-P2P choice the generated application exposes
#: (Fig. 5: "The configuration specifies the communication for each
#: accelerator invocation: DMA or P2P").
EXECUTION_MODES = ("base", "pipe", "p2p", "custom")

COMM_KINDS = ("dma", "p2p")


@dataclass(frozen=True)
class DataflowEdge:
    """A producer -> consumer dependency between two devices.

    ``comm`` selects the transport for this edge in ``custom`` mode;
    the uniform modes override it: ``pipe`` is ``custom`` with every
    edge DMA, ``p2p`` streams over every edge.
    """

    src: str
    dst: str
    comm: str = "dma"

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"self-edge on {self.src!r}")
        if self.comm not in COMM_KINDS:
            raise ValueError(
                f"comm must be one of {COMM_KINDS}, got {self.comm!r}")


@dataclass
class Dataflow:
    """A DAG of accelerator devices.

    Nodes are device names present in the target SoC. Levels are
    derived from the graph: all roots (no incoming edge) read the
    application input buffer; all leaves write the output buffer.
    Parallel nodes at the same level split the frame stream in
    round-robin fashion (node ``i`` of ``k`` processes frames with
    index ``i mod k``) — this is how "multiple instances of the slower
    accelerator can be activated to feed a single accelerator
    downstream" (paper Sec. V).
    """

    name: str
    devices: List[str]
    edges: List[DataflowEdge] = field(default_factory=list)
    #: Optional per-device DMA coherence modes
    #: (:class:`~repro.soc.CoherenceMode` or its string value). Devices
    #: not listed run non-coherent; call-level ``coherence=`` arguments
    #: to ``esp_run``/``plan`` overlay these defaults.
    coherence: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.devices:
            raise ValueError("a dataflow needs at least one device")
        if len(set(self.devices)) != len(self.devices):
            raise ValueError("duplicate device in dataflow")
        known = set(self.devices)
        for edge in self.edges:
            if edge.src not in known or edge.dst not in known:
                raise ValueError(
                    f"edge {edge.src}->{edge.dst} references unknown "
                    f"device")
        for device in self.coherence:
            if device not in known:
                raise ValueError(
                    f"coherence mode for unknown device {device!r}")

    # -- graph structure -----------------------------------------------------

    def producers_of(self, device: str) -> List[str]:
        return [e.src for e in self.edges if e.dst == device]

    def consumers_of(self, device: str) -> List[str]:
        return [e.dst for e in self.edges if e.src == device]

    def levels(self) -> List[List[str]]:
        """Topological levels (longest path from any root).

        Within a level, devices keep the order they were declared in
        ``devices`` — that order defines the round-robin frame split.
        """
        depth: Dict[str, int] = {}

        def compute(device: str, visiting: Tuple[str, ...]) -> int:
            if device in visiting:
                cycle = " -> ".join(visiting + (device,))
                raise ValueError(f"dataflow has a cycle: {cycle}")
            if device in depth:
                return depth[device]
            producers = self.producers_of(device)
            level = 0 if not producers else 1 + max(
                compute(p, visiting + (device,)) for p in producers)
            depth[device] = level
            return level

        for device in self.devices:
            compute(device, ())
        n_levels = max(depth.values()) + 1
        levels: List[List[str]] = [[] for _ in range(n_levels)]
        for device in self.devices:
            levels[depth[device]].append(device)
        return levels

    # -- rewriting ---------------------------------------------------------------

    def substitute(self, mapping: Dict[str, str]) -> "Dataflow":
        """A new dataflow with devices renamed per ``mapping``.

        The structural rewrite behind tenant resharding: the graph
        (edges, levels, round-robin order) is preserved exactly while
        the named sockets change — the paper's runtime
        reconfigurability, where any equivalent accelerator tile can
        take over a role in the pipeline. Devices not in ``mapping``
        keep their names; mapping onto a device that stays in the
        dataflow is rejected (it would alias two roles).
        """
        unknown = set(mapping) - set(self.devices)
        if unknown:
            raise ValueError(
                f"substitute: {sorted(unknown)} not in dataflow "
                f"{self.name!r}")
        devices = [mapping.get(d, d) for d in self.devices]
        if len(set(devices)) != len(devices):
            raise ValueError(
                f"substitute: mapping {mapping} aliases devices "
                f"{devices}")
        edges = [DataflowEdge(src=mapping.get(e.src, e.src),
                              dst=mapping.get(e.dst, e.dst),
                              comm=e.comm)
                 for e in self.edges]
        coherence = {mapping.get(d, d): m
                     for d, m in self.coherence.items()}
        return Dataflow(name=self.name, devices=devices, edges=edges,
                        coherence=coherence)

    # -- validation --------------------------------------------------------------

    def validate(self) -> None:
        """Check the structural rules the runtime planner relies on."""
        levels = self.levels()
        for upstream, downstream in zip(levels, levels[1:]):
            up_index = {d: i for i, d in enumerate(upstream)}
            for device in downstream:
                producers = self.producers_of(device)
                if not producers:
                    raise ValueError(
                        f"device {device!r} sits at an inner level but has "
                        f"no producer")
                for producer in producers:
                    if producer not in up_index:
                        raise ValueError(
                            f"edge {producer}->{device} skips a level; "
                            f"chains must connect adjacent levels")
        for device in self.devices:
            n_sources = len(self.producers_of(device))
            if n_sources > MAX_P2P_SOURCES:
                raise ValueError(
                    f"device {device!r} has {n_sources} producers; "
                    f"P2P_REG supports at most {MAX_P2P_SOURCES}")

    def source_rotation(self, device: str) -> List[str]:
        """The p2p source order programmed into the device's P2P_REG.

        Device ``j`` of ``k`` consumers processes global frames
        ``f_t = j + t*k``; the producer of frame ``f`` is producer
        ``f mod k_up``. The rotation is the periodic sequence of
        producers the round-robin loads must follow.
        """
        levels = self.levels()
        for upstream, downstream in zip(levels, levels[1:]):
            if device not in downstream:
                continue
            k_up = len(upstream)
            k_down = len(downstream)
            j = downstream.index(device)
            period = k_up // gcd(k_down, k_up)
            rotation = [upstream[(j + t * k_down) % k_up]
                        for t in range(period)]
            produced_from = set(self.producers_of(device))
            if set(rotation) != produced_from:
                raise ValueError(
                    f"edges into {device!r} ({sorted(produced_from)}) do "
                    f"not match the frame interleaving, which requires "
                    f"sources {rotation}")
            return rotation
        raise ValueError(f"device {device!r} has no producers")

    def validate_for_p2p(self) -> None:
        """Extra rules for streaming p2p execution."""
        self.validate()
        for device in self.devices:
            rotation_targets = self.consumers_of(device)
            if len(rotation_targets) > 1:
                raise ValueError(
                    f"device {device!r} feeds {len(rotation_targets)} "
                    f"consumers; the p2p store queue serves requests in "
                    f"FIFO order, so one producer can feed only one "
                    f"consumer (replicate the producer instead)")
        for downstream in self.levels()[1:]:
            for device in downstream:
                rotation = self.source_rotation(device)
                if len(rotation) > MAX_P2P_SOURCES:
                    raise ValueError(
                        f"device {device!r} needs a source rotation of "
                        f"{len(rotation)} tiles; P2P_REG holds at most "
                        f"{MAX_P2P_SOURCES}")

    def validate_for_custom(self) -> None:
        """Rules for per-edge communication (``custom`` mode).

        The FIFO-order restriction applies only to producers that feed
        a consumer over a p2p edge; DMA edges tolerate fan-out.
        """
        self.validate()
        for device in self.devices:
            p2p_consumers = [e.dst for e in self.edges
                             if e.src == device and e.comm == "p2p"]
            if len(p2p_consumers) > 1:
                raise ValueError(
                    f"device {device!r} feeds {len(p2p_consumers)} "
                    f"consumers over p2p edges; one producer can feed "
                    f"only one p2p consumer")
        for downstream in self.levels()[1:]:
            for device in downstream:
                self.source_rotation(device)   # edge/interleave check


def chain(name: str, devices: Sequence[str],
          comm: str = "dma") -> Dataflow:
    """A linear pipeline (e.g. the 5-stage multi-tile classifier)."""
    devices = list(devices)
    edges = [DataflowEdge(a, b, comm=comm)
             for a, b in zip(devices, devices[1:])]
    return Dataflow(name=name, devices=devices, edges=edges)


def replicated_stage(name: str, producers: Sequence[str],
                     consumers: Sequence[str],
                     comm: str = "dma") -> Dataflow:
    """Two stages with replication (e.g. 4 NightVision -> 1 Classifier).

    With equal counts the stages pair off (nv_i -> cl_i); a single
    consumer gathers from every producer; a single producer feeds every
    consumer.
    """
    producers = list(producers)
    consumers = list(consumers)
    edges: List[DataflowEdge] = []
    if len(producers) == len(consumers):
        edges = [DataflowEdge(p, c, comm=comm)
                 for p, c in zip(producers, consumers)]
    elif len(consumers) == 1:
        edges = [DataflowEdge(p, consumers[0], comm=comm)
                 for p in producers]
    elif len(producers) == 1:
        edges = [DataflowEdge(producers[0], c, comm=comm)
                 for c in consumers]
    else:
        raise ValueError(
            f"unsupported replication {len(producers)} -> {len(consumers)}")
    return Dataflow(name=name, devices=producers + consumers, edges=edges)
