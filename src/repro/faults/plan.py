"""Fault plans: deterministic, seedable schedules of injected faults.

A :class:`FaultPlan` holds :class:`FaultSpec` entries and answers one
question at each injection opportunity: *does a fault of this kind
fire here, now?* Faults are scheduled either at a simulated-time point
(``at_cycle``: fires on the first opportunity at or after that cycle)
or probabilistically (``probability`` per opportunity, drawn from a
seeded generator, so a given plan + a given workload reproduce the
same fault sequence run after run).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: Every fault kind the injector understands, and where it strikes:
#:
#: - ``link_drop`` / ``link_corrupt``: NoC delivery faults (a packet is
#:   lost in flight / mangled and discarded by the link-level CRC);
#: - ``dma_stall``: the tile's DMA engine stalls for ``duration``
#:   cycles before issuing a transaction (``duration=None`` hangs it);
#: - ``p2p_req_drop``: a p2p load request is lost before injection;
#: - ``acc_hang`` / ``acc_crash`` / ``acc_slow``: the accelerator
#:   kernel never finishes / dies with an error / runs ``factor``
#:   times slower for one invocation;
#: - ``dram_bitflip``: one bit of a DRAM word covered by a load flips.
FAULT_KINDS = (
    "link_drop",
    "link_corrupt",
    "dma_stall",
    "p2p_req_drop",
    "acc_hang",
    "acc_crash",
    "acc_slow",
    "dram_bitflip",
)


@dataclass
class FaultSpec:
    """One scheduled fault (or fault process) in a plan."""

    kind: str
    target: Optional[str] = None        # device name; None = any target
    at_cycle: Optional[int] = None      # deterministic trigger point
    probability: float = 0.0            # per-opportunity rate otherwise
    count: Optional[int] = 1            # max firings; None = unlimited
    duration: Optional[int] = None      # dma_stall cycles; None = hang
    factor: float = 4.0                 # acc_slow latency multiplier
    plane: Optional[str] = None         # link faults: restrict to plane
    message_kind: Optional[str] = None  # link faults: packet kind name
    fired: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"options: {FAULT_KINDS}")
        if self.at_cycle is None and self.probability <= 0.0:
            raise ValueError(
                f"{self.kind}: give at_cycle or a probability > 0")
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}")
        if self.count is not None and self.count < 1:
            raise ValueError(f"count must be >= 1 or None, got "
                             f"{self.count}")
        if self.duration is not None and self.duration < 1:
            raise ValueError("duration must be >= 1 cycles or None")
        if self.factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {self.factor}")

    @property
    def exhausted(self) -> bool:
        return self.count is not None and self.fired >= self.count


@dataclass(frozen=True)
class FaultEvent:
    """Log entry: one fault that actually fired."""

    cycle: int
    kind: str
    target: Optional[str]


class FaultPlan:
    """A seeded collection of fault specs plus the firing log."""

    def __init__(self, faults: Sequence[FaultSpec] = (),
                 seed: int = 0) -> None:
        self.faults: List[FaultSpec] = list(faults)
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self.events: List[FaultEvent] = []

    def __len__(self) -> int:
        return len(self.faults)

    @property
    def fired(self) -> int:
        return len(self.events)

    def add(self, spec: FaultSpec) -> "FaultPlan":
        self.faults.append(spec)
        return self

    def rand(self) -> float:
        """One draw from the plan's deterministic stream."""
        return float(self._rng.random())

    def randint(self, upper: int) -> int:
        """Uniform integer in [0, upper) from the deterministic stream."""
        return int(self._rng.integers(upper))

    def draw(self, kind: str, target: Optional[str], now: int,
             plane: Optional[str] = None,
             message_kind: Optional[str] = None) -> Optional[FaultSpec]:
        """The spec that fires at this opportunity, or None.

        At most one spec fires per opportunity; specs are consulted in
        plan order. The firing is recorded in :attr:`events`.
        """
        for spec in self.faults:
            if spec.kind != kind or spec.exhausted:
                continue
            if spec.target is not None and spec.target != target:
                continue
            if spec.plane is not None and spec.plane != plane:
                continue
            if spec.message_kind is not None \
                    and spec.message_kind != message_kind:
                continue
            if spec.at_cycle is not None:
                if now < spec.at_cycle:
                    continue
            elif self.rand() >= spec.probability:
                continue
            spec.fired += 1
            self.events.append(FaultEvent(cycle=now, kind=kind,
                                          target=target))
            return spec
        return None


def zero_fault_plan(seed: int = 0) -> FaultPlan:
    """An attached-but-empty plan (for pay-for-what-you-use checks)."""
    return FaultPlan(faults=(), seed=seed)
