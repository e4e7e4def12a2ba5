"""Fault injection and recovery for the simulated ESP4ML platform.

The paper's runtime (Sec. V) assumes accelerators always complete and
the NoC never loses a flit. This subsystem stress-tests that
assumption: deterministic, seedable fault injectors across the SoC
(NoC packet loss/corruption, DMA stalls, p2p request loss, kernel
hangs/crashes/latency spikes, DRAM bit flips) plus the recovery
machinery — watchdog timeouts, bounded retry with exponential backoff
and graceful degradation to software execution — that lets the
pipeline keep producing correct output under adversity.

The layer is pay-for-what-you-use: without an attached
:class:`FaultPlan` and without a :class:`RecoveryPolicy`, every hook
is a no-op and simulated cycle counts are bit-identical to a build
without this module.
"""

from .errors import (
    FaultError,
    KernelCrash,
    NodeFailed,
)
from .plan import (
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    FaultSpec,
    zero_fault_plan,
)
from .injector import FaultInjector
from .policy import RecoveryPolicy

__all__ = [
    "FAULT_KINDS",
    "FaultError",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "KernelCrash",
    "NodeFailed",
    "RecoveryPolicy",
    "zero_fault_plan",
]
