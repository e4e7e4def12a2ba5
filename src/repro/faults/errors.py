"""Exception taxonomy of the fault/recovery subsystem."""

from __future__ import annotations


class FaultError(Exception):
    """Base class for fault-model failures."""


class KernelCrash(FaultError):
    """An injected accelerator-kernel crash (fault kind ``acc_crash``)."""

    def __init__(self, device: str) -> None:
        self.device = device
        super().__init__(f"kernel of accelerator {device!r} crashed")


class NodeFailed(FaultError):
    """A pipeline node failed permanently (retries exhausted).

    In streaming (p2p) mode this aborts the run so the executor can
    degrade gracefully: reset the fabric, mark the device failed and
    re-execute the pipeline with the failed node in software.
    """

    def __init__(self, device: str, reason: str = "") -> None:
        self.device = device
        self.reason = reason
        message = f"pipeline node {device!r} failed permanently"
        if reason:
            message += f": {reason}"
        super().__init__(message)
