"""Requests, completions and rejections of the serving layer.

The serving subsystem speaks in :class:`InferenceRequest`s: a tenant
(one registered dataflow) asks for a batch of frames to be run through
its pipeline. Every request ends in exactly one of three records — a
:class:`Completion` (outputs + latency breakdown), a
:class:`Rejection` (admission control said no, with a reason), or a
:class:`Failure` (the hardware gave up past every recovery layer).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from ..trace.context import TraceContext

#: Admission-control rejection reasons.
REJECT_UNKNOWN_TENANT = "unknown-tenant"
REJECT_QUEUE_FULL = "queue-full"
REJECT_BAD_SHAPE = "bad-shape"
REJECT_TILE_UNAVAILABLE = "tile-unavailable"
REJECT_REASONS = (REJECT_UNKNOWN_TENANT, REJECT_QUEUE_FULL,
                  REJECT_BAD_SHAPE, REJECT_TILE_UNAVAILABLE)

_request_ids = itertools.count()


@dataclass
class InferenceRequest:
    """One admitted unit of work: a tenant's batch of input frames."""

    tenant: str
    frames: np.ndarray = field(repr=False)
    submitted_at: int = 0
    priority: int = 0
    request_id: int = field(default_factory=lambda: next(_request_ids))
    #: Distributed-tracing identity. Minted by the server at submit
    #: when absent; supplied by the fleet router for routed requests.
    #: Propagated, never re-minted — a reshard or degraded retry keeps
    #: the same ID end to end.
    trace_ctx: Optional[TraceContext] = None

    def __post_init__(self) -> None:
        self.frames = np.atleast_2d(
            np.asarray(self.frames, dtype=np.float64))

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


@dataclass(frozen=True)
class TracedRequest:
    """One entry of a request trace: submit ``frames`` at cycle ``at``."""

    at: int
    tenant: str
    frames: Any
    priority: int = 0


@dataclass
class Completion:
    """A served request: outputs plus its latency breakdown."""

    request_id: int
    tenant: str
    submitted_at: int
    started_at: int          # batch dispatch (tiles granted)
    completed_at: int
    n_frames: int
    batch_frames: int        # frames of the coalesced invocation
    batch_requests: int      # requests coalesced into that invocation
    degraded: bool
    outputs: np.ndarray = field(repr=False)
    #: The request's trace ID (the latency histograms' exemplar).
    trace_id: Optional[str] = None

    @property
    def latency_cycles(self) -> int:
        """Submit-to-complete: what the tenant observes."""
        return self.completed_at - self.submitted_at

    @property
    def queue_cycles(self) -> int:
        """Admission-to-dispatch: queueing + batching + arbitration."""
        return self.started_at - self.submitted_at


@dataclass(frozen=True)
class Rejection:
    """Admission control (or arbitration) refused the request."""

    request_id: int
    tenant: str
    reason: str
    at: int
    detail: str = ""

    def __post_init__(self) -> None:
        if self.reason not in REJECT_REASONS:
            raise ValueError(f"unknown reject reason {self.reason!r}; "
                             f"options: {REJECT_REASONS}")


@dataclass
class Failure:
    """The request died in hardware past every recovery layer."""

    request_id: int
    tenant: str
    submitted_at: int
    failed_at: int
    error: Optional[BaseException] = None
