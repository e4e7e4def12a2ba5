"""Bounded request queue with admission control.

Backpressure is explicit: the queue holds at most ``max_depth``
requests across all tenants, and an arriving request that would
overflow it is rejected *at submit time* with a reason — the serving
analogue of a full hardware queue asserting its ready signal low. A
rejected request costs the system nothing downstream; an admitted one
is guaranteed a slot until its tenant's batch loop drains it.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from .request import (
    InferenceRequest,
    REJECT_BAD_SHAPE,
    REJECT_QUEUE_FULL,
    REJECT_UNKNOWN_TENANT,
    Rejection,
)


class RequestQueue:
    """Admission control + per-tenant FIFO backlog."""

    def __init__(self, max_depth: int = 64) -> None:
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        self.max_depth = max_depth
        self._queues: Dict[str, Deque[InferenceRequest]] = {}
        #: Frames queued per tenant, kept with the deques.
        self._frames: Dict[str, int] = {}
        self._expected_words: Dict[str, int] = {}
        #: Called with the request after a successful admit (the server
        #: hooks this to wake the tenant's batch loop).
        self.on_admit: Optional[Callable[[InferenceRequest], None]] = None
        #: One ``(tenant, depth after admission)`` record per admitted
        #: request since boot, never reset: admission counts and peak
        #: depths over any window are views of it.
        self.admissions: List[Tuple[str, int]] = []

    # -- tenant management --------------------------------------------------

    def register(self, tenant: str, input_words: int) -> None:
        if tenant in self._queues:
            raise ValueError(f"tenant {tenant!r} already registered")
        if input_words < 1:
            raise ValueError("input_words must be >= 1")
        self._queues[tenant] = deque()
        self._frames[tenant] = 0
        self._expected_words[tenant] = input_words

    @property
    def tenants(self) -> List[str]:
        return sorted(self._queues)

    # -- depth --------------------------------------------------------------

    @property
    def depth(self) -> int:
        """Requests currently queued, across all tenants."""
        return sum(len(q) for q in self._queues.values())

    def tenant_depth(self, tenant: str) -> int:
        return len(self._queues[tenant])

    def tenant_backlog(self, tenant: str) -> tuple:
        """``(requests, frames)`` queued for one tenant.

        Frames are what the hardware will actually run, so a router
        comparing backlogs sees two one-frame requests as lighter than
        one eight-frame request. O(1): the fleet router reads it at
        every arrival.
        """
        return len(self._queues[tenant]), self._frames[tenant]

    # -- admission ----------------------------------------------------------

    def submit(self, request: InferenceRequest,
               now: int = 0) -> Optional[Rejection]:
        """Admit ``request`` or reject it with a reason.

        Returns ``None`` on admission; a :class:`Rejection` otherwise.
        Admission is checked in order: the tenant must be registered,
        the frame geometry must match the tenant's pipeline, and the
        global queue must have room (bounded depth — the backpressure
        contract).
        """
        queue = self._queues.get(request.tenant)
        if queue is None:
            return Rejection(request.request_id, request.tenant,
                             REJECT_UNKNOWN_TENANT, now,
                             f"registered tenants: {self.tenants}")
        expected = self._expected_words[request.tenant]
        if request.frames.shape[1] != expected:
            return Rejection(
                request.request_id, request.tenant, REJECT_BAD_SHAPE, now,
                f"frames have {request.frames.shape[1]} words, pipeline "
                f"expects {expected}")
        if self.depth >= self.max_depth:
            return Rejection(
                request.request_id, request.tenant, REJECT_QUEUE_FULL, now,
                f"queue depth {self.depth} at max_depth "
                f"{self.max_depth}")
        request.submitted_at = now
        queue.append(request)
        self._frames[request.tenant] += request.n_frames
        self.admissions.append((request.tenant, self.depth))
        if self.on_admit is not None:
            self.on_admit(request)
        return None

    # -- draining (the batch loops' side) ------------------------------------

    def drain(self, tenant: str,
              max_frames: Optional[int] = None) -> List[InferenceRequest]:
        """Pop consecutive requests while their frames fit ``max_frames``.

        Always takes at least one request (a single oversized request
        is the batcher's problem, not the queue's). FIFO within the
        tenant, so no request can be starved by later arrivals.
        """
        out: List[InferenceRequest] = []
        total = 0
        queue = self._queues[tenant]
        while queue:
            head = queue[0]
            if out and max_frames is not None \
                    and total + head.n_frames > max_frames:
                break
            out.append(queue.popleft())
            total += head.n_frames
        self._frames[tenant] -= total
        return out
