"""Distributed trace context: one deterministic ID per request.

A production serving stack correlates everything a request touched —
router decision, queue wait, batch membership, driver calls, DMA
bursts, accelerator phases, NoC packets — under one *trace ID*. This
module is that correlation primitive for the simulated fleet:

- :class:`TraceContext` is the immutable context a request carries
  from submission to completion. It is minted exactly once — by the
  fleet router at dispatch, or by the server at submission when no
  context was supplied — and then *propagated*, never re-minted, so a
  request resharded or degraded mid-flight keeps its identity.
- :class:`TraceIdAllocator` hands out the IDs. Allocation is a plain
  counter per allocator instance (no randomness, no wall clock, no
  process-global state), so two runs of the same workload mint the
  same IDs in the same order — trace IDs are reproducible artifacts,
  exactly like cycle counts and routing decisions.

Why per-instance counters and not a module global: the serving layer's
``request_id`` counter is process-global, which makes IDs depend on
how many requests *any* earlier test or run in the same process
created. Trace IDs are asserted against in postmortems and benchmark
artifacts, so they get the stronger guarantee: an allocator owned by
the minting component (one per server, one per router) always starts
at zero.

Propagation mechanics live in :class:`~repro.trace.tracer.Tracer`
(see ``Tracer.bind``): the serve layer binds the granted tile set to
the dispatched batch's context, and every span recorded against those
tiles — wrapper phases, DMA bursts, driver threads, NoC packets to or
from the tiles' coordinates — reads back with the ``trace_id``. The
arbiter's exclusive grant is what makes the binding unambiguous:
between grant and release exactly one tenant owns a tile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class TraceContext:
    """The identity one request carries through the whole stack.

    ``trace_id`` is the primary identity. When the batcher coalesces
    several requests into one hardware invocation, the batch-level
    spans carry the first member's ID as ``trace_id`` plus the full
    membership as ``trace_ids`` — hardware work genuinely shared by N
    requests is attributed to all of them, not silently to one.
    """

    trace_id: str

    def __str__(self) -> str:
        return self.trace_id


class TraceIdAllocator:
    """Deterministic counter-based trace-ID mint.

    IDs are ``{prefix}-{n}`` with ``n`` counting from zero per
    allocator. The serve layer mints with prefix ``"t"``; the fleet
    router mints with prefix ``"f"`` — a fleet request is identified
    by its *router* ID end to end (instances never re-mint a supplied
    context), so the two prefixes cannot collide within one run.
    """

    __slots__ = ("prefix", "_next")

    def __init__(self, prefix: str = "t") -> None:
        if not prefix or "-" in prefix:
            raise ValueError(f"prefix must be non-empty and free of "
                             f"'-', got {prefix!r}")
        self.prefix = prefix
        self._next = 0

    def next_id(self) -> str:
        """The next ID string (advances the counter)."""
        n = self._next
        self._next = n + 1
        return f"{self.prefix}-{n}"

    def mint(self) -> TraceContext:
        """A fresh :class:`TraceContext`."""
        return TraceContext(self.next_id())

    def __repr__(self) -> str:
        return (f"<TraceIdAllocator {self.prefix!r} "
                f"next={self._next}>")


def batch_trace_ids(requests) -> Tuple[str, ...]:
    """The trace IDs of a batch's member requests, in batch order.

    Skips members with no context (requests submitted before tracing
    was introduced, or hand-built in tests).
    """
    return tuple(r.trace_ctx.trace_id for r in requests
                 if getattr(r, "trace_ctx", None) is not None)
