"""The cycle-level event tracer: spans, instants and counters.

ESP instruments its SoCs with hardware performance monitors and the
companion papers read them out to explain *where cycles go* (per-
accelerator busy time, NoC-plane traffic, ioctl overhead). This module
is the simulated equivalent turned into one coherent subsystem: a
single :class:`Tracer` attached to the simulation
:class:`~repro.sim.Environment` that every layer of the stack reports
into — kernel process lifetimes, NoC packet and link traversals, DMA
transactions, accelerator LOAD/COMPUTE/STORE phases, runtime executor
phases (ioctl, register programming, IRQ wait) and serve-layer
queue/batch/grant events.

Design rules:

- **Zero timing impact.** Recording never yields, never schedules an
  event and never advances the clock, so a traced run is cycle-for-
  cycle identical to an untraced one; tracing changes what you *see*,
  not what happens.
- **Near-zero overhead when disabled.** Instrumentation sites guard
  with ``env.tracer is None`` — one attribute load and a pointer
  compare, mirroring the fault-injection hooks of the faults
  subsystem.
- **One store, many views.** The Chrome-trace exporter, the flame
  summary, the VCD/Gantt renderers and the critical-path analyzer all
  read the same span lists recorded here.

Tracks: every record carries a ``(pid, tid)`` pair — process and
thread labels in Chrome-trace terms. By convention ``pid`` names the
tile (or subsystem: ``cpu``, ``noc``, ``serve``, ``sim``) and ``tid``
names the engine inside it (``wrapper``, ``dma.load``, a plane name,
a driver thread).

Two fleet-era additions ride on the same store:

- **Flight-recorder mode** (``capacity=``): the record lists become
  bounded rings so an always-on tracer cannot grow without bound on a
  long serving run. Eviction semantics — at least the last
  ``capacity`` records of each kind (spans / instants / counters) are
  always retained, and each list never holds more than ``2*capacity``;
  compaction is a single amortized ``del lst[:k]`` once per
  ``capacity`` appends, so the per-record cost stays O(1) and the
  zero-timing-impact contract holds. Evictions are counted in
  ``dropped_spans`` / ``dropped_instants`` / ``dropped_counters``.
  Open spans are never evicted — they live in ``_open`` until closed.
- **Trace-context bindings** (``bind``/``unbind``): the distributed-
  tracing propagation point. The serve layer binds the tile set it
  was exclusively granted to the dispatched batch's trace IDs; while
  the binding is live, every span/instant recorded against a bound
  key — a device ``pid``, a ``(pid, tid)`` driver track, or a NoC
  packet whose ``src``/``dst`` arg names a bound tile coordinate — is
  annotated with ``trace_id`` (and ``trace_ids`` when the batch
  coalesced several requests). The arbiter's all-or-nothing exclusive
  grant is what makes keying by device unambiguous.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One named interval on one track (begin/end pair, in cycles)."""

    sid: int
    pid: str
    tid: str
    name: str
    cat: str
    start: int
    end: Optional[int] = None
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def cycles(self) -> int:
        if self.end is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.end - self.start

    @property
    def closed(self) -> bool:
        return self.end is not None


@dataclass(frozen=True)
class Instant:
    """A point event (an IRQ edge, a queue admit, a grant)."""

    pid: str
    tid: str
    name: str
    cat: str
    ts: int
    args: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class CounterSample:
    """One sample of a named counter series (queue depth, occupancy)."""

    pid: str
    name: str
    ts: int
    values: Dict[str, float] = field(default_factory=dict)


class Tracer:
    """The global span/instant/counter store of one simulation.

    Attach with :func:`attach_tracer`; instrumentation sites across the
    stack then report into it. All timestamps are simulation cycles;
    exporters convert to wall time with the SoC clock.

    ``namespace`` labels this tracer's records when several tracers
    from a fleet are merged into one trace (mirrors
    ``MetricsRegistry(namespace=)``). ``capacity`` turns the store
    into a flight recorder — see the module docstring for the exact
    eviction semantics.
    """

    def __init__(self, env, namespace: Optional[str] = None,
                 capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.namespace = namespace
        self.capacity = capacity
        self.spans: List[Span] = []
        self.instants: List[Instant] = []
        self.counters: List[CounterSample] = []
        self.dropped_spans = 0
        self.dropped_instants = 0
        self.dropped_counters = 0
        self._open: Dict[int, Span] = {}
        self._sids = itertools.count()
        # Parallel list of span *end* cycles, for bisect windowing.
        # Spans are appended when they close, so this is monotone
        # unless a complete() back-dates an end — tracked by the flag.
        self._ends: List[int] = []
        self._ends_sorted = True
        # Trace-context bindings: key -> tuple of trace ids. Keys are
        # device pids, (pid, tid) tracks, or tile-coordinate strings
        # matched against NoC packet src/dst args.
        self._bindings: Dict[Any, Tuple[str, ...]] = {}

    # -- trace-context propagation ----------------------------------------

    def bind(self, key: Any, trace_ids: Tuple[str, ...]) -> None:
        """Attribute records on ``key`` to ``trace_ids`` until unbound.

        ``key`` is matched against a record's ``pid``, its
        ``(pid, tid)`` pair, and — for NoC packet spans — its
        ``src``/``dst`` args. Binding an empty ID tuple is a no-op.
        """
        if trace_ids:
            self._bindings[key] = tuple(trace_ids)

    def unbind(self, key: Any) -> None:
        """Remove a binding (missing keys are ignored)."""
        self._bindings.pop(key, None)

    def _annotate(self, pid: str, tid: str,
                  args: Dict[str, Any]) -> None:
        # Hot path: called only when at least one binding is live, and
        # explicit trace_id args (set by the serve layer) win.
        if "trace_id" in args:
            return
        bindings = self._bindings
        ids = bindings.get((pid, tid))
        if ids is None:
            ids = bindings.get(pid)
        if ids is None:
            src = args.get("src")
            if src is not None:
                ids = bindings.get(src)
            if ids is None:
                dst = args.get("dst")
                if dst is not None:
                    ids = bindings.get(dst)
        if ids is not None:
            args["trace_id"] = ids[0]
            if len(ids) > 1:
                args["trace_ids"] = ids

    # -- recording ---------------------------------------------------------

    def begin(self, pid: str, tid: str, name: str, cat: str,
              **args: Any) -> int:
        """Open a span at the current cycle; returns its id."""
        if self._bindings:
            self._annotate(pid, tid, args)
        sid = next(self._sids)
        self._open[sid] = Span(sid=sid, pid=pid, tid=tid, name=name,
                               cat=cat, start=self.env.now, args=args)
        return sid

    def end(self, sid: int, **args: Any) -> Span:
        """Close the span at the current cycle (extra args merge in)."""
        span = self._open.pop(sid, None)
        if span is None:
            raise KeyError(f"no open span with id {sid}")
        span.end = self.env.now
        if args:
            span.args.update(args)
        self.spans.append(span)
        self._ends.append(span.end)
        if self.capacity is not None:
            self._compact_spans()
        return span

    def drive(self, sid: int, body, close=None, failed=None,
              bound: Sequence[Any] = ()):
        """Drive the process step ``body`` (a generator) inside span
        ``sid``; returns what ``body`` returns.

        The span closes where ``body`` leaves: on return with
        ``close(result)`` merged into its args, or on an exception
        (an interrupted process, a failed run) with ``failed(exc)``
        before the exception propagates. Either way the ``bound`` keys'
        bindings are dropped first, so they live exactly as long as
        the span.
        """
        try:
            result = yield from body
        except Exception as exc:
            for key in bound:
                self.unbind(key)
            self.end(sid, **({} if failed is None else failed(exc)))
            raise
        for key in bound:
            self.unbind(key)
        self.end(sid, **({} if close is None else close(result)))
        return result

    def complete(self, pid: str, tid: str, name: str, cat: str,
                 start: int, end: int, **args: Any) -> Span:
        """Record an already-finished interval in one call."""
        if end < start:
            raise ValueError(f"span ends at {end} before start {start}")
        if self._bindings:
            self._annotate(pid, tid, args)
        span = Span(sid=next(self._sids), pid=pid, tid=tid, name=name,
                    cat=cat, start=start, end=end, args=args)
        self.spans.append(span)
        if self._ends_sorted and self._ends and end < self._ends[-1]:
            # A back-dated end breaks the record-order monotonicity;
            # spans_between falls back to the linear scan.
            self._ends_sorted = False
        self._ends.append(end)
        if self.capacity is not None:
            self._compact_spans()
        return span

    def instant(self, pid: str, tid: str, name: str, cat: str,
                **args: Any) -> None:
        if self._bindings:
            self._annotate(pid, tid, args)
        self.instants.append(Instant(pid=pid, tid=tid, name=name,
                                     cat=cat, ts=self.env.now, args=args))
        if self.capacity is not None and \
                len(self.instants) > 2 * self.capacity:
            drop = len(self.instants) - self.capacity
            del self.instants[:drop]
            self.dropped_instants += drop

    def counter(self, pid: str, name: str, **values: float) -> None:
        self.counters.append(CounterSample(pid=pid, name=name,
                                           ts=self.env.now,
                                           values=values))
        if self.capacity is not None and \
                len(self.counters) > 2 * self.capacity:
            drop = len(self.counters) - self.capacity
            del self.counters[:drop]
            self.dropped_counters += drop

    def _compact_spans(self) -> None:
        if len(self.spans) > 2 * self.capacity:
            drop = len(self.spans) - self.capacity
            del self.spans[:drop]
            del self._ends[:drop]
            self.dropped_spans += drop
            if not self._ends_sorted:
                # Cheap re-check: eviction may have dropped the
                # out-of-order prefix, restoring the fast path.
                self._ends_sorted = all(
                    a <= b for a, b in zip(self._ends, self._ends[1:]))

    @property
    def dropped(self) -> int:
        """Total records evicted by flight-recorder compaction."""
        return (self.dropped_spans + self.dropped_instants
                + self.dropped_counters)

    # -- queries -----------------------------------------------------------

    @property
    def open_spans(self) -> List[Span]:
        return list(self._open.values())

    def all_spans(self, cat: Optional[str] = None,
                  closed_only: bool = True) -> List[Span]:
        """Spans in start order, optionally filtered by category prefix.

        A ``cat`` of ``"dma"`` matches ``dma.load``, ``dma.store``, ...
        (exact segment-prefix match, so ``"acc"`` does not match
        ``"accel"``).
        """
        spans: Iterable[Span] = self.spans
        if not closed_only:
            spans = list(spans) + self.open_spans
        if cat is not None:
            spans = [s for s in spans
                     if s.cat == cat or s.cat.startswith(cat + ".")]
        return sorted(spans, key=lambda s: (s.start, s.sid))

    def spans_between(self, t0: int, t1: int) -> List[Span]:
        """Closed spans overlapping the window ``[t0, t1)``.

        Spans append when they *close*, and every recording path
        closes at (or before) the current cycle, so ``self.spans`` is
        monotone in end cycle and the window's left edge is found with
        ``bisect`` instead of scanning the whole history — the
        difference between O(window) and O(run) for the flight
        recorder's repeated recent-window dumps. A ``complete()``
        call that back-dates an end clears the sorted flag and this
        degrades (correctly) to the linear scan.
        """
        if self._ends_sorted:
            lo = bisect_right(self._ends, t0)
            return [s for s in self.spans[lo:] if s.start < t1]
        return [s for s in self.spans
                if s.end is not None and s.end > t0 and s.start < t1]

    def find_span(self, cat: str, name: Optional[str] = None,
                  index: int = 0) -> Span:
        """The index-th closed span of a category (and optional name)."""
        matches = [s for s in self.all_spans(cat=cat)
                   if name is None or s.name == name]
        if not matches:
            raise KeyError(f"no span with cat={cat!r}"
                           + (f" name={name!r}" if name else ""))
        return matches[index]

    def clear(self) -> None:
        """Drop every record (the store, not the attachment)."""
        self.spans.clear()
        self.instants.clear()
        self.counters.clear()
        self._open.clear()
        self._ends.clear()
        self._ends_sorted = True

    def __repr__(self) -> str:
        ns = f" ns={self.namespace!r}" if self.namespace else ""
        ring = (f" ring={self.capacity}" if self.capacity is not None
                else "")
        return (f"<Tracer{ns}{ring} {len(self.spans)} spans "
                f"({len(self._open)} open), {len(self.instants)} "
                f"instants, {len(self.counters)} counter samples>")


def _environment_of(target):
    env = getattr(target, "env", None)
    return env if env is not None else target


def attach_tracer(target, namespace: Optional[str] = None,
                  capacity: Optional[int] = None) -> Tracer:
    """Create a :class:`Tracer` and attach it to the environment.

    ``target`` may be an :class:`~repro.sim.Environment` or anything
    carrying one as ``.env`` (a :class:`~repro.soc.SoCInstance`, a
    runtime, a server). Idempotent: an already-attached tracer is
    returned unchanged — unless it was attached under a different
    namespace, which raises (mirroring ``attach_metrics``) because
    silently re-labelling a fleet instance's records would corrupt the
    merged trace.
    """
    env = _environment_of(target)
    tracer = getattr(env, "tracer", None)
    if tracer is None:
        tracer = Tracer(env, namespace=namespace, capacity=capacity)
        env.tracer = tracer
    elif namespace is not None and tracer.namespace != namespace:
        raise ValueError(
            f"environment already has a tracer with namespace "
            f"{tracer.namespace!r}; refusing to re-attach as "
            f"{namespace!r}")
    return tracer


def detach_tracer(target) -> Optional[Tracer]:
    """Detach (and return) the environment's tracer, if any.

    After detaching, every instrumentation site is back to its
    disabled-cost path; the returned tracer still holds its records
    for export.
    """
    env = _environment_of(target)
    tracer = getattr(env, "tracer", None)
    env.tracer = None
    return tracer
