"""The cycle-level event tracer: spans, instants and counters.

ESP instruments its SoCs with hardware performance monitors that are
always on and read on demand; the companion papers read them out to
explain *where cycles go* (per-accelerator busy time, NoC-plane
traffic, ioctl overhead). This module is the simulated equivalent: a
single :class:`Tracer` attached to the simulation
:class:`~repro.sim.Environment` that every layer of the stack reports
into — kernel process lifetimes, NoC packet and link traversals, DMA
transactions, accelerator LOAD/COMPUTE/STORE phases, runtime executor
phases (ioctl, register programming, IRQ wait) and serve-layer
queue/batch/grant events.

Design rules:

- **Zero timing impact.** Recording never yields, never schedules an
  event and never advances the clock, so a traced run is cycle-for-
  cycle identical to an untraced one.
- **Near-zero overhead when disabled.** Instrumentation sites guard
  with ``env.tracer is None`` — one attribute load and a pointer
  compare, mirroring the fault-injection hooks.
- **Record flat, read rich.** A record is one call, one fixed-shape
  tuple of what the site passed (track, name, category, cycle, args)
  plus the bindings snapshot live at that cycle, and one append.
  :class:`Span`, :class:`Instant` and :class:`CounterSample` objects
  and their trace IDs are built only when read — by the exporters,
  ``trace-query``, the critical path and flight-recorder dumps;
  ``len()`` of a record view and ``dropped`` build nothing. A span's
  ``children`` (a NoC packet's link hops) are ``(start, sid)`` pairs
  its record carries, read back as spans before it (see ``begin``).

Tracks: every record carries a ``(pid, tid)`` pair — process and
thread labels in Chrome-trace terms. By convention ``pid`` names the
tile (or subsystem: ``cpu``, ``noc``, ``serve``, ``sim``) and ``tid``
names the engine inside it (``wrapper``, ``dma.load``, a plane name,
a driver thread).

- **Flight-recorder mode** (``capacity=``): each record list is a
  bounded ring, so an always-on tracer cannot grow without bound on a
  long serving run. At least the last ``capacity`` records of each
  kind are retained and a list never holds more than ``2*capacity``:
  the append that takes it past that drops all but the newest
  ``capacity`` in one ``del`` (O(1) amortized), counted in
  ``dropped_spans`` / ``dropped_instants`` / ``dropped_counters``.
  Open spans are never evicted. A span weighs 1 plus its children
  and goes whole, so a cut may keep that many fewer spans.
- **Trace-context bindings** (``bind``/``unbind``): the serve layer
  binds the tiles it was exclusively granted to the dispatched batch's
  trace IDs, and every span/instant recorded on a bound key — a device
  ``pid``, a ``(pid, tid)`` driver track, or a NoC packet whose
  ``src``/``dst`` arg names a bound tile — reads back with
  ``trace_id`` (and ``trace_ids`` for a coalesced batch). An explicit
  ``trace_id`` arg wins, then the track, the ``pid``, ``src`` and
  ``dst``. Binding replaces the bindings dict instead of mutating it,
  so each record resolves against the bindings of its record cycle.
"""
from __future__ import annotations

import itertools
import sys
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import itemgetter
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Tuple


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


# Record layouts. An open span is (sid, pid, tid, name, cat, start,
# args, bindings, children), where children is None or the
# (cat, tracks, args, starts) of begin; closing it appends (open span,
# end, closing args).
# An instant is (pid, tid, name, cat, ts, args, bindings), a counter
# sample (pid, name, ts, values).
_END = itemgetter(1)


def _resolve(pid: str, tid: str, args: Dict[str, Any],
             bindings: Mapping[Any, Tuple[str, ...]],
             extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """A copy of a record's args with the trace IDs its bindings
    snapshot gives it, then the closing args of ``end``."""
    args = dict(args)
    if bindings and "trace_id" not in args:
        for key in ((pid, tid), pid, args.get("src"), args.get("dst")):
            ids = None if key is None else bindings.get(key)
            if ids is not None:
                args["trace_id"] = ids[0]
                if len(ids) > 1:
                    args["trace_ids"] = ids
                break
    if extra:
        args.update(extra)
    return args


def _in_cat(cat: str, prefix: Optional[str]) -> bool:
    """Whether ``cat`` is ``prefix`` or one of its dotted subcategories
    (any category when ``prefix`` is None)."""
    return prefix is None or cat == prefix or cat.startswith(prefix + ".")


def _children(record: tuple) -> int:
    """How many child spans an open span record carries."""
    children = record[8]
    return 0 if children is None else len(children[3])


def _spans(record: tuple, end: Optional[int] = None,
           extra: Optional[Dict[str, Any]] = None,
           cat: Optional[str] = None) -> List[Span]:
    """A span record read back: its child spans, then itself; only
    those in category ``cat`` are built when it is given."""
    sid, pid, tid, name, own_cat, start, args, bindings, children = record
    spans = []
    if children is not None and _in_cat(children[0], cat):
        child_cat, tracks, child_args, starts = children
        spans = [Span(child, pid, track, name, child_cat, begun, end,
                      _resolve(pid, track, child_args, bindings))
                 for track, (begun, child) in zip(tracks, starts)]
    if _in_cat(own_cat, cat):
        spans.append(Span(sid, pid, tid, name, own_cat, start, end,
                          _resolve(pid, tid, args, bindings, extra)))
    return spans


def _instant(pid: str, tid: str, name: str, cat: str, ts: int,
             args: Dict[str, Any], bindings) -> Instant:
    return Instant(pid, tid, name, cat, ts,
                   _resolve(pid, tid, args, bindings))


class RecordView(Sequence):
    """A read-only sequence over one kind of flat record: ``len()``
    counts the records, indexing and iteration build each record's
    object when it is read."""

    def __init__(self, records: List[tuple], build) -> None:
        self._records = records
        self._build = build

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._build(r) for r in self._records[index]]
        return self._build(self._records[index])


class SpanView(RecordView):
    """The closed spans: a record reads back as its child spans, then
    itself. ``len()`` counts them without building anything, and an
    index builds only the record that holds it."""

    def __init__(self, tracer: "Tracer") -> None:
        super().__init__(tracer._spans, None)
        self._children = tracer._child_spans

    def __len__(self) -> int:
        return len(self._records) + self._children

    def __iter__(self):
        for record in self._records:
            yield from _spans(*record)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        # Walk the record weights from the end the index counts from.
        back = index < 0
        rest = ~index if back else index
        for record in reversed(self._records) if back else self._records:
            weight = 1 + _children(record[0])
            if rest < weight:
                return _spans(*record)[~rest if back else rest]
            rest -= weight
        raise IndexError("span index out of range")


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
        # A record list longer than this is cut back to ``capacity``.
        self._limit = sys.maxsize if capacity is None else 2 * capacity
        self._spans: List[tuple] = []
        self._instants: List[tuple] = []
        self._counters: List[tuple] = []
        self.dropped_spans = 0
        self.dropped_instants = 0
        self.dropped_counters = 0
        self._child_spans = 0   # the children of the closed records
        self._open: Dict[int, tuple] = {}
        #: Draws the next span id; a child span's site draws its own.
        self.next_sid = itertools.count().__next__
        # Spans append when they close, so their end cycles are
        # monotone unless a complete() back-dates an end — tracked by
        # the flag, which keeps spans_between on its bisect path.
        self._ends_sorted = True
        # Trace-context bindings: key -> tuple of trace ids. Keys are
        # device pids, (pid, tid) tracks, or tile-coordinate strings
        # matched against NoC packet src/dst args. Replaced, never
        # mutated: records keep the snapshot live when recorded.
        self._bindings: Dict[Any, Tuple[str, ...]] = {}

    # -- trace-context propagation ----------------------------------------

    def bind(self, key: Any, trace_ids: Tuple[str, ...]) -> None:
        """Attribute records on ``key`` to ``trace_ids`` until unbound.

        ``key`` is matched against a record's ``pid``, its
        ``(pid, tid)`` pair, and — for NoC packet spans — its
        ``src``/``dst`` args. Binding an empty ID tuple is a no-op.
        """
        if trace_ids:
            self._bindings = {**self._bindings, key: tuple(trace_ids)}

    def unbind(self, key: Any) -> None:
        """Remove a binding (missing keys are ignored)."""
        if key in self._bindings:
            self._bindings = {k: ids for k, ids in self._bindings.items()
                              if k != key}

    @property
    def bindings(self) -> Mapping[Any, Tuple[str, ...]]:
        """The live bindings (read-only): key -> trace IDs."""
        return MappingProxyType(self._bindings)

    # -- recording ---------------------------------------------------------

    def begin(self, pid: str, tid: str, name: str, cat: str,
              children: Optional[tuple] = None, /, **args: Any) -> int:
        """Open a span at the current cycle; returns its id.

        ``children`` is ``(cat, tracks, args, starts)``: the site
        appends a ``(start cycle, sid from next_sid)`` pair to
        ``starts`` per child, read back as a span on the matching
        track that ends with this one."""
        sid = self.next_sid()
        self._open[sid] = (sid, pid, tid, name, cat, self.env.now, args,
                           self._bindings, children)
        return sid

    def end(self, sid: int, **args: Any) -> None:
        """Close the span at the current cycle (extra args merge in)."""
        record = self._open.pop(sid, None)
        if record is None:
            raise KeyError(f"no open span with id {sid}")
        spans = self._spans
        spans.append((record, self.env.now, args))
        if record[8] is not None:
            self._child_spans += len(record[8][3])
        if len(spans) + self._child_spans > self._limit:
            self._evict_spans()

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
                 start: int, end: int, **args: Any) -> None:
        """Record an already-finished interval in one call."""
        if end < start:
            raise ValueError(f"span ends at {end} before start {start}")
        spans = self._spans
        if self._ends_sorted and spans and end < spans[-1][1]:
            # A back-dated end breaks the record-order monotonicity;
            # spans_between falls back to the linear scan.
            self._ends_sorted = False
        spans.append(((self.next_sid(), pid, tid, name, cat, start, args,
                       self._bindings, None), end, None))
        if len(spans) + self._child_spans > self._limit:
            self._evict_spans()

    def instant(self, pid: str, tid: str, name: str, cat: str,
                **args: Any) -> None:
        instants = self._instants
        instants.append((pid, tid, name, cat, self.env.now, args,
                         self._bindings))
        if len(instants) > self._limit:
            self.dropped_instants += self._evict(instants)

    def counter(self, pid: str, name: str, **values: float) -> None:
        counters = self._counters
        counters.append((pid, name, self.env.now, values))
        if len(counters) > self._limit:
            self.dropped_counters += self._evict(counters)

    def _evict(self, records: List[tuple]) -> int:
        drop = len(records) - self.capacity
        del records[:drop]
        return drop

    def _evict_spans(self) -> None:
        excess = len(self._spans) + self._child_spans - self.capacity
        drop = dropped = 0
        while dropped < excess:
            dropped += 1 + _children(self._spans[drop][0])
            drop += 1
        del self._spans[:drop]
        self._child_spans -= dropped - drop
        self.dropped_spans += dropped
        if not self._ends_sorted:
            # Cheap re-check: eviction may have dropped the
            # out-of-order prefix, restoring the fast path.
            ends = [record[1] for record in self._spans]
            self._ends_sorted = all(a <= b for a, b in zip(ends, ends[1:]))

    @property
    def dropped(self) -> int:
        """Total records evicted by flight-recorder compaction."""
        return (self.dropped_spans + self.dropped_instants
                + self.dropped_counters)

    # -- queries -----------------------------------------------------------

    @property
    def spans(self) -> SpanView:
        """Closed spans, in the order they closed."""
        return SpanView(self)

    @property
    def instants(self) -> RecordView:
        return RecordView(self._instants, lambda record: _instant(*record))

    @property
    def counters(self) -> RecordView:
        return RecordView(self._counters,
                          lambda record: CounterSample(*record))

    @property
    def open_spans(self) -> List[Span]:
        """Open spans, in the order they began."""
        return sorted((s for r in self._open.values() for s in _spans(r)),
                      key=lambda span: span.sid)

    def all_spans(self, cat: Optional[str] = None) -> List[Span]:
        """Closed spans in start order, optionally filtered by category
        prefix.

        A ``cat`` of ``"dma"`` matches ``dma.load``, ``dma.store``, ...
        (exact segment-prefix match, so ``"acc"`` does not match
        ``"accel"``).
        """
        spans = [s for r in self._spans for s in _spans(*r, cat=cat)]
        return sorted(spans, key=lambda s: (s.start, s.sid))

    def spans_between(self, t0: int, t1: int) -> List[Span]:
        """Closed spans overlapping the window ``[t0, t1)``.

        Spans append when they *close*, and every recording path
        closes at (or before) the current cycle, so the closed records
        are monotone in end cycle and the window's left edge is found
        with ``bisect`` instead of scanning the whole history — the
        difference between O(window) and O(run) for the flight
        recorder's repeated recent-window dumps. A ``complete()``
        call that back-dates an end clears the sorted flag and this
        degrades (correctly) to the linear scan.
        """
        records = self._spans
        if self._ends_sorted:
            records = records[bisect_right(records, t0, key=_END):]
        else:
            records = [r for r in records if r[1] > t0]
        return [s for r in records for s in _spans(*r) if s.start < t1]

    def find_span(self, cat: str, name: Optional[str] = None,
                  index: int = 0) -> Span:
        """The index-th closed span of a category (and optional name)."""
        matches = [s for s in self.all_spans(cat=cat)
                   if name is None or s.name == name]
        if not matches:
            raise KeyError(f"no span with cat={cat!r}"
                           + (f" name={name!r}" if name else ""))
        return matches[index]

    def __repr__(self) -> str:
        ns = f" ns={self.namespace!r}" if self.namespace else ""
        ring = (f" ring={self.capacity}" if self.capacity is not None
                else "")
        return (f"<Tracer{ns}{ring} {len(self.spans)} spans "
                f"({len(self.open_spans)} open), {len(self._instants)} "
                f"instants, {len(self._counters)} counter samples>")


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
