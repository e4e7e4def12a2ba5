"""Trace exporters: Chrome trace-event JSON and a text flame summary.

The Chrome trace-event format (the JSON consumed by Perfetto and
``chrome://tracing``) maps naturally onto the tracer's records:

- ``pid`` = tile / subsystem, ``tid`` = engine inside it — so Perfetto
  renders one process group per tile with one row per engine, which is
  exactly how a hardware engineer reads the SoC;
- closed spans export as complete events (``ph: "X"``); categories
  whose spans legitimately overlap on one track (NoC packets, kernel
  processes, serve requests) export as async begin/end pairs
  (``ph: "b"``/``"e"``) so the viewer nests them correctly;
- still-open spans are clamped to the export cycle and flagged with an
  ``"open": true`` arg, so a mid-run or postmortem dump is always a
  valid trace instead of silently losing in-flight work;
- instants and counters export as ``ph: "i"`` / ``ph: "C"``.

Fleet merge: :func:`merge_chrome_traces` folds the namespaced tracers
of every :class:`~repro.fleet.FleetInstance` into one trace — each
instance's tracks are prefixed ``"{namespace}/"`` (so ``i0/serve``,
``i1/serve`` render as separate process groups) and the router's
:class:`~repro.fleet.RouterDecision` log becomes instants on a
``router`` track carrying the same ``trace_id`` as the instance-side
spans, which is what lets one ID reconstruct a request's waterfall
across the routing boundary. The merge assumes the instances share a
timebase (the lockstep :class:`~repro.fleet.Fleet` starts every
instance at cycle 0 and advances them together, so they do).

Timestamps: the trace-event ``ts`` unit is microseconds; cycles
convert with the SoC clock (``ts = cycle / clock_mhz``).
"""

from __future__ import annotations

import json
from collections import defaultdict
from operator import attrgetter
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from .tracer import Tracer

#: Categories whose spans may overlap on one (pid, tid) track and are
#: therefore exported as async events instead of complete events.
ASYNC_CATEGORIES = ("noc.packet", "sim.process", "serve.request",
                    "runtime.run")


def _is_async(cat: str) -> bool:
    return any(cat == a or cat.startswith(a + ".")
               for a in ASYNC_CATEGORIES)


class _Emitter:
    """Shared event emitter for single-tracer and merged exports."""

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []
        self._pids: Dict[str, int] = {}
        self._tids: Dict[Tuple[str, str], int] = {}

    def pid_of(self, label: str) -> int:
        if label not in self._pids:
            self._pids[label] = len(self._pids) + 1
            self.events.append({"ph": "M", "name": "process_name",
                                "pid": self._pids[label], "tid": 0,
                                "args": {"name": label}})
        return self._pids[label]

    def tid_of(self, pid_label: str, tid_label: str) -> int:
        key = (pid_label, tid_label)
        if key not in self._tids:
            self._tids[key] = len(self._tids) + 1
            self.events.append({"ph": "M", "name": "thread_name",
                                "pid": self.pid_of(pid_label),
                                "tid": self._tids[key],
                                "args": {"name": tid_label}})
        return self._tids[key]

    def emit_tracer(self, tracer: Tracer, scale: float,
                    prefix: str = "") -> None:
        """All of one tracer's records, tracks prefixed by ``prefix``.

        Async event ids take the same prefix (each tracer numbers its
        spans independently, so bare sids would collide in a merge).
        """
        now = tracer.env.now
        order = attrgetter("start", "sid")
        for span in (sorted(tracer.spans, key=order)
                     + sorted(tracer.open_spans, key=order)):
            pid_label = prefix + span.pid
            pid = self.pid_of(pid_label)
            tid = self.tid_of(pid_label, span.tid)
            args = span.args   # built for this read: ours to extend
            end = span.end
            if end is None:
                args["open"] = True
                end = max(now, span.start)
            base = {"name": span.name, "cat": span.cat, "pid": pid,
                    "tid": tid, "args": args}
            if _is_async(span.cat):
                sid = f"{prefix}{span.sid}" if prefix else span.sid
                self.events.append({**base, "ph": "b", "id": sid,
                                    "ts": span.start * scale})
                self.events.append({**base, "ph": "e", "id": sid,
                                    "ts": end * scale})
            else:
                self.events.append({**base, "ph": "X",
                                    "ts": span.start * scale,
                                    "dur": (end - span.start) * scale})
        for instant in tracer.instants:
            pid_label = prefix + instant.pid
            self.events.append({"ph": "i", "s": "t",
                                "name": instant.name,
                                "cat": instant.cat,
                                "pid": self.pid_of(pid_label),
                                "tid": self.tid_of(pid_label,
                                                   instant.tid),
                                "ts": instant.ts * scale,
                                "args": instant.args})
        for sample in tracer.counters:
            self.events.append({"ph": "C", "name": sample.name,
                                "pid": self.pid_of(prefix + sample.pid),
                                "tid": 0,
                                "ts": sample.ts * scale,
                                "args": dict(sample.values)})

    def emit_decisions(self, decisions: Iterable[Any],
                       scale: float) -> None:
        """Router decisions as instants on a ``router`` track."""
        for decision in decisions:
            args: Dict[str, Any] = {
                "instance": decision.instance,
                "policy": decision.policy,
                "shard": list(decision.shard),
                "score": decision.score,
            }
            trace_id = getattr(decision, "trace_id", None)
            if trace_id is not None:
                args["trace_id"] = trace_id
            self.events.append({"ph": "i", "s": "t",
                                "name": decision.tenant,
                                "cat": "fleet.route",
                                "pid": self.pid_of("router"),
                                "tid": self.tid_of("router", "route"),
                                "ts": decision.at * scale,
                                "args": args})


def to_chrome_trace(tracer: Tracer, clock_mhz: float = 1.0) -> Dict[str, Any]:
    """Render the tracer's records as a Chrome trace-event object."""
    if clock_mhz <= 0:
        raise ValueError(f"clock_mhz must be > 0, got {clock_mhz}")
    scale = 1.0 / clock_mhz   # cycles -> microseconds
    emitter = _Emitter()
    emitter.emit_tracer(tracer, scale)
    return {
        "traceEvents": emitter.events,
        "displayTimeUnit": "ns",
        "otherData": {
            "clock_mhz": clock_mhz,
            "spans": len(tracer.spans),
            "open_spans": len(tracer.open_spans),
            "dropped": tracer.dropped,
        },
    }


def merge_chrome_traces(tracers: Mapping[str, Tracer],
                        clock_mhz: float = 1.0,
                        decisions: Iterable[Any] = ()
                        ) -> Dict[str, Any]:
    """One fleet-wide Chrome trace from many namespaced tracers.

    ``tracers`` maps a namespace to each instance's tracer; the
    namespace becomes the track prefix (``"{ns}/{pid}"``). A tracer
    that carries its own ``namespace`` must agree with its key —
    mismatches raise.
    ``decisions`` (the fleet router's ``RouterDecision`` log) export
    as instants on a shared ``router`` track, each carrying the
    ``trace_id`` it minted for the routed request.
    """
    if clock_mhz <= 0:
        raise ValueError(f"clock_mhz must be > 0, got {clock_mhz}")
    if not tracers:
        raise ValueError("merge_chrome_traces needs at least one tracer")
    scale = 1.0 / clock_mhz
    emitter = _Emitter()
    total_spans = total_open = total_dropped = 0
    for name, tracer in tracers.items():
        if not name:
            raise ValueError("merged tracers need non-empty namespaces")
        if tracer.namespace is not None and tracer.namespace != name:
            raise ValueError(
                f"tracer namespace {tracer.namespace!r} does not match "
                f"merge key {name!r}")
        emitter.emit_tracer(tracer, scale, prefix=f"{name}/")
        total_spans += len(tracer.spans)
        total_open += len(tracer.open_spans)
        total_dropped += tracer.dropped
    decisions = list(decisions)
    emitter.emit_decisions(decisions, scale)
    return {
        "traceEvents": emitter.events,
        "displayTimeUnit": "ns",
        "otherData": {
            "clock_mhz": clock_mhz,
            "instances": list(tracers),
            "spans": total_spans,
            "open_spans": total_open,
            "dropped": total_dropped,
            "router_decisions": len(decisions),
        },
    }


def write_chrome_trace(tracer: Tracer, path: str,
                       clock_mhz: float = 1.0) -> Dict[str, Any]:
    """Serialize :func:`to_chrome_trace` to ``path``; returns the obj."""
    trace = to_chrome_trace(tracer, clock_mhz=clock_mhz)
    with open(path, "w") as handle:
        json.dump(trace, handle)
    return trace


def validate_chrome_trace(trace: Dict[str, Any],
                          tolerance: float = 1e-6) -> List[str]:
    """Schema/consistency check of a trace-event object.

    Returns a list of problems (empty = valid): required keys present,
    timestamps non-negative, durations non-negative, async begin/end
    balanced, and complete events on each (pid, tid) track either
    disjoint or properly nested — the invariant Perfetto's renderer
    assumes. ``tolerance`` (µs; default one picosecond) absorbs the
    float rounding of the cycle→µs conversion at shared boundaries.
    """
    problems: List[str] = []
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    per_track: Dict[Tuple[int, int], List[Tuple[float, float]]] = \
        defaultdict(list)
    async_open: Dict[Tuple[str, Any], int] = defaultdict(int)
    for index, event in enumerate(events):
        ph = event.get("ph")
        if ph is None or "name" not in event or "pid" not in event:
            problems.append(f"event {index}: missing ph/name/pid")
            continue
        if ph == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"event {index}: bad ts {ts!r}")
            continue
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"event {index}: bad dur {dur!r}")
                continue
            per_track[(event["pid"], event.get("tid", 0))].append(
                (float(ts), float(ts) + float(dur)))
        elif ph == "b":
            async_open[(event["name"], event.get("id"))] += 1
        elif ph == "e":
            key = (event["name"], event.get("id"))
            if async_open.get(key, 0) < 1:
                problems.append(f"event {index}: async end without begin")
            else:
                async_open[key] -= 1
    for key, count in async_open.items():
        if count:
            problems.append(f"async event {key[0]!r} left {count} open")
    for track, intervals in per_track.items():
        stack: List[float] = []
        # Containers sort before their contents at equal starts.
        for start, end in sorted(intervals, key=lambda iv: (iv[0], -iv[1])):
            while stack and stack[-1] <= start + tolerance:
                stack.pop()
            if stack and end > stack[-1] + tolerance:
                problems.append(
                    f"track pid={track[0]} tid={track[1]}: span "
                    f"[{start}, {end}) straddles an enclosing span "
                    f"ending at {stack[-1]}")
                continue
            stack.append(end)
    return problems


def flame_summary(tracer: Tracer, top: int = 20,
                  clock_mhz: Optional[float] = None) -> str:
    """Aggregate busy cycles per (track, category), hottest first.

    The text cousin of a flame graph: one line per (pid, tid, cat)
    with total cycles, span count and mean span length — the quickest
    answer to "where did the cycles go?" without leaving the terminal.
    """
    totals: Dict[Tuple[str, str, str], List[int]] = defaultdict(
        lambda: [0, 0])
    for span in tracer.spans:
        entry = totals[(span.pid, span.tid, span.cat)]
        entry[0] += span.end - span.start
        entry[1] += 1
    ranked = sorted(totals.items(), key=lambda kv: -kv[1][0])[:top]
    unit = "cycles" if clock_mhz is None else "us"
    scale = 1.0 if clock_mhz is None else 1.0 / clock_mhz
    lines = [f"== flame summary: top {len(ranked)} tracks by busy "
             f"{unit} ==",
             f"{'track':<44}{'category':<18}{'busy':>12}{'spans':>8}"
             f"{'mean':>10}"]
    for (pid, tid, cat), (busy, count) in ranked:
        mean = busy / count if count else 0.0
        lines.append(f"{pid + ' / ' + tid:<44}{cat:<18}"
                     f"{busy * scale:>12,.1f}{count:>8}"
                     f"{mean * scale:>10.1f}")
    return "\n".join(lines)
