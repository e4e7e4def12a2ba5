"""Critical-path attribution: explain one latency with named segments.

The paper's headline numbers (Fig. 7) are *gaps* — base vs pipe vs
p2p — and the explanation of each gap is an attribution question:
of one frame's end-to-end latency, how much was kernel compute, how
much NoC traversal, how much DMA, how much software synchronization,
how much queueing? This module answers it from the tracer's records.

Method: pick the window to explain (a ``runtime.run`` span, one
``serve.request`` span, or an explicit ``[t0, t1)``), cut it at every
span boundary inside it, and attribute each elementary segment to the
most-specific activity running during it. Specificity follows the
hardware: an IRQ wait that overlaps a kernel COMPUTE phase is compute
time (the software is merely observing the hardware make progress),
so the precedence runs

    compute > dma > noc > software > queue > sync > other

and whatever no span covers is reported as ``unattributed`` — the
honesty metric: a well-instrumented run attributes ≥ 95%.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .tracer import Span, Tracer

#: Attribution groups in precedence order (first wins a segment).
GROUP_PRECEDENCE = ("compute", "dma", "noc", "software", "queue",
                    "sync", "other")

#: Category prefix -> attribution group. First match (longest prefix
#: listed first) wins; categories with no entry fall into ``other``.
CATEGORY_GROUPS: Tuple[Tuple[str, str], ...] = (
    ("acc.compute", "compute"),
    ("acc.load", "dma"),
    ("acc.store", "dma"),
    ("coh", "dma"),          # coh.load / coh.store / coh.directory
    ("dma", "dma"),
    ("noc", "noc"),
    ("runtime.ioctl", "software"),
    ("runtime.config", "software"),
    ("runtime.spawn", "software"),
    ("runtime.software", "software"),
    ("runtime.sync", "sync"),
    ("runtime.irq_wait", "sync"),
    ("serve.grant_wait", "queue"),
    ("serve.queue", "queue"),
)


def group_of(cat: str) -> str:
    for prefix, group in CATEGORY_GROUPS:
        if cat == prefix or cat.startswith(prefix + "."):
            return group
    return "other"


@dataclass(frozen=True)
class AttributionSegment:
    """One elementary slice of the window and who owns it."""

    start: int
    end: int
    group: str
    cat: str   # the winning span's category ("" when unattributed)

    @property
    def cycles(self) -> int:
        return self.end - self.start


@dataclass
class AttributionReport:
    """Where every cycle of one window went."""

    t0: int
    t1: int
    label: str
    segments: List[AttributionSegment]
    by_group: Dict[str, int] = field(default_factory=dict)
    by_category: Dict[str, int] = field(default_factory=dict)

    @property
    def total_cycles(self) -> int:
        return self.t1 - self.t0

    @property
    def unattributed_cycles(self) -> int:
        return self.total_cycles - sum(self.by_group.values())

    @property
    def coverage(self) -> float:
        """Fraction of the window attributed to a named group."""
        if self.total_cycles == 0:
            return 1.0
        return 1.0 - self.unattributed_cycles / self.total_cycles

    def fraction(self, group: str) -> float:
        if self.total_cycles == 0:
            return 0.0
        return self.by_group.get(group, 0) / self.total_cycles

    def render(self) -> str:
        lines = [f"== critical path: {self.label} "
                 f"[{self.t0} .. {self.t1}] = "
                 f"{self.total_cycles:,} cycles ==",
                 f"{'group':<12}{'cycles':>12}{'share':>9}"]
        for group in GROUP_PRECEDENCE:
            cycles = self.by_group.get(group, 0)
            if cycles:
                lines.append(f"{group:<12}{cycles:>12,}"
                             f"{cycles / self.total_cycles:>9.1%}")
        if self.unattributed_cycles:
            lines.append(f"{'(none)':<12}{self.unattributed_cycles:>12,}"
                         f"{1 - self.coverage:>9.1%}")
        lines.append(f"coverage: {self.coverage:.1%} attributed")
        top = sorted(self.by_category.items(), key=lambda kv: -kv[1])[:8]
        for cat, cycles in top:
            lines.append(f"  {cat:<24}{cycles:>12,} cycles")
        return "\n".join(lines)


def attribute_interval(tracer: Tracer, t0: int, t1: int,
                       label: str = "interval",
                       exclude_sids: Tuple[int, ...] = ()
                       ) -> AttributionReport:
    """Attribute every cycle of ``[t0, t1)`` to one group.

    ``exclude_sids`` removes the window-defining span itself (and any
    other wrappers) so an all-enclosing ``runtime.run`` span cannot
    claim its own cycles.
    """
    if t1 < t0:
        raise ValueError(f"window ends at {t1} before start {t0}")
    spans = [s for s in tracer.spans_between(t0, t1)
             if s.sid not in exclude_sids]
    cuts = sorted({t0, t1, *(max(t0, s.start) for s in spans),
                   *(min(t1, s.end) for s in spans)})
    add_at: Dict[int, List[Span]] = {}
    remove_at: Dict[int, List[Span]] = {}
    for span in spans:
        add_at.setdefault(max(t0, span.start), []).append(span)
        remove_at.setdefault(min(t1, span.end), []).append(span)
    segments: List[AttributionSegment] = []
    by_group: Dict[str, int] = {}
    by_category: Dict[str, int] = {}
    rank = {group: i for i, group in enumerate(GROUP_PRECEDENCE)}
    active: Dict[int, Span] = {}
    for lo, hi in zip(cuts, cuts[1:]):
        for span in remove_at.get(lo, ()):
            active.pop(span.sid, None)
        for span in add_at.get(lo, ()):
            if span.end > lo:   # zero-length spans never own a segment
                active[span.sid] = span
        winner: Optional[Span] = None
        winner_rank = len(GROUP_PRECEDENCE)
        for span in active.values():
            r = rank[group_of(span.cat)]
            if r < winner_rank:
                winner, winner_rank = span, r
        if winner is None:
            segments.append(AttributionSegment(lo, hi, "unattributed",
                                               ""))
            continue
        group = GROUP_PRECEDENCE[winner_rank]
        segments.append(AttributionSegment(lo, hi, group, winner.cat))
        by_group[group] = by_group.get(group, 0) + (hi - lo)
        by_category[winner.cat] = \
            by_category.get(winner.cat, 0) + (hi - lo)
    return AttributionReport(t0=t0, t1=t1, label=label,
                             segments=segments, by_group=by_group,
                             by_category=by_category)


def analyze_span(tracer: Tracer, span: Span) -> AttributionReport:
    """Attribute the window of one closed span (excluding itself)."""
    if span.end is None:
        raise ValueError(f"span {span.name!r} is still open")
    return attribute_interval(tracer, span.start, span.end,
                              label=f"{span.cat}:{span.name}",
                              exclude_sids=(span.sid,))


def analyze_run(tracer: Tracer, index: int = 0) -> AttributionReport:
    """Attribute the index-th ``runtime.run`` span (one esp_run)."""
    return analyze_span(tracer, tracer.find_span("runtime.run",
                                                 index=index))
