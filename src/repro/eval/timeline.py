"""Execution timelines: what each accelerator did, cycle by cycle.

Renders a text Gantt chart from the shared device-span store
(:mod:`repro.trace.store` — the same source the VCD exporter reads),
which makes the difference between the three execution modes visible
at a glance: serial staircases in ``base``, overlapping per-frame bars
in ``pipe``, one long streaming bar per device in ``p2p``. Columns
covered by a single invocation render as ``#``; columns where two
invocations of one device overlap (concurrent per-frame bars mapped to
the same column) render as ``@``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..trace.store import device_spans
from ..soc import SoCInstance

#: Gantt glyphs: one invocation covers the column / several overlap.
GANTT_BUSY = "#"
GANTT_OVERLAP = "@"


def utilization_by_device(soc: SoCInstance,
                          window: Optional[Tuple[int, int]] = None):
    """Fraction of the window each device spent executing.

    Spans are clipped to the window, and each device's busy total is
    clamped to the window length, so the result is always in
    ``[0, 1]`` even when a device's invocations overlap (double-booked
    cycles count once at the cap).
    """
    spans = device_spans(soc)
    if window is None:
        if not spans:
            return {}
        window = (min(s.start for s in spans), max(s.end for s in spans))
    lo, hi = window
    length = max(1, hi - lo)
    busy: Dict[str, int] = {}
    for span in spans:
        overlap = max(0, min(span.end, hi) - max(span.start, lo))
        busy[span.device] = busy.get(span.device, 0) + overlap
    return {device: min(cycles, length) / length
            for device, cycles in busy.items()}


def render_gantt(soc: SoCInstance, width: int = 72,
                 since_cycle: int = 0) -> str:
    """ASCII Gantt chart of accelerator activity."""
    spans = device_spans(soc, since_cycle=since_cycle)
    if not spans:
        return "(no accelerator activity)"
    t0 = min(s.start for s in spans)
    t1 = max(s.end for s in spans)
    scale = max(1, (t1 - t0)) / width

    devices = sorted({s.device for s in spans})
    label_width = max(len(d) for d in devices) + 2
    lines = [f"cycles {t0} .. {t1}  (one column ~ {scale:.0f} cycles)"]
    for device in devices:
        row = [" "] * width
        for span in spans:
            if span.device != device:
                continue
            lo = int((span.start - t0) / scale)
            hi = max(lo + 1, int((span.end - t0) / scale))
            for col in range(lo, min(hi, width)):
                row[col] = GANTT_BUSY if row[col] == " " \
                    else GANTT_OVERLAP
        lines.append(f"{device:<{label_width}}|{''.join(row)}|")
    util = utilization_by_device(soc, window=(t0, t1))
    lines.append("utilization: " + "  ".join(
        f"{device}={util.get(device, 0):.0%}" for device in devices))
    return "\n".join(lines)
