"""The shared device-span store behind every activity renderer.

The VCD exporter, the text Gantt chart and the utilization summaries
all answer the same question — *when was each accelerator busy?* —
so they all consume one span source instead of each re-deriving it:
:func:`device_spans`, read from the per-tile invocation records every
socket keeps (always available, tracing or not). A tracer's
``acc.invocation`` spans are written from the same records, so there
is no second producer to keep in agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class DeviceSpan:
    """One busy interval of one device, in cycles."""

    device: str
    start: int
    end: int

    @property
    def cycles(self) -> int:
        return self.end - self.start


def device_spans(soc, since_cycle: int = 0) -> List[DeviceSpan]:
    """Invocation spans of every accelerator of ``soc``, start-ordered.

    ``since_cycle`` drops spans that ended at or before the cut —
    the "what happened since my last snapshot" view.
    """
    spans = [DeviceSpan(name, inv.start_cycle, inv.end_cycle)
             for name, tile in soc.accelerators.items()
             for inv in tile.invocations
             if inv.end_cycle > since_cycle]
    return sorted(spans, key=lambda s: (s.start, s.device))
