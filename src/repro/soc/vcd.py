"""VCD waveform export of a simulation run.

Dumps the signals a hardware engineer would probe on the real SoC —
per-accelerator ``busy`` and the occupancy of the NoC's DMA-plane
links — as a standard Value Change Dump file viewable in GTKWave &co.
Link signals require the SoC to be built with ``trace_links=True``
(:func:`repro.soc.build_soc`); accelerator signals come from the
shared device-span store (:mod:`repro.trace.store`), the same source
the Gantt chart and utilization summaries read.

Timebase: simulation timestamps are clock cycles, so the emitted
``$timescale`` is picoseconds with every timestamp multiplied by the
cycle period — a viewer then shows true wall-clock time for any SoC
clock (78 MHz has a non-integer period in ns, hence ps).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..trace.store import device_spans
from .soc_builder import SoCInstance

#: Printable VCD identifier characters.
_ID_CHARS = [chr(c) for c in range(33, 127)]


def _identifier(index: int) -> str:
    """Short unique VCD identifier for variable ``index``."""
    base = len(_ID_CHARS)
    out = ""
    index += 1
    while index:
        index, digit = divmod(index - 1, base)
        out = _ID_CHARS[digit] + out
    return out


def _sanitize(name: str) -> str:
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch in "._" else "_")
    return "".join(out)


#: Link wires in one dump: the busiest traced links.
MAX_LINKS = 16


def picoseconds_per_cycle(clock_mhz: float) -> int:
    """The VCD timestamp multiplier: one cycle's period in ps."""
    if clock_mhz <= 0:
        raise ValueError(f"clock_mhz must be > 0, got {clock_mhz}")
    return max(1, round(1e6 / clock_mhz))


def emit_vcd(soc: SoCInstance) -> str:
    """Render the run as VCD text.

    Accelerator ``busy`` wires toggle at invocation boundaries; link
    wires toggle with channel occupancy (only when the mesh recorded
    history). The ``MAX_LINKS`` busiest traced links are included.
    """
    changes: List[Tuple[int, str, int]] = []   # (time, id, value)
    variables: List[Tuple[str, str, str]] = []  # (scope, name, id)
    next_id = 0

    def new_var(scope: str, name: str) -> str:
        nonlocal next_id
        ident = _identifier(next_id)
        next_id += 1
        variables.append((scope, _sanitize(name), ident))
        return ident

    idents: Dict[str, str] = {}
    for device in sorted(soc.accelerators):
        idents[device] = new_var("accelerators", f"{device}_busy")
        changes.append((0, idents[device], 0))
    for span in device_spans(soc):
        changes.append((span.start, idents[span.device], 1))
        changes.append((span.end, idents[span.device], 0))

    traced = [link for _, link in soc.mesh.built_links()
              if link.channel.record_history and link.channel.history]
    traced.sort(key=lambda l: l.flits_carried, reverse=True)
    for link in traced[:MAX_LINKS]:
        label = (f"{link.src[0]}_{link.src[1]}__to__"
                 f"{link.dst[0]}_{link.dst[1]}__{link.plane}")
        ident = new_var("noc", label)
        changes.append((0, ident, 0))
        for when, in_use in link.channel.history:
            changes.append((when, ident, 1 if in_use else 0))

    # Header. Timestamps are cycles; the ps-per-cycle multiplier puts
    # the waveform on a true wall-clock timebase for any SoC clock.
    ps_per_cycle = picoseconds_per_cycle(soc.clock_mhz)
    lines = [
        "$date ESP4ML reproduction $end",
        f"$comment SoC {soc.name}; 1 cycle = {ps_per_cycle} ps "
        f"at {soc.clock_mhz} MHz $end",
        "$timescale 1 ps $end",
        f"$scope module {_sanitize(soc.name)} $end",
    ]
    current_scope = None
    for scope, name, ident in variables:
        if scope != current_scope:
            if current_scope is not None:
                lines.append("$upscope $end")
            lines.append(f"$scope module {scope} $end")
            current_scope = scope
        lines.append(f"$var wire 1 {ident} {name} $end")
    if current_scope is not None:
        lines.append("$upscope $end")
    lines.append("$upscope $end")
    lines.append("$enddefinitions $end")

    # Value changes, grouped by time; later changes at the same time
    # override earlier ones per identifier (so the falling edge of one
    # invocation and the rising edge of a back-to-back successor at the
    # same cycle collapse to "still busy").
    by_time: Dict[int, Dict[str, int]] = {}
    for when, ident, value in changes:
        by_time.setdefault(when, {})[ident] = value
    for when in sorted(by_time):
        lines.append(f"#{when * ps_per_cycle}")
        for ident, value in by_time[when].items():
            lines.append(f"{value}{ident}")
    lines.append(f"#{soc.env.now * ps_per_cycle}")
    return "\n".join(lines) + "\n"
