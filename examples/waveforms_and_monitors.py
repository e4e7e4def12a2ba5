#!/usr/bin/env python
"""Hardware-engineer views of a run: monitors, Gantt and VCD.

Runs the 4NV+4Cl pipeline and produces the three observability
artifacts the repository offers:

- the SoC monitor report (every hardware counter),
- an ASCII Gantt chart of accelerator activity,
- a VCD waveform (viewable in GTKWave) with accelerator-busy and
  NoC-link-occupancy signals, the latter drawn from the ``noc.link``
  spans of the tracer attached to the SoC.

Run:  python examples/waveforms_and_monitors.py [out.vcd]
"""

import sys

from repro.eval import APP_CONFIGS, render_gantt
from repro.runtime import EspRuntime
from repro.eval.apps import build_soc1
from repro.soc import emit_vcd, read_monitors
from repro.trace import attach_tracer


def main(vcd_path: str = "artifacts/run.vcd"):
    config = APP_CONFIGS["4nv_4cl"]
    # Trace SoC-1 so the VCD gets NoC occupancy signals: the link
    # wires are drawn from the tracer's noc.link spans.
    soc = build_soc1()
    attach_tracer(soc)
    runtime = EspRuntime(soc)
    frames, _ = config.make_inputs(12)
    result = runtime.esp_run(config.build_dataflow(), frames, mode="p2p")
    print(f"4nv_4cl p2p: {result.frames_per_second:,.0f} frames/s\n")

    print(read_monitors(soc).to_text())
    print()
    print(render_gantt(soc))

    vcd = emit_vcd(soc)
    from pathlib import Path
    path = Path(vcd_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(vcd)
    print(f"\nwrote {len(vcd.splitlines()):,}-line VCD to {path} "
          f"(open with GTKWave)")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "artifacts/run.vcd")
