"""Table I reproduction: resources, power and frames/s per platform.

Paper Table I ("summary of results using the best-case configuration")
reports, for the three applications:

- FPGA utilization (LUT/FF/BRAM %) and dynamic power of the hosting SoC,
- frames/s on the ESP4ML SoC, an Intel i7-8700K and a Jetson TX1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..hls import XCVU9P
from ..platforms import (
    INTEL_I7_8700K,
    JETSON_TX1,
    PAPER_FPS,
    PAPER_SOC_POWER_W,
    PAPER_UTILIZATION,
    soc_power_watts,
)
from .apps import APP_CONFIGS, BEST_CASE, build_soc1, build_soc2
from .harness import Evaluation, format_table


@dataclass
class Table1Column:
    """One application column of Table I, each cell beside the paper's."""

    cluster: str              # nv_cl | de_cl | multitile
    app_key: str              # best-case configuration key
    luts: float
    paper_luts: float
    ffs: float
    paper_ffs: float
    brams: float
    paper_brams: float
    power_watts: float
    paper_power_watts: float
    fps_esp4ml: float
    paper_fps_esp4ml: float
    fps_i7: float
    paper_fps_i7: float
    fps_jetson: float
    paper_fps_jetson: float


def generate_table1(evaluation: Evaluation) -> Dict[str, Table1Column]:
    """Table I: each best-case configuration's p2p cell, plus the
    synthesized resources and power of the SoC that hosts it."""
    socs = {"soc1": build_soc1(), "soc2": build_soc2()}
    columns: Dict[str, Table1Column] = {}
    for cluster, app_key in BEST_CASE.items():
        config = APP_CONFIGS[app_key]
        soc = socs[config.soc_key]
        util = XCVU9P.utilization(soc.resources())
        paper_util = PAPER_UTILIZATION[config.soc_key]
        kernels = config.software_kernels
        columns[cluster] = Table1Column(
            cluster=cluster,
            app_key=app_key,
            luts=util["luts"],
            paper_luts=paper_util["luts"],
            ffs=util["ffs"],
            paper_ffs=paper_util["ffs"],
            brams=util["brams"],
            paper_brams=paper_util["brams"],
            power_watts=soc_power_watts(soc),
            paper_power_watts=PAPER_SOC_POWER_W[config.soc_key],
            fps_esp4ml=evaluation[app_key, "p2p"].fps,
            paper_fps_esp4ml=PAPER_FPS["esp4ml"][cluster],
            fps_i7=INTEL_I7_8700K.app_fps(kernels),
            paper_fps_i7=PAPER_FPS["i7"][cluster],
            fps_jetson=JETSON_TX1.app_fps(kernels),
            paper_fps_jetson=PAPER_FPS["jetson"][cluster],
        )
    return columns


def render_table1(columns: Dict[str, Table1Column]) -> str:
    """Print the table in the paper's layout, with paper values beside."""
    order = ["nv_cl", "de_cl", "multitile"]
    titles = {"nv_cl": "NIGHTVISION&CLASSIFIER",
              "de_cl": "DENOISER&CLASSIFIER",
              "multitile": "MULTI-TILE CLASSIFIER"}
    headers = ["metric"] + [titles[c] for c in order]

    def row(label, fmt, attr):
        cells = [label]
        for cluster in order:
            col = columns[cluster]
            cells.append(f"{fmt.format(getattr(col, attr))} (paper "
                         f"{fmt.format(getattr(col, 'paper_' + attr))})")
        return cells

    rows = [
        row("LUTS", "{:.0%}", "luts"),
        row("FFS", "{:.0%}", "ffs"),
        row("BRAMS", "{:.0%}", "brams"),
        row("POWER (W)", "{:.2f}", "power_watts"),
        row("FRAMES/S ESP4ML", "{:,.0f}", "fps_esp4ml"),
        row("FRAMES/S INTEL I7", "{:,.0f}", "fps_i7"),
        row("FRAMES/S JETSON", "{:,.0f}", "fps_jetson"),
    ]
    return format_table(rows, headers)
