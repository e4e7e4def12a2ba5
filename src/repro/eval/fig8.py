"""Fig. 8 reproduction: DRAM accesses with and without p2p.

The figure shows the relative number of DRAM accesses for the three
applications with p2p on vs off (pipelined execution in both cases).
"The energy savings due to a reduced access to memory are the main
benefit of the point-to-point communication among accelerators"; the
reduction "varies between 2x and 3x for the target applications".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .harness import Evaluation, format_table

#: The three applications of the figure (best-case configurations).
FIG8_CONFIGS = ("4nv_4cl", "1de_1cl", "1cl_split")


@dataclass
class Fig8Bar:
    app_key: str
    dram_no_p2p: int
    dram_p2p: int

    @property
    def relative(self) -> float:
        """p2p accesses as a fraction of no-p2p (the plotted bar)."""
        return self.dram_p2p / self.dram_no_p2p

    @property
    def reduction(self) -> float:
        """The 2x-3x reduction factor the paper quotes."""
        return self.dram_no_p2p / self.dram_p2p


def generate_fig8(evaluation: Evaluation) -> List[Fig8Bar]:
    """DRAM words moved in the pipe (no-p2p) vs the p2p cell."""
    return [Fig8Bar(app_key=app_key,
                    dram_no_p2p=evaluation[app_key, "pipe"].dram_accesses,
                    dram_p2p=evaluation[app_key, "p2p"].dram_accesses)
            for app_key in FIG8_CONFIGS]


def render_fig8(bars: List[Fig8Bar]) -> str:
    headers = ["application", "no-p2p words", "p2p words",
               "relative", "reduction"]
    rows = [[bar.app_key, f"{bar.dram_no_p2p:,}", f"{bar.dram_p2p:,}",
             f"{bar.relative:.0%}", f"{bar.reduction:.2f}x"]
            for bar in bars]
    table = format_table(rows, headers)
    return table + "\n\npaper: reduction varies between 2x and 3x"
