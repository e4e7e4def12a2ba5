"""Fig. 7 reproduction: energy efficiency (frames/Joule) per mode.

The figure shows, for five pipeline configurations grouped in three
clusters (Night-Vision+Classifier with 1NV+1Cl / 4NV+1Cl / 4NV+4Cl,
Denoiser+Classifier, Multi-tile Classifier), three bars each — base,
pipe, p2p — on a log scale, with horizontal lines for the i7 and the
Jetson TX1. The headline claim: "the ESP4ML SoCs outperforms both the
GPU and the CPU across all three applications, yielding in some cases
an energy-efficiency gain of over 100x".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..platforms import INTEL_I7_8700K, JETSON_TX1
from .apps import APP_CONFIGS
from .harness import FIG7_CONFIGS, MODES, Evaluation, format_table


@dataclass
class Fig7Cluster:
    """One cluster of bars plus the platform reference lines."""

    app_key: str
    frames_per_joule: Dict[str, float]        # mode -> value
    fps: Dict[str, float]                      # mode -> frames/s
    i7_frames_per_joule: float
    jetson_frames_per_joule: float

    def gain_over(self, platform_fpj: float, mode: str = "p2p") -> float:
        return self.frames_per_joule[mode] / platform_fpj


@dataclass
class Fig7Data:
    clusters: List[Fig7Cluster] = field(default_factory=list)

    def cluster(self, app_key: str) -> Fig7Cluster:
        for cluster in self.clusters:
            if cluster.app_key == app_key:
                return cluster
        raise KeyError(app_key)

    def max_gain(self) -> float:
        """The figure's headline: best gain over the better baseline."""
        return max(
            cluster.frames_per_joule["p2p"]
            / max(cluster.i7_frames_per_joule,
                  cluster.jetson_frames_per_joule)
            for cluster in self.clusters)


def generate_fig7(evaluation: Evaluation) -> Fig7Data:
    """Every bar of the figure: one per evaluated cell."""
    data = Fig7Data()
    for app_key in FIG7_CONFIGS:
        kernels = APP_CONFIGS[app_key].software_kernels
        cells = {mode: evaluation[app_key, mode] for mode in MODES}
        data.clusters.append(Fig7Cluster(
            app_key=app_key,
            frames_per_joule={mode: cell.frames_per_joule
                              for mode, cell in cells.items()},
            fps={mode: cell.fps for mode, cell in cells.items()},
            i7_frames_per_joule=INTEL_I7_8700K.app_frames_per_joule(
                kernels),
            jetson_frames_per_joule=JETSON_TX1.app_frames_per_joule(
                kernels),
        ))
    return data


def render_fig7(data: Fig7Data) -> str:
    """Text rendering: frames/J per bar, normalized to the i7 line."""
    headers = ["config", "base", "pipe", "p2p", "i7", "jetson",
               "p2p/i7", "p2p/gpu"]
    rows = []
    for cluster in data.clusters:
        i7 = cluster.i7_frames_per_joule
        gpu = cluster.jetson_frames_per_joule
        rows.append([
            cluster.app_key,
            f"{cluster.frames_per_joule['base']:,.0f}",
            f"{cluster.frames_per_joule['pipe']:,.0f}",
            f"{cluster.frames_per_joule['p2p']:,.0f}",
            f"{i7:,.1f}",
            f"{gpu:,.1f}",
            f"{cluster.gain_over(i7):,.0f}x",
            f"{cluster.gain_over(gpu):,.0f}x",
        ])
    table = format_table(rows, headers)
    return (table + f"\n\nmax energy-efficiency gain over best baseline: "
            f"{data.max_gain():,.0f}x (paper: 'over 100x in some cases')")
