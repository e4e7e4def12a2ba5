"""Synthesis-style reports for compiled models (HLS report substitute),
which no flow step writes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.hls import FpgaDevice, ResourceEstimate, XCVU9P
from repro.hls4ml_flow import HlsModel


@dataclass(frozen=True)
class LayerReport:
    name: str
    n_in: int
    n_out: int
    reuse_factor: int
    n_multipliers: int
    latency_cycles: int
    interval_cycles: int
    resources: ResourceEstimate


@dataclass(frozen=True)
class ModelReport:
    """Whole-model synthesis summary (what `vivado_hls -report` prints)."""

    name: str
    topology: List[int]
    clock_mhz: float
    latency_cycles: int
    interval_cycles: int
    resources: ResourceEstimate
    layers: List[LayerReport]

    @property
    def latency_us(self) -> float:
        return self.latency_cycles / self.clock_mhz

    @property
    def throughput_fps(self) -> float:
        return self.clock_mhz * 1e6 / self.interval_cycles

    def utilization(self, device: FpgaDevice = XCVU9P) -> Dict[str, float]:
        return device.utilization(self.resources)

    def to_text(self, device: FpgaDevice = XCVU9P) -> str:
        util = self.utilization(device)
        lines = [
            f"== Synthesis report: {self.name} "
            f"({'x'.join(str(s) for s in self.topology)}) ==",
            f"clock: {self.clock_mhz} MHz   "
            f"latency: {self.latency_cycles} cycles ({self.latency_us:.2f} us)"
            f"   II: {self.interval_cycles} cycles"
            f"   throughput: {self.throughput_fps:,.0f} frames/s",
            f"resources on {device.name}: "
            f"LUT {util['luts']:.1%}  FF {util['ffs']:.1%}  "
            f"BRAM {util['brams']:.1%}  DSP {util['dsps']:.1%}",
            f"{'layer':<16}{'in':>6}{'out':>6}{'reuse':>7}{'mults':>8}"
            f"{'lat':>8}{'II':>8}{'DSP':>7}{'BRAM':>7}",
        ]
        for layer in self.layers:
            lines.append(
                f"{layer.name:<16}{layer.n_in:>6}{layer.n_out:>6}"
                f"{layer.reuse_factor:>7}{layer.n_multipliers:>8}"
                f"{layer.latency_cycles:>8}{layer.interval_cycles:>8}"
                f"{layer.resources.dsps:>7}{layer.resources.brams:>7}")
        return "\n".join(lines)


def build_report(model: HlsModel) -> ModelReport:
    """Produce the report for a compiled model."""
    layers = [
        LayerReport(
            name=layer.name,
            n_in=layer.n_in,
            n_out=layer.n_out,
            reuse_factor=layer.reuse_factor,
            n_multipliers=layer.n_multipliers,
            latency_cycles=layer.schedule.latency,
            interval_cycles=layer.schedule.interval,
            resources=layer.schedule.resources,
        )
        for layer in model.layers
    ]
    return ModelReport(
        name=model.name,
        topology=model.topology,
        clock_mhz=model.clock_mhz,
        latency_cycles=model.latency_cycles,
        interval_cycles=model.interval_cycles,
        resources=model.resources,
        layers=layers,
    )
