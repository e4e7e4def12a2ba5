"""Static timing estimation (the timing half of an HLS report), a
first-order model that no flow step runs.

HLS tools report, next to latency and resources, whether the design
closes timing at the target clock. The paper's SoCs run at 78 MHz on
an Ultrascale+ part — comfortably slow — and this module provides the
first-order model that confirms it: per-stage critical paths built
from device timing constants, an achievable-frequency estimate per
layer, and a whole-model timing report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from tests.fixed.reference import mac_result_format


@dataclass(frozen=True)
class TimingConstants:
    """Device timing constants (Ultrascale+, mid speed grade)."""

    name: str = "ultrascale-plus-2"
    lut_delay_ns: float = 0.15       # one logic level
    net_delay_ns: float = 0.35       # average routed net
    carry_per_bit_ns: float = 0.015  # carry-chain propagation
    dsp_clk_to_q_ns: float = 1.10    # registered DSP output
    bram_access_ns: float = 1.60     # BRAM clock-to-out
    setup_ns: float = 0.30           # FF setup + clock skew margin


ULTRASCALE_PLUS = TimingConstants()


def adder_path_ns(width: int,
                  constants: TimingConstants = ULTRASCALE_PLUS) -> float:
    """Register-to-register delay of one ``width``-bit ripple add."""
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    return (constants.lut_delay_ns + constants.net_delay_ns
            + constants.carry_per_bit_ns * width + constants.setup_ns)


def mac_stage_path_ns(accumulator_width: int,
                      constants: TimingConstants = ULTRASCALE_PLUS
                      ) -> float:
    """Critical path of one pipelined MAC stage: DSP out -> adder -> FF.

    HLS keeps the multiplier inside the DSP's pipeline registers, so
    the exposed path is the DSP clock-to-out plus the accumulate add.
    """
    return (constants.dsp_clk_to_q_ns
            + adder_path_ns(accumulator_width, constants))


def memory_stage_path_ns(constants: TimingConstants = ULTRASCALE_PLUS
                         ) -> float:
    """BRAM read -> mux -> FF path (weight fetch)."""
    return (constants.bram_access_ns + constants.lut_delay_ns
            + constants.net_delay_ns + constants.setup_ns)


def control_path_ns(state_bits: int,
                    constants: TimingConstants = ULTRASCALE_PLUS) -> float:
    """FSM next-state logic: ~log2(states) LUT levels."""
    if state_bits < 1:
        raise ValueError(f"state_bits must be >= 1, got {state_bits}")
    levels = max(1, math.ceil(math.log2(state_bits + 1)))
    return (levels * (constants.lut_delay_ns + constants.net_delay_ns)
            + constants.setup_ns)


def dense_layer_fmax_mhz(accumulator_width: int,
                         constants: TimingConstants = ULTRASCALE_PLUS
                         ) -> float:
    """Achievable clock for a dense layer's datapath."""
    critical = max(mac_stage_path_ns(accumulator_width, constants),
                   memory_stage_path_ns(constants),
                   control_path_ns(8, constants))
    return 1000.0 / critical


@dataclass(frozen=True)
class LayerTiming:
    name: str
    accumulator_width: int
    critical_path_ns: float
    fmax_mhz: float


@dataclass(frozen=True)
class TimingReport:
    """Whole-model timing summary."""

    target_clock_mhz: float
    layers: List[LayerTiming]

    @property
    def fmax_mhz(self) -> float:
        return min(layer.fmax_mhz for layer in self.layers)

    @property
    def critical_layer(self) -> LayerTiming:
        return min(self.layers, key=lambda l: l.fmax_mhz)

    def meets_timing(self) -> bool:
        return self.fmax_mhz >= self.target_clock_mhz

    @property
    def slack_ns(self) -> float:
        """Positive when timing closes at the target clock."""
        return (1000.0 / self.target_clock_mhz
                - self.critical_layer.critical_path_ns)

    def to_text(self) -> str:
        lines = [
            f"== timing report: target {self.target_clock_mhz} MHz ==",
            f"fmax: {self.fmax_mhz:.0f} MHz   "
            f"slack: {self.slack_ns:+.2f} ns   "
            f"{'MET' if self.meets_timing() else 'VIOLATED'}",
        ]
        for layer in self.layers:
            lines.append(
                f"  {layer.name:<16}acc={layer.accumulator_width:>3}b"
                f"   path={layer.critical_path_ns:>6.2f} ns"
                f"   fmax={layer.fmax_mhz:>6.0f} MHz")
        return "\n".join(lines)


def timing_report_for_model(hls_model, target_clock_mhz: float = 78.0,
                            constants: TimingConstants = ULTRASCALE_PLUS
                            ) -> TimingReport:
    """Timing of every layer of a compiled HLS model.

    The accumulator width follows the full-precision MAC inference of
    :func:`repro.fixed.mac_result_format`.
    """
    layers = []
    for layer in hls_model.layers:
        acc = mac_result_format(layer.precision, layer.precision,
                                terms=layer.n_in)
        path = max(mac_stage_path_ns(acc.width, constants),
                   memory_stage_path_ns(constants),
                   control_path_ns(8, constants))
        layers.append(LayerTiming(
            name=layer.name,
            accumulator_width=acc.width,
            critical_path_ns=path,
            fmax_mhz=1000.0 / path,
        ))
    return TimingReport(target_clock_mhz=target_clock_mhz, layers=layers)
