"""FPGA resource estimation (Vivado HLS report substitute).

The ESP4ML evaluation reports LUT/FF/BRAM utilization percentages of a
Xilinx Ultrascale+ device (Table I). This module provides the resource
vocabulary, a device catalog, and first-order estimation helpers that
the HLS scheduler uses to cost datapaths the way an HLS report would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

# Bits per 36Kb block RAM (one BRAM tile in Ultrascale+).
BRAM_BITS = 36 * 1024


@dataclass(frozen=True)
class ResourceEstimate:
    """LUTs, flip-flops, 36Kb BRAMs and DSP slices used by a design."""

    luts: int = 0
    ffs: int = 0
    brams: int = 0
    dsps: int = 0

    def __add__(self, other: "ResourceEstimate") -> "ResourceEstimate":
        return ResourceEstimate(
            luts=self.luts + other.luts,
            ffs=self.ffs + other.ffs,
            brams=self.brams + other.brams,
            dsps=self.dsps + other.dsps,
        )

    def scaled(self, factor: float) -> "ResourceEstimate":
        return ResourceEstimate(
            luts=int(round(self.luts * factor)),
            ffs=int(round(self.ffs * factor)),
            brams=int(round(self.brams * factor)),
            dsps=int(round(self.dsps * factor)),
        )

    def as_dict(self) -> Dict[str, int]:
        return {"luts": self.luts, "ffs": self.ffs,
                "brams": self.brams, "dsps": self.dsps}


ZERO_RESOURCES = ResourceEstimate()


@dataclass(frozen=True)
class FpgaDevice:
    """Capacity of an FPGA part, for utilization percentages."""

    name: str
    luts: int
    ffs: int
    brams: int  # 36Kb blocks
    dsps: int

    def utilization(self, usage: ResourceEstimate) -> Dict[str, float]:
        """Fractions (0-1) of each resource class, Vivado-report style."""
        return {
            "luts": usage.luts / self.luts,
            "ffs": usage.ffs / self.ffs,
            "brams": usage.brams / self.brams,
            "dsps": usage.dsps / self.dsps,
        }

#: Xilinx Virtex Ultrascale+ VU9P (VCU118 board) — the class of "large
#: Ultrascale+" part the paper notes it used conservatively.
XCVU9P = FpgaDevice(name="xcvu9p", luts=1_182_240, ffs=2_364_480,
                    brams=2_160, dsps=6_840)

#: Zynq Ultrascale+ ZU9EG (ZCU102), a smaller alternative part.
XCZU9EG = FpgaDevice(name="xczu9eg", luts=274_080, ffs=548_160,
                     brams=912, dsps=2_520)

DEVICES: Dict[str, FpgaDevice] = {d.name: d for d in (XCVU9P, XCZU9EG)}


def memory_brams(words: int, word_bits: int, partitions: int = 1) -> int:
    """BRAM blocks for a memory of ``words`` x ``word_bits``.

    Each partition is an independent memory and rounds up on its own,
    which is why aggressive array partitioning inflates BRAM usage —
    the same effect HLS reports show.
    """
    if words <= 0:
        return 0
    if partitions < 1:
        raise ValueError(f"partitions must be >= 1, got {partitions}")
    per_part = (words + partitions - 1) // partitions
    # A BRAM36 supports up to 36Kb; narrow/shallow memories still burn
    # a whole block per partition.
    blocks_per_part = max(1, (per_part * word_bits + BRAM_BITS - 1)
                          // BRAM_BITS)
    return partitions * blocks_per_part


def multiplier_resources(n_multipliers: int, width: int) -> ResourceEstimate:
    """Datapath cost of ``n_multipliers`` fixed-point multipliers.

    Widths up to 18 bits map one multiply to one DSP48; wider ones
    cascade two. A fixed LUT/FF overhead per multiplier covers the
    accumulate/cast logic around it.
    """
    if n_multipliers < 0:
        raise ValueError("n_multipliers must be >= 0")
    dsps_each = 1 if width <= 18 else 2
    # Per-multiplier LUT/FF coefficients calibrated so the two paper
    # SoCs land near Table I's utilization (48%/24% and 19%/11%).
    return ResourceEstimate(
        luts=n_multipliers * 110,
        ffs=n_multipliers * 125,
        brams=0,
        dsps=n_multipliers * dsps_each,
    )


def control_overhead(n_loops: int = 1) -> ResourceEstimate:
    """FSM + counters for the loop nest of an HLS kernel."""
    return ResourceEstimate(luts=350 * n_loops, ffs=420 * n_loops)
