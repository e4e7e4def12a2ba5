"""HLS substrate: scheduling, resource estimation and directives.

Substitutes the Vivado HLS / Stratus HLS synthesis steps of the paper's
flow with analytic models (see DESIGN.md, substitution table).
"""

from .resources import (
    BRAM_BITS,
    DEVICES,
    FpgaDevice,
    ResourceEstimate,
    XCVU9P,
    XCZU9EG,
    ZERO_RESOURCES,
    control_overhead,
    memory_brams,
    multiplier_resources,
)
from .schedule import (
    LoopSchedule,
    dataflow_schedule,
    dense_layer_schedule,
    nearest_reuse_factor,
    pipelined_loop_schedule,
    sequential_schedule,
    valid_reuse_factor,
)
from .directives import (
    Directive,
    DirectiveFile,
    ap_fifo_interface,
    array_partition,
    pipeline,
)

__all__ = [
    "BRAM_BITS",
    "DEVICES",
    "Directive",
    "DirectiveFile",
    "FpgaDevice",
    "LoopSchedule",
    "ResourceEstimate",
    "XCVU9P",
    "XCZU9EG",
    "ZERO_RESOURCES",
    "ap_fifo_interface",
    "array_partition",
    "control_overhead",
    "dataflow_schedule",
    "dense_layer_schedule",
    "memory_brams",
    "multiplier_resources",
    "nearest_reuse_factor",
    "pipeline",
    "pipelined_loop_schedule",
    "sequential_schedule",
    "valid_reuse_factor",
]
