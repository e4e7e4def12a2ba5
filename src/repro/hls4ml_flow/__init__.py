"""HLS4ML-substitute compiler: trained model -> SoC-ready accelerator.

Takes the topology JSON + weights of a trained model (the same inputs
the real hls4ml consumes) and a reuse factor, and produces an
:class:`HlsModel` with bit-accurate fixed-point inference and hardware
latency/II/resource reports, ready to wrap into an ESP accelerator tile.
"""

from .config import HlsConfig
from .compiler import compile_artifacts, compile_model
from .hls_model import HlsDenseLayer, HlsModel, build_layer
from .codegen import (
    emit_all,
    emit_compute_cpp,
    emit_directives_tcl,
    emit_parameters_header,
    emit_weights_header,
)
from .importers import from_onnx_graph, from_torch_state

__all__ = [
    "HlsConfig",
    "HlsDenseLayer",
    "HlsModel",
    "build_layer",
    "compile_artifacts",
    "compile_model",
    "emit_all",
    "emit_compute_cpp",
    "emit_directives_tcl",
    "emit_parameters_header",
    "emit_weights_header",
    "from_onnx_graph",
    "from_torch_state",
]
