"""The automated ESP4ML design flow (paper Fig. 3)."""

from .esp4ml import Esp4mlFlow, SoCBundle, auto_grid
from .keras_bridge import (
    PRESETS,
    TrainingPreset,
    train_classifier,
    train_denoiser,
)
from .placement import (
    MEMORY,
    PlacementResult,
    optimize_placement,
    placed_soc_config,
    placement_cost,
    traffic_matrix,
)
from .xml_gen import emit_accelerator_xml

__all__ = [
    "Esp4mlFlow",
    "MEMORY",
    "PlacementResult",
    "PRESETS",
    "SoCBundle",
    "TrainingPreset",
    "auto_grid",
    "emit_accelerator_xml",
    "optimize_placement",
    "placed_soc_config",
    "placement_cost",
    "traffic_matrix",
    "train_classifier",
    "train_denoiser",
]
