"""The paper's case-study applications and SoC instances (Fig. 6).

Two SoCs:

- **SoC-1** hosts four Night-Vision tiles, four Classifier tiles and
  one Denoiser tile (plus CPU, memory, auxiliary), and runs three
  application configurations: 1NV+1Cl, 4NV+1Cl, 4NV+4Cl, and 1De+1Cl.
- **SoC-2** hosts the five partitions of the multi-tile Classifier and
  runs the 1Cl-split chain.

Every configuration of Fig. 7 maps to a (SoC builder, dataflow
builder) pair provided here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from ..accelerators import (
    classifier_spec,
    denoiser_spec,
    night_vision_spec,
    partition_classifier,
)
from ..datasets import add_gaussian_noise, darken, flatten_frames, generate
from ..runtime import Dataflow, EspRuntime, chain, replicated_stage
from ..soc import SoCConfig, SoCInstance, build_soc

N_NV_TILES = 4
N_CL_TILES = 4


def build_soc1() -> SoCInstance:
    """SoC-1: 4x3 mesh, 4 NV + 4 Cl + 1 De accelerator tiles."""
    config = SoCConfig(cols=4, rows=3, name="esp4ml-soc1")
    config.add_cpu((0, 0))
    config.add_memory((1, 0))
    config.add_aux((2, 0))
    nv = night_vision_spec()
    cl = classifier_spec()
    de = denoiser_spec()
    for index in range(N_NV_TILES):
        config.add_accelerator(config.next_free(), f"nv{index}", nv)
    for index in range(N_CL_TILES):
        config.add_accelerator(config.next_free(), f"cl{index}", cl)
    config.add_accelerator(config.next_free(), "de0", de)
    return build_soc(config)


def build_soc2() -> SoCInstance:
    """SoC-2: 3x3 mesh, the 5-way partitioned classifier."""
    config = SoCConfig(cols=3, rows=3, name="esp4ml-soc2")
    config.add_cpu((0, 0))
    config.add_memory((1, 0))
    config.add_aux((2, 0))
    for index, spec in enumerate(partition_classifier()):
        config.add_accelerator(config.next_free(), f"part{index}", spec)
    return build_soc(config)


# ---------------------------------------------------------------------------
# Dataflows (the pipelines of Fig. 6 / the bar clusters of Fig. 7)
# ---------------------------------------------------------------------------

def dataflow_nv_cl(n_nv: int = 1, n_cl: int = 1) -> Dataflow:
    """Night-Vision stage(s) feeding Classifier stage(s)."""
    if not (1 <= n_nv <= N_NV_TILES and 1 <= n_cl <= N_CL_TILES):
        raise ValueError(f"SoC-1 hosts up to {N_NV_TILES} NV and "
                         f"{N_CL_TILES} Cl tiles")
    producers = [f"nv{i}" for i in range(n_nv)]
    consumers = [f"cl{i}" for i in range(n_cl)]
    return replicated_stage(f"{n_nv}nv_{n_cl}cl", producers, consumers)


def dataflow_de_cl() -> Dataflow:
    """Denoiser feeding one Classifier."""
    return replicated_stage("1de_1cl", ["de0"], ["cl0"])


def dataflow_multitile() -> Dataflow:
    """The 5-stage partitioned classifier chain."""
    return chain("1cl_split", [f"part{i}" for i in range(5)])


# ---------------------------------------------------------------------------
# Input generators per application
# ---------------------------------------------------------------------------

def nv_cl_inputs(n_frames: int, seed: int = 0,
                 darken_factor: float = 0.25
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Darkened SVHN frames (+ labels) for the Night-Vision pipeline."""
    frames, labels = generate(n_frames, seed=seed)
    return flatten_frames(darken(frames, factor=darken_factor)), labels


def de_cl_inputs(n_frames: int, seed: int = 0,
                 noise_stddev: float = 0.15
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Noisy SVHN frames (+ labels) for the Denoiser pipeline."""
    frames, labels = generate(n_frames, seed=seed)
    noisy = add_gaussian_noise(flatten_frames(frames), stddev=noise_stddev,
                               seed=seed + 1)
    return noisy, labels


def classifier_inputs(n_frames: int, seed: int = 0
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Clean SVHN frames (+ labels) for the classifier chains."""
    frames, labels = generate(n_frames, seed=seed)
    return flatten_frames(frames), labels


# ---------------------------------------------------------------------------
# The named configurations of the evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AppConfig:
    """One evaluated configuration: SoC + dataflow + inputs + kernels."""

    key: str                   # e.g. "4nv_4cl"
    soc_key: str               # "soc1" | "soc2"
    build_dataflow: Callable[[], Dataflow]
    make_inputs: Callable[[int], Tuple[np.ndarray, np.ndarray]]
    software_kernels: Tuple[str, ...]   # baseline composition
    cluster: str               # Fig. 7 cluster this config belongs to


APP_CONFIGS: Dict[str, AppConfig] = {
    "1nv_1cl": AppConfig(
        key="1nv_1cl", soc_key="soc1",
        build_dataflow=lambda: dataflow_nv_cl(1, 1),
        make_inputs=nv_cl_inputs,
        software_kernels=("night_vision", "classifier"),
        cluster="nv_cl"),
    "4nv_1cl": AppConfig(
        key="4nv_1cl", soc_key="soc1",
        build_dataflow=lambda: dataflow_nv_cl(4, 1),
        make_inputs=nv_cl_inputs,
        software_kernels=("night_vision", "classifier"),
        cluster="nv_cl"),
    "4nv_4cl": AppConfig(
        key="4nv_4cl", soc_key="soc1",
        build_dataflow=lambda: dataflow_nv_cl(4, 4),
        make_inputs=nv_cl_inputs,
        software_kernels=("night_vision", "classifier"),
        cluster="nv_cl"),
    "1de_1cl": AppConfig(
        key="1de_1cl", soc_key="soc1",
        build_dataflow=dataflow_de_cl,
        make_inputs=de_cl_inputs,
        software_kernels=("denoiser", "classifier"),
        cluster="de_cl"),
    "1cl_split": AppConfig(
        key="1cl_split", soc_key="soc2",
        build_dataflow=dataflow_multitile,
        make_inputs=classifier_inputs,
        software_kernels=("classifier",),
        cluster="multitile"),
}

#: The "best-case configuration" per Table I column.
BEST_CASE = {"nv_cl": "4nv_4cl", "de_cl": "1de_1cl",
             "multitile": "1cl_split"}


def fresh_runtime(config: AppConfig) -> EspRuntime:
    """A new SoC + booted runtime for one measurement run."""
    return EspRuntime(build_soc1() if config.soc_key == "soc1"
                      else build_soc2())
