"""The end-to-end ESP4ML design flow (Fig. 3).

Drives the whole path the paper automates:

1. ML kernels: trained model (+ reuse factor) -> HLS4ML-substitute
   compiler -> accelerator spec + firmware artifacts (compute.cpp,
   directives.tcl).
2. Generic kernels: SystemC/Stratus-style specs added directly.
3. SoC integration: floorplan (the ``.esp_config`` GUI step), XML
   register descriptors, device tree.
4. "Bitstream": a runnable :class:`~repro.soc.SoCInstance` plus the
   booted software stack (:class:`~repro.runtime.EspRuntime`).
5. Application generation: dataflow -> ``dflow.h`` + ``user-app.c``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..accelerators.base import AcceleratorSpec
from ..accelerators.classifier import spec_from_hls
from ..hls4ml_flow import HlsConfig, compile_model, emit_all
from ..nn import Sequential
from ..runtime import Dataflow, EspRuntime
from ..runtime.codegen import emit_dataflow_header, emit_user_app
from ..soc import SoCConfig, SoCInstance, build_soc, emit_dts
from .xml_gen import emit_accelerator_xml


def auto_grid(n_tiles: int) -> Tuple[int, int]:
    """Smallest near-square mesh that fits ``n_tiles``."""
    if n_tiles < 1:
        raise ValueError(f"n_tiles must be >= 1, got {n_tiles}")
    cols = math.ceil(math.sqrt(n_tiles))
    rows = math.ceil(n_tiles / cols)
    return cols, rows


@dataclass
class SoCBundle:
    """Everything the flow produces for one SoC."""

    config: SoCConfig
    soc: SoCInstance
    runtime: EspRuntime
    artifacts: Dict[str, str] = field(default_factory=dict)

    def write_artifacts(self, directory) -> List[str]:
        """Materialize every artifact file under ``directory``."""
        from pathlib import Path
        base = Path(directory)
        written = []
        for rel_path, content in sorted(self.artifacts.items()):
            path = base / rel_path
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content)
            written.append(str(path))
        return written


class Esp4mlFlow:
    """Builder for the full flow: add accelerators, then generate."""

    def __init__(self, clock_mhz: float = 78.0) -> None:
        self.clock_mhz = clock_mhz
        self._accelerators: List[Tuple[str, AcceleratorSpec]] = []
        self._artifacts: Dict[str, str] = {}

    # -- step 1/2: accelerator design -------------------------------------

    def add_ml_accelerator(self, device_name: str, model: Sequential,
                           reuse_factor: int = 2048) -> AcceleratorSpec:
        """The HLS4ML branch: Keras-substitute model -> accelerator."""
        config = HlsConfig(reuse_factor=reuse_factor,
                           clock_mhz=self.clock_mhz)
        hls_model = compile_model(model, config)
        spec = spec_from_hls(hls_model, name=model.name)
        for filename, content in emit_all(hls_model).items():
            self._artifacts[f"{device_name}/{filename}"] = content
        self._register(device_name, spec)
        return spec

    def add_generic_accelerator(self, device_name: str,
                                spec: AcceleratorSpec) -> AcceleratorSpec:
        """The generic branch (SystemC kernels, Stratus HLS)."""
        self._register(device_name, spec)
        return spec

    def _register(self, device_name: str, spec: AcceleratorSpec) -> None:
        if any(name == device_name for name, _ in self._accelerators):
            raise ValueError(f"device {device_name!r} already added")
        self._accelerators.append((device_name, spec))
        self._artifacts[f"{device_name}.xml"] = emit_accelerator_xml(spec)

    # -- step 3/4: SoC integration ------------------------------------------

    def generate(self, soc_name: str = "esp4ml-soc",
                 grid: Optional[Tuple[int, int]] = None,
                 memory_words: int = 1 << 22) -> SoCBundle:
        """Floorplan, generate and "program" the SoC."""
        if not self._accelerators:
            raise ValueError("add at least one accelerator before "
                             "generate()")
        n_tiles = len(self._accelerators) + 3   # cpu + mem + aux
        cols, rows = grid if grid else auto_grid(n_tiles)
        if cols * rows < n_tiles:
            raise ValueError(
                f"grid {cols}x{rows} too small for {n_tiles} tiles")

        config = SoCConfig(cols=cols, rows=rows, name=soc_name,
                           clock_mhz=self.clock_mhz)
        config.add_cpu(config.next_free())
        config.add_memory(config.next_free(), size_words=memory_words)
        config.add_aux(config.next_free())
        for device_name, spec in self._accelerators:
            config.add_accelerator(config.next_free(), device_name, spec)

        soc = build_soc(config)
        runtime = EspRuntime(soc)
        artifacts = dict(self._artifacts)
        artifacts["soc.dts"] = emit_dts(config)
        artifacts["floorplan.txt"] = config.floorplan_text() + "\n"
        return SoCBundle(config=config, soc=soc, runtime=runtime,
                         artifacts=artifacts)

    # -- step 5: application generation ----------------------------------------

    @staticmethod
    def emit_application(bundle: SoCBundle, dataflow: Dataflow,
                         n_frames: int, mode: str = "p2p") -> None:
        """Generate the user app + dflow header into the bundle."""
        in_words = bundle.runtime.registry.by_name(
            dataflow.levels()[0][0]).tile.spec.input_words
        bundle.artifacts[f"dflow_{dataflow.name}.h"] = \
            emit_dataflow_header(dataflow, n_frames, mode)
        bundle.artifacts[f"{dataflow.name}-app.c"] = \
            emit_user_app(dataflow, dataset_words=n_frames * in_words)
