"""The libesp-style user API (what Fig. 5's generated app calls).

Wraps device probe, buffer allocation and dataflow execution into the
three calls the paper's generated application uses: ``esp_alloc``,
``esp_run`` and ``esp_cleanup``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..faults import RecoveryPolicy
from ..soc import SoCInstance
from .alloc import Buffer, ContigAllocator
from .dataflow import Dataflow
from .driver import DeviceRegistry
from .executor import DataflowExecutor, RunResult


class EspRuntime:
    """The software stack of one booted SoC: driver + libesp.

    Creating the runtime performs the driver probe (building the global
    device list); the instance then exposes the user-level API.
    """

    def __init__(self, soc: SoCInstance,
                 recovery: Optional[RecoveryPolicy] = None) -> None:
        self.soc = soc
        self.registry = DeviceRegistry()
        self.registry.probe(soc)
        self.allocator = ContigAllocator(soc.memory_map)
        self.executor = DataflowExecutor(soc, self.registry,
                                         self.allocator, recovery=recovery)

    # -- libesp ----------------------------------------------------------

    def esp_alloc(self, n_words: int, label: str = "buf") -> Buffer:
        """Allocate an accelerator-visible contiguous buffer."""
        return self.allocator.alloc(n_words, label=label)

    def esp_run(self, dataflow: Dataflow, frames: np.ndarray,
                mode: str = "p2p", coherence=None,
                dvfs=None) -> RunResult:
        """Execute the accelerator dataflow over a batch of frames.

        ``mode`` selects the execution strategy of Fig. 7: ``base``
        (serial, DMA), ``pipe`` (threaded pipeline, DMA), ``p2p``
        (threaded pipeline over the p2p service) or ``custom``
        (per-edge transport). ``coherence`` picks the DMA coherence
        model: a single :class:`~repro.soc.CoherenceMode` (or its
        string value — ``"non-coherent"``, ``"llc-coherent"``,
        ``"fully-coherent"``) for every device, or a ``device -> mode``
        mapping so each accelerator in the pipeline chooses its own.
        ``dvfs`` maps device names to clock dividers
        (per-tile DVFS): a device with divider k computes k times
        slower and burns ~1/k of its dynamic power.
        """
        return self.executor.execute(dataflow, frames, mode,
                                     coherence=coherence, dvfs=dvfs)

    def esp_cleanup(self) -> None:
        """Release every buffer allocated through this runtime."""
        self.allocator.cleanup()

    # -- conveniences -------------------------------------------------------

    def device_names(self):
        return self.registry.names()
