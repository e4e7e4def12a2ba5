"""Request coalescing: many small requests -> one multi-frame invocation.

The executor's per-invocation overhead (ioctl + register programming +
pipeline fill) is paid per ``esp_run``, not per frame — the whole point
of the paper's ``n_frames``/stride interface. The batcher exploits it:
compatible requests of one tenant are concatenated into a single
multi-frame invocation, so k requests of n frames each cost one
pipeline fill instead of k.

One wrinkle: the planner requires the frame count to divide evenly
over every level's siblings (a 4NV+1Cl pipeline wants multiples of 4).
The batcher pads the tail with zero frames up to the pipeline's *frame
quantum* (the lcm of the level widths) and drops the padded outputs on
the way back out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from ..runtime import Dataflow
from .request import InferenceRequest


def frame_quantum(dataflow: Dataflow) -> int:
    """Smallest frame count the planner accepts: lcm of level widths."""
    quantum = 1
    for names in dataflow.levels():
        quantum = math.lcm(quantum, len(names))
    return quantum


@dataclass
class Batch:
    """One coalesced invocation: stacked frames plus the split map."""

    requests: List[InferenceRequest]
    frames: np.ndarray = field(repr=False)   # padded to the quantum
    pad_frames: int = 0

    @property
    def n_requests(self) -> int:
        return len(self.requests)

    @property
    def total_frames(self) -> int:
        return self.frames.shape[0]

    def split_outputs(self, outputs: np.ndarray
                      ) -> List[Tuple[InferenceRequest, np.ndarray]]:
        """Slice the invocation's outputs back per request.

        Padding rows (zero frames appended to satisfy the quantum) are
        dropped — they were never anyone's data.
        """
        if outputs.shape[0] != self.total_frames:
            raise ValueError(
                f"outputs have {outputs.shape[0]} rows, batch ran "
                f"{self.total_frames} frames")
        out = []
        offset = 0
        for request in self.requests:
            out.append((request,
                        outputs[offset:offset + request.n_frames]))
            offset += request.n_frames
        return out


class Batcher:
    """Builds :class:`Batch` es for one tenant's pipeline."""

    def __init__(self, dataflow: Dataflow,
                 max_batch_frames: int = 32) -> None:
        if max_batch_frames < 1:
            raise ValueError("max_batch_frames must be >= 1")
        self.dataflow = dataflow
        self.quantum = frame_quantum(dataflow)
        self.max_batch_frames = max(max_batch_frames, self.quantum)

    def widen(self, cap: int) -> int:
        """Double ``max_batch_frames`` under queue pressure.

        A saturated admission queue with a healthy pipeline means the
        per-invocation overhead dominates: larger batches amortize it
        over more frames. The new bound is rounded up to a multiple of
        the quantum and capped. Returns the new bound (unchanged when
        already at the cap)."""
        target = min(self.max_batch_frames * 2, cap)
        target = max(target, self.quantum)
        target = math.ceil(target / self.quantum) * self.quantum
        self.max_batch_frames = max(self.max_batch_frames, target)
        return self.max_batch_frames

    def form(self, requests: List[InferenceRequest]) -> Batch:
        """Coalesce ``requests`` (already size-limited by the queue's
        ``drain``) into one padded multi-frame invocation."""
        if not requests:
            raise ValueError("cannot form an empty batch")
        frames = np.concatenate([r.frames for r in requests], axis=0)
        real = frames.shape[0]
        padded = math.ceil(real / self.quantum) * self.quantum
        pad = padded - real
        if pad:
            frames = np.concatenate(
                [frames, np.zeros((pad, frames.shape[1]))], axis=0)
        return Batch(requests=list(requests), frames=frames,
                     pad_frames=pad)
