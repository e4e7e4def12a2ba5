"""The compiled HLS model: bit-accurate inference + hardware reports.

An :class:`HlsModel` is what the HLS4ML-substitute compiler produces
from a trained Keras-substitute model: a stack of fixed-point dense
layers, each with a hardware schedule (latency, II, resources) derived
from its reuse factor, plus a whole-model report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..fixed import FixedFormat, fixed_sigmoid, fixed_softmax
from ..hls import (
    LoopSchedule,
    ResourceEstimate,
    dataflow_schedule,
    dense_layer_schedule,
    nearest_reuse_factor,
)

ACTIVATIONS = ("linear", "relu", "sigmoid", "softmax")


@dataclass(frozen=True)
class HlsDenseLayer:
    """One dense layer as compiled for hardware.

    Immutable, parameters quantized at compile time and read-only (a ROM
    in hardware), so one compiled model can back every tile of every SoC.
    """

    name: str
    weights: np.ndarray           # (n_in, n_out), read-only, on the grid
    bias: np.ndarray              # (n_out,), read-only, on the grid
    activation: str
    precision: FixedFormat
    reuse_factor: int
    schedule: LoopSchedule

    @property
    def n_in(self) -> int:
        return self.weights.shape[0]

    @property
    def n_out(self) -> int:
        return self.weights.shape[1]

    @property
    def n_weights(self) -> int:
        return self.weights.size

    @property
    def n_multipliers(self) -> int:
        return self.n_weights // self.reuse_factor

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Bit-accurate fixed-point forward pass of this layer."""
        return self._apply(self.precision.quantize(np.asarray(x).T)).T

    def _apply(self, h: np.ndarray) -> np.ndarray:
        """``act(cast(W.T @ h + b))`` on column-major activations.

        ``h`` is ``(n_in, batch)`` and already on this layer's grid,
        so it is not snapped again (quantize is idempotent on the
        grid). The accumulator is fresh, so the cast snaps it in
        place, and ReLU is the cast's lower clamp at 0: quantize is
        monotone and maps 0 to 0, so ``relu(q(a)) == max(q(a), 0)``.
        Sigmoid and softmax see the ``(batch, n_out)`` view they always
        did, and the matvec operands keep their memory layouts.
        """
        acc = self.weights.T @ h
        acc += self.bias[:, None]
        fmt = self.precision
        if self.activation == "relu":
            return fmt.snap(acc, lower=0.0, out=acc)
        y = fmt.snap(acc, out=acc)
        if self.activation == "sigmoid":
            return fixed_sigmoid(y.T, fmt).T
        if self.activation == "softmax":
            return fixed_softmax(y.T, fmt).T
        return y


def build_layer(name: str, weights: np.ndarray, bias: np.ndarray,
                activation: str, precision: FixedFormat,
                reuse_factor: int) -> HlsDenseLayer:
    """Quantize parameters and schedule one dense layer."""
    if activation not in ACTIVATIONS:
        raise ValueError(
            f"unsupported activation {activation!r}; options: {ACTIVATIONS}")
    weights = np.asarray(weights, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if weights.ndim != 2:
        raise ValueError(f"weights must be 2-D, got shape {weights.shape}")
    if bias.shape != (weights.shape[1],):
        raise ValueError(
            f"bias shape {bias.shape} does not match units {weights.shape[1]}")
    n_in, n_out = weights.shape
    reuse = nearest_reuse_factor(n_in * n_out, reuse_factor)
    schedule = dense_layer_schedule(n_in, n_out, reuse,
                                    weight_width=precision.width)
    # Stored column-major, so ``weights.T`` -- the (n_out, n_in) operand
    # of the per-frame matvec -- is one contiguous row-major block.
    # Snapped in column blocks: no second full-size copy is ever alive.
    stored = np.empty((n_in, n_out), order="F")
    for col in range(0, n_out, 64):
        stored[:, col:col + 64] = precision.quantize(weights[:, col:col + 64])
    bias = precision.quantize(bias)
    stored.setflags(write=False)
    bias.setflags(write=False)
    return HlsDenseLayer(
        name=name,
        weights=stored,
        bias=bias,
        activation=activation,
        precision=precision,
        reuse_factor=reuse,
        schedule=schedule,
    )


class HlsModel:
    """A compiled network: layers + aggregate hardware characteristics."""

    def __init__(self, name: str, layers: Sequence[HlsDenseLayer],
                 clock_mhz: float) -> None:
        if not layers:
            raise ValueError("an HlsModel needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if prev.n_out != nxt.n_in:
                raise ValueError(
                    f"layer {prev.name!r} outputs {prev.n_out} values but "
                    f"{nxt.name!r} expects {nxt.n_in}")
        self.name = name
        self.layers = tuple(layers)
        self.clock_mhz = clock_mhz
        self._schedule = dataflow_schedule(*(l.schedule for l in layers))

    # -- functional ------------------------------------------------------

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Bit-accurate fixed-point inference over a batch.

        The input is snapped once; each layer's output is already on
        the grid of the next layer (one format per model), so only a
        change of precision between layers snaps again.
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.input_size:
            raise ValueError(
                f"expected {self.input_size} inputs, got {x.shape[1]}")
        fmt = self.layers[0].precision
        h = fmt.quantize(x.T)
        for layer in self.layers:
            if layer.precision != fmt:
                fmt = layer.precision
                h = fmt.quantize(h)
            h = layer._apply(h)
        return h.T

    # -- shape -----------------------------------------------------------

    @property
    def input_size(self) -> int:
        return self.layers[0].n_in

    @property
    def output_size(self) -> int:
        return self.layers[-1].n_out

    @property
    def topology(self) -> List[int]:
        return [self.input_size] + [l.n_out for l in self.layers]

    # -- hardware --------------------------------------------------------

    @property
    def latency_cycles(self) -> int:
        """Cycles from input availability to output for one frame."""
        return self._schedule.latency

    @property
    def interval_cycles(self) -> int:
        """Initiation interval in cycles (throughput = clk / II)."""
        return self._schedule.interval

    @property
    def resources(self) -> ResourceEstimate:
        return self._schedule.resources

    @property
    def latency_us(self) -> float:
        return self.latency_cycles / self.clock_mhz

    def throughput_fps(self, clock_mhz: Optional[float] = None) -> float:
        """Peak frames/s of the standalone kernel (no I/O overhead)."""
        clock = clock_mhz if clock_mhz is not None else self.clock_mhz
        return clock * 1e6 / self.interval_cycles
