"""Tests for the classifier, denoiser and multi-tile accelerators."""

import dataclasses

import numpy as np
import pytest

from repro.accelerators import (
    classifier_model,
    classifier_spec,
    denoiser_model,
    denoiser_spec,
    partition_classifier,
)
from repro.accelerators.classifier import CLASSIFIER_TOPOLOGY, classifier_hls
from repro.accelerators.denoiser import DENOISER_TOPOLOGY, denoiser_hls
from repro.fixed import (FixedFormat, fixed_matvec, fixed_relu,
                         fixed_sigmoid, fixed_softmax)
from repro.hls4ml_flow import HlsConfig, HlsModel, build_layer, compile_model
from repro.nn import Dense, ReLU, Sequential, Sigmoid, Softmax


class TestClassifier:
    def test_paper_topology(self):
        model = classifier_model()
        assert model.topology == list(CLASSIFIER_TOPOLOGY)
        assert CLASSIFIER_TOPOLOGY == (1024, 256, 128, 64, 32, 10)

    def test_dropout_rate_from_paper(self):
        from repro.nn import Dropout
        rates = [l.rate for l in classifier_model().layers
                 if isinstance(l, Dropout)]
        assert rates == [0.2] * 4

    def test_spec_geometry(self):
        spec = classifier_spec()
        assert spec.input_words == 1024
        assert spec.output_words == 10
        assert spec.design_flow == "hls4ml"

    def test_spec_output_is_probability_like(self, rng):
        spec = classifier_spec()
        out = spec.run(rng.uniform(0, 1, 1024))
        assert out.shape == (10,)
        assert out.sum() == pytest.approx(1.0, abs=0.05)

    def test_reuse_factor_controls_timing(self):
        fast = classifier_spec(reuse_factor=128)
        slow = classifier_spec(reuse_factor=2048)
        assert slow.latency_cycles > fast.latency_cycles
        assert slow.resources.dsps < fast.resources.dsps


class TestDenoiser:
    def test_paper_topology_and_compression(self):
        model = denoiser_model()
        assert model.topology == list(DENOISER_TOPOLOGY)
        # "the compression factor in the bottleneck is 8"
        assert DENOISER_TOPOLOGY[0] / DENOISER_TOPOLOGY[2] == 8

    def test_spec_geometry(self):
        spec = denoiser_spec()
        assert spec.input_words == 1024
        assert spec.output_words == 1024

    def test_output_in_unit_range(self, rng):
        spec = denoiser_spec()
        out = spec.run(rng.uniform(0, 1, 1024))
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_denoiser_slower_than_classifier(self):
        # Table I: De+Cl runs at ~1/6th the NV+Cl rate; the denoiser is
        # the heavyweight stage.
        assert denoiser_spec().latency_cycles > \
            classifier_spec().latency_cycles


class TestMultiTile:
    def test_five_partitions(self):
        parts = partition_classifier()
        assert len(parts) == 5

    def test_partitions_chain_geometrically(self):
        parts = partition_classifier()
        sizes = [parts[0].input_words] + [p.output_words for p in parts]
        assert sizes == list(CLASSIFIER_TOPOLOGY)

    def test_partitioned_equals_monolithic(self, rng):
        from repro.accelerators.classifier import classifier_hls
        from repro.accelerators.classifier import spec_from_hls
        hls = classifier_hls()
        mono = spec_from_hls(hls, name="mono")
        parts = partition_classifier(hls_model=hls)
        x = rng.uniform(0, 1, 1024)
        staged = x
        for part in parts:
            staged = part.run(staged)
        np.testing.assert_array_equal(staged, mono.run(x))

    def test_each_partition_faster_than_whole(self):
        from repro.accelerators.classifier import classifier_hls
        hls = classifier_hls(reuse_factor=2048)
        parts = partition_classifier(hls_model=hls)
        whole_latency = hls.latency_cycles
        assert all(p.latency_cycles < whole_latency for p in parts)


def _spec_model(spec):
    """The compiled ``HlsModel`` a ``spec_from_hls`` spec runs."""
    (model,) = [cell.cell_contents for cell in spec.compute.__closure__
                if isinstance(cell.cell_contents, HlsModel)]
    return model


class TestCompiledModelSharing:
    def test_soc_builds_share_one_compiled_model(self):
        from repro.eval.apps import build_soc1
        first, second = build_soc1(), build_soc1()
        for device in ("cl0", "de0"):
            model = _spec_model(first.accelerator(device).spec)
            assert model is _spec_model(second.accelerator(device).spec)
        assert _spec_model(first.accelerator("cl0").spec) is classifier_hls()
        assert _spec_model(first.accelerator("de0").spec) is denoiser_hls()

    def test_compile_parameters_key_the_cache(self):
        assert classifier_hls(reuse_factor=2048) is \
            classifier_hls(reuse_factor=2048)
        assert classifier_hls(reuse_factor=2048) is not classifier_hls()
        assert denoiser_hls(clock_mhz=50.0) is not denoiser_hls()

    def test_compiled_parameters_are_read_only(self):
        layer = classifier_hls().layers[0]
        with pytest.raises(ValueError):
            layer.weights[0, 0] = 1.0
        with pytest.raises(ValueError):
            layer.bias[0] = 1.0
        with pytest.raises(ValueError):
            layer.weights.T[0, 0] = 1.0

    def test_compiled_layers_are_frozen(self):
        hls = denoiser_hls()
        assert isinstance(hls.layers, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            hls.layers[0].weights = np.zeros((1024, 256))
        with pytest.raises(dataclasses.FrozenInstanceError):
            hls.layers[0].activation = "linear"

    def test_caller_model_compiles_fresh(self):
        shared = _spec_model(classifier_spec())
        fresh = _spec_model(classifier_spec(classifier_model()))
        assert fresh is not shared
        assert fresh is not _spec_model(classifier_spec(classifier_model()))
        for mine, theirs in zip(fresh.layers, shared.layers):
            np.testing.assert_array_equal(mine.weights, theirs.weights)


_ACTIVATE = {"linear": lambda y, fmt: y, "relu": fixed_relu,
             "sigmoid": fixed_sigmoid, "softmax": fixed_softmax}


def _snapping_reference(layers, x):
    """Run ``layers`` re-quantizing W (from a row-major copy of W^T), b
    and the input on every call: ``fixed_matvec`` followed by the
    ``fixed_*`` activation."""
    x = np.atleast_2d(x)
    for layer in layers:
        fmt = layer.precision
        y = fixed_matvec(np.array(layer.weights.T, order="C"), x.T,
                         layer.bias, fmt, fmt, fmt).T
        x = _ACTIVATE[layer.activation](y, fmt)
    return x


def _small_model(fmt, head):
    """A 32-input MLP compiled with ``fmt``: a softmax classifier or a
    sigmoid autoencoder, with a linear layer in the middle."""
    if head == "softmax":
        layers = [Dense(16), ReLU(), Dense(8), Dense(4), Softmax()]
    else:
        layers = [Dense(16), ReLU(), Dense(8), Dense(32), Sigmoid()]
    model = Sequential(layers)
    model.build(32, seed=3)
    return compile_model(model, HlsConfig(precision=fmt, reuse_factor=1))


def _check_exact(layers, predict, rng, scale=1.0):
    """``predict`` equals the reference byte for byte (``tobytes`` also
    tells -0.0 from 0.0) on single frames and a 32-frame batch."""
    n_in = layers[0].n_in
    batches = [rng.uniform(0, scale, (1, n_in)) for _ in range(4)]
    batches.append(rng.uniform(-2 * scale, 2 * scale, (32, n_in)))
    for batch in batches:
        assert (predict(batch).tobytes()
                == _snapping_reference(layers, batch).tobytes())


class TestStoredParametersExact:
    """The fused layers equal the layer-by-layer composition, re-snapping
    the parameters and every layer input on each call.

    Compiled layers keep W and b quantized (W column-major, so the
    matvec reads W^T row-major). ``predict`` snaps its input once, and
    each layer casts its accumulator with one snap whose lower clamp is
    the ReLU. Both shortcuts are exact: quantize is idempotent on the
    grid, monotone, and maps 0 to 0. The stored parameters are exact
    too: every operand is a 16-bit value on the 2^-10 grid, so each
    product is a multiple of 2^-20 below 2^10 in magnitude and is exact
    in float64. A 1024-term sum of them plus the bias needs at most 42
    of the 53 mantissa bits, so no partial sum is ever rounded and no
    summation order, blocking or memory layout can change a bit.
    """

    @pytest.mark.parametrize("which", ["classifier", "denoiser", "part"])
    def test_matches_per_call_snapping(self, which, rng):
        if which == "part":
            layers = classifier_hls(reuse_factor=2048).layers[2:3]
            part = partition_classifier()[2]

            def predict(batch):
                return np.stack([part.run(row) for row in batch])
        else:
            hls = classifier_hls() if which == "classifier" \
                else denoiser_hls()
            layers, predict = hls.layers, hls.predict
        _check_exact(layers, predict, rng)

    @pytest.mark.parametrize("fmt", [
        FixedFormat(10, 3, overflow="wrap"),
        FixedFormat(12, 4, rounding="nearest"),
        FixedFormat(12, 2, rounding="nearest", overflow="wrap"),
        FixedFormat(16, 6),
    ], ids=lambda f: f"{f}-{f.rounding}-{f.overflow}")
    @pytest.mark.parametrize("head", ["softmax", "sigmoid"])
    def test_small_models(self, fmt, head, rng):
        hls = _small_model(fmt, head)
        _check_exact(hls.layers, hls.predict, rng, scale=8.0)

    def test_precision_change_between_layers(self, rng):
        wide, narrow = FixedFormat(16, 6), FixedFormat(8, 3)
        first = build_layer("a", rng.normal(0, 1, (32, 16)),
                            rng.normal(0, 1, 16), "relu", wide, 1)
        second = build_layer("b", rng.normal(0, 1, (16, 4)),
                             rng.normal(0, 1, 4), "linear", narrow, 1)
        hls = HlsModel("mixed", [first, second], clock_mhz=78.0)
        _check_exact(hls.layers, hls.predict, rng, scale=8.0)


class TestRegistry:
    def test_default_catalog(self):
        from repro.accelerators import AcceleratorRegistry
        registry = AcceleratorRegistry.default()
        assert set(registry.names()) == {"classifier", "denoiser",
                                         "night_vision"}
        spec = registry.build("night_vision")
        assert spec.input_words == 1024

    def test_unknown_name(self):
        from repro.accelerators import AcceleratorRegistry
        with pytest.raises(KeyError):
            AcceleratorRegistry.default().build("transformer")

    def test_duplicate_registration(self):
        from repro.accelerators import AcceleratorRegistry
        registry = AcceleratorRegistry.default()
        with pytest.raises(ValueError):
            registry.register("classifier", classifier_spec)
        registry.register("classifier", classifier_spec, replace=True)
