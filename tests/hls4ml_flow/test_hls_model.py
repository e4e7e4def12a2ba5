"""Tests for the compiled HLS model (timing + structure)."""

import numpy as np
import pytest

from repro.fixed import DEFAULT_FORMAT
from repro.hls4ml_flow import HlsConfig, HlsModel, build_layer, compile_model
from repro.nn import Dense, ReLU, Sequential, Softmax


def layer(n_in=8, n_out=4, reuse=4, activation="relu", name="l"):
    rng = np.random.default_rng(0)
    return build_layer(name, rng.uniform(-1, 1, (n_in, n_out)),
                       np.zeros(n_out), activation, DEFAULT_FORMAT, reuse)


class TestBuildLayer:
    def test_geometry(self):
        l = layer(8, 4)
        assert l.n_in == 8 and l.n_out == 4 and l.n_weights == 32

    def test_multiplier_count(self):
        assert layer(8, 4, reuse=4).n_multipliers == 8

    def test_bad_activation(self):
        with pytest.raises(ValueError):
            layer(activation="tanh")

    def test_bad_bias_shape(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            build_layer("l", rng.uniform(-1, 1, (8, 4)), np.zeros(3),
                        "relu", DEFAULT_FORMAT, 4)

    def test_weights_must_be_2d(self):
        with pytest.raises(ValueError):
            build_layer("l", np.zeros(8), np.zeros(4), "relu",
                        DEFAULT_FORMAT, 4)


class TestHlsModel:
    def test_shape_mismatch_between_layers_rejected(self):
        with pytest.raises(ValueError):
            HlsModel("bad", [layer(8, 4, name="a"), layer(8, 4, name="b")],
                     clock_mhz=78.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            HlsModel("empty", [], clock_mhz=78.0)

    def test_interval_is_max_layer_interval(self):
        model = Sequential([Dense(16), ReLU(), Dense(4), Softmax()],
                           name="m").build(8)
        names = [l.name for l in model.dense_layers()]
        hls = compile_model(model, HlsConfig(
            reuse_factor=4, layer_reuse={names[0]: 32, names[1]: 8}))
        assert hls.interval_cycles == max(l.schedule.interval
                                          for l in hls.layers)

    def test_latency_is_sum_of_layer_latencies(self):
        model = Sequential([Dense(16), ReLU(), Dense(4), Softmax()],
                           name="m").build(8)
        hls = compile_model(model, HlsConfig(reuse_factor=4))
        assert hls.latency_cycles == sum(l.schedule.latency
                                         for l in hls.layers)

    def test_throughput_from_clock(self):
        model = Sequential([Dense(16), ReLU()], name="m").build(8)
        hls = compile_model(model, HlsConfig(reuse_factor=8,
                                             clock_mhz=100.0))
        assert hls.throughput_fps() == pytest.approx(
            100e6 / hls.interval_cycles)

    def test_latency_us(self):
        model = Sequential([Dense(16), ReLU()], name="m").build(8)
        hls = compile_model(model, HlsConfig(reuse_factor=8,
                                             clock_mhz=78.0))
        assert hls.clock_mhz == 78.0

    def test_resources_accumulate_over_layers(self):
        model = Sequential([Dense(16), ReLU(), Dense(4), Softmax()],
                           name="m").build(8)
        hls = compile_model(model, HlsConfig(reuse_factor=4))
        assert hls.resources.dsps == sum(l.schedule.resources.dsps
                                         for l in hls.layers)
