"""Tests for firmware artifact emission (Fig. 3's generated files)."""

from repro.hls4ml_flow import (
    HlsConfig,
    compile_model,
    emit_all,
    emit_compute_cpp,
    emit_directives_tcl,
    emit_parameters_header,
    emit_weights_header,
)
from repro.nn import Dense, ReLU, Sequential, Softmax


def compiled(seed=0):
    model = Sequential([Dense(16), ReLU(), Dense(4), Softmax()],
                       name="fw").build(8, seed=seed)
    return compile_model(model, HlsConfig(reuse_factor=4))


class TestParametersHeader:
    def test_defines_every_layer(self):
        text = emit_parameters_header(compiled())
        assert "#define N_LAYER_1_IN  8" in text
        assert "#define N_LAYER_2_OUT 4" in text
        assert "REUSE_1" in text

    def test_precision_typedef(self):
        assert "ap_fixed<16,6>" in emit_parameters_header(compiled())


class TestWeightsHeader:
    def test_declares_arrays_with_sizes(self):
        text = emit_weights_header(compiled())
        assert "w1[128]" in text
        assert "b2[4]" in text

    def test_elides_long_arrays(self):
        assert "..." in emit_weights_header(compiled(), max_values=4)


class TestComputeCpp:
    def test_structure(self):
        text = emit_compute_cpp(compiled())
        assert "void compute(" in text
        assert "nnet::dense" in text
        assert "nnet::relu" in text
        assert "nnet::softmax" in text
        assert "// Network: 8x16x4" in text


class TestDirectives:
    def test_pipelines_every_layer(self):
        text = emit_directives_tcl(compiled())
        assert text.count("set_directive_pipeline") == 2
        assert "ap_fifo" in text


class TestEmitAll:
    def test_produces_the_fig3_file_set(self):
        files = emit_all(compiled())
        assert set(files) == {"parameters.h", "weights.h", "compute.cpp",
                              "directives.tcl"}
