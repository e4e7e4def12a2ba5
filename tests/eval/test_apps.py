"""Tests for the case-study applications and SoC builders."""

import numpy as np
import pytest

from repro.eval import (
    APP_CONFIGS,
    BEST_CASE,
    build_soc1,
    build_soc2,
    dataflow_de_cl,
    dataflow_multitile,
    dataflow_nv_cl,
    fresh_runtime,
    nv_cl_inputs,
)


class TestSoCBuilders:
    def test_soc1_hosts_nine_accelerators(self):
        soc = build_soc1()
        names = set(soc.accelerators)
        assert names == {f"nv{i}" for i in range(4)} | \
            {f"cl{i}" for i in range(4)} | {"de0"}

    def test_soc1_grid_is_4x3(self):
        soc = build_soc1()
        assert (soc.config.cols, soc.config.rows) == (4, 3)

    def test_soc2_hosts_five_partitions(self):
        soc = build_soc2()
        assert set(soc.accelerators) == {f"part{i}" for i in range(5)}

    def test_paper_clock(self):
        assert build_soc1().clock_mhz == 78.0

    def test_soc1_fits_device(self):
        from repro.hls import XCVU9P
        usage = XCVU9P.utilization(build_soc1().resources())
        assert max(usage.values()) <= 1.0


class TestDataflows:
    def test_nv_cl_shapes(self):
        assert dataflow_nv_cl(1, 1).levels() == [["nv0"], ["cl0"]]
        assert dataflow_nv_cl(4, 1).levels() == \
            [[f"nv{i}" for i in range(4)], ["cl0"]]
        assert dataflow_nv_cl(4, 4).levels()[1] == \
            [f"cl{i}" for i in range(4)]

    def test_nv_cl_bounds(self):
        with pytest.raises(ValueError):
            dataflow_nv_cl(5, 1)

    def test_multitile_is_a_chain(self):
        df = dataflow_multitile()
        assert df.levels() == [[f"part{i}"] for i in range(5)]

    def test_all_p2p_valid(self):
        dataflow_de_cl().validate_for_p2p()
        dataflow_nv_cl(4, 4).validate_for_p2p()
        dataflow_multitile().validate_for_p2p()


class TestInputs:
    def test_nv_inputs_darkened(self):
        frames, labels = nv_cl_inputs(4, seed=0, darken_factor=0.25)
        assert frames.shape == (4, 1024)
        assert frames.max() <= 0.25 + 1e-9
        assert labels.shape == (4, 10)

    def test_best_case_keys_exist(self):
        for key in BEST_CASE.values():
            assert key in APP_CONFIGS


class TestFunctionalEndToEnd:
    def test_nv_cl_produces_probabilities(self):
        config = APP_CONFIGS["1nv_1cl"]
        rt = fresh_runtime(config)
        frames, _ = config.make_inputs(4)
        result = rt.esp_run(config.build_dataflow(), frames, mode="p2p")
        assert result.outputs.shape == (4, 10)
        np.testing.assert_allclose(result.outputs.sum(axis=1), 1.0,
                                   atol=0.05)

    def test_multitile_matches_monolithic_classifier(self):
        from repro.accelerators import classifier_spec
        config = APP_CONFIGS["1cl_split"]
        rt = fresh_runtime(config)
        frames, _ = config.make_inputs(4)
        result = rt.esp_run(config.build_dataflow(), frames, mode="p2p")
        # The partitioned pipeline computes the same function as one
        # classifier (same weights came from the same seed/model), up
        # to the classifier's own fixed-point tile I/O quantization.
        mono = classifier_spec()
        reference = np.stack([mono.run(f) for f in frames])
        np.testing.assert_allclose(result.outputs, reference, atol=0.02)
