"""Tests asserting the paper's experimental claims hold in simulation.

These are the headline reproduction checks: each test pins one claim
from the evaluation section (Table I, Fig. 7, Fig. 8) as an invariant,
on views of one evaluation at a small frame count to stay fast.
"""

from dataclasses import replace

import pytest

from benchmarks.bench_paper import check, views
from repro.eval import (
    evaluate,
    generate_fig7,
    generate_fig8,
    generate_table1,
    measure,
    render_fig7,
    render_fig8,
    render_table1,
)
from repro.platforms import PAPER_FPS

FRAMES = 8


@pytest.fixture(scope="module")
def evaluation():
    return evaluate(n_frames=FRAMES)


@pytest.fixture(scope="module")
def table1(evaluation):
    return generate_table1(evaluation)


@pytest.fixture(scope="module")
def fig7(evaluation):
    return generate_fig7(evaluation)


@pytest.fixture(scope="module")
def fig8(evaluation):
    return generate_fig8(evaluation)


def test_bench_check_rejects_a_broken_claim(evaluation):
    """``bench_paper.check`` fails on an evaluation where p2p cuts the
    4NV+4Cl DRAM words by only 1.5x (Fig. 8 claims 2x-3x)."""
    check(views(evaluation))
    p2p_words = evaluation["4nv_4cl", "p2p"].dram_accesses
    broken = dict(evaluation)
    broken["4nv_4cl", "pipe"] = replace(
        evaluation["4nv_4cl", "pipe"], dram_accesses=int(1.5 * p2p_words))
    with pytest.raises(AssertionError, match=r"'4nv_4cl', 1\.5\)"):
        check(views(broken))


class TestTable1(object):
    def test_esp4ml_fps_within_band_of_paper(self, table1):
        for cluster, column in table1.items():
            ratio = column.fps_esp4ml / column.paper_fps_esp4ml
            assert 0.5 < ratio < 2.0, (cluster, ratio)

    def test_power_matches_paper(self, table1):
        for column in table1.values():
            assert column.power_watts == pytest.approx(
                column.paper_power_watts, rel=0.05)

    def test_utilization_in_band(self, table1):
        for cluster, column in table1.items():
            assert 0.05 < column.luts < 0.8
            assert 0.05 < column.brams < 0.8

    def test_soc1_larger_than_soc2(self, table1):
        assert table1["nv_cl"].luts > table1["multitile"].luts
        assert table1["nv_cl"].brams > table1["multitile"].brams

    def test_baseline_rows_are_paper_values(self, table1):
        for cluster, column in table1.items():
            assert column.fps_i7 == pytest.approx(
                PAPER_FPS["i7"][cluster], rel=1e-6)
            assert column.fps_jetson == pytest.approx(
                PAPER_FPS["jetson"][cluster], rel=1e-6)

    def test_ordering_claims(self, table1):
        # ESP4ML beats the Jetson on every app (paper: "better
        # performance compared to a commercial embedded platform").
        for column in table1.values():
            assert column.fps_esp4ml > column.fps_jetson
        # The i7 wins raw performance except on Night-Vision.
        assert table1["nv_cl"].fps_esp4ml > table1["nv_cl"].fps_i7
        assert table1["de_cl"].fps_i7 > table1["de_cl"].fps_esp4ml
        assert table1["multitile"].fps_i7 > \
            table1["multitile"].fps_esp4ml

    def test_render(self, table1):
        text = render_table1(table1)
        assert "FRAMES/S ESP4ML" in text
        assert "paper" in text


class TestFig7:
    def test_modes_ordered_base_pipe_p2p(self, fig7):
        for cluster in fig7.clusters:
            fpj = cluster.frames_per_joule
            assert fpj["base"] < fpj["pipe"] <= fpj["p2p"] * 1.02, \
                cluster.app_key

    def test_nv_replication_scales(self, fig7):
        one = fig7.cluster("1nv_1cl").frames_per_joule["p2p"]
        four_one = fig7.cluster("4nv_1cl").frames_per_joule["p2p"]
        four_four = fig7.cluster("4nv_4cl").frames_per_joule["p2p"]
        assert one < four_one < four_four

    def test_esp4ml_beats_both_baselines_everywhere(self, fig7):
        """Paper: 'the ESP4ML SoCs outperforms both the GPU and the CPU
        across all three applications' (in frames/J)."""
        for cluster in fig7.clusters:
            best = cluster.frames_per_joule["p2p"]
            assert best > cluster.i7_frames_per_joule
            assert best > cluster.jetson_frames_per_joule

    def test_gain_over_100x_somewhere(self, fig7):
        assert fig7.max_gain() > 100.0

    def test_render(self, fig7):
        text = render_fig7(fig7)
        assert "p2p/i7" in text
        assert "over 100x" in text


class TestFig8:
    def test_reduction_between_2x_and_3x(self, fig8):
        for bar in fig8:
            assert 1.8 <= bar.reduction <= 3.2, (bar.app_key,
                                                 bar.reduction)

    def test_p2p_always_reduces(self, fig8):
        for bar in fig8:
            assert bar.dram_p2p < bar.dram_no_p2p

    def test_two_stage_apps_reduce_about_3x(self, fig8):
        by_key = {bar.app_key: bar for bar in fig8}
        assert by_key["4nv_4cl"].reduction == pytest.approx(3.0, abs=0.15)
        assert by_key["1de_1cl"].reduction == pytest.approx(3.0, abs=0.15)
        assert by_key["1cl_split"].reduction == pytest.approx(1.93,
                                                              abs=0.15)

    def test_render(self, fig8):
        assert "reduction" in render_fig8(fig8)


class TestMeasurement:
    @pytest.fixture(scope="class")
    def results(self):
        """One 4-frame 1nv_1cl run per mode, shared by two tests."""
        return {mode: measure("1nv_1cl", mode, n_frames=4)
                for mode in ("base", "pipe", "p2p")}

    def test_measure_all_modes(self, results):
        assert set(results) == {"base", "pipe", "p2p"}
        assert all(r.fps > 0 for r in results.values())

    def test_unknown_app(self):
        with pytest.raises(KeyError):
            measure("8nv_8cl", "p2p")

    def test_ioctl_counts(self, results):
        assert results["base"].ioctl_calls == 8    # 2 devices x 4 frames
        assert results["p2p"].ioctl_calls == 2
