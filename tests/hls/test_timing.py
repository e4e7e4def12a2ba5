"""Tests for the static timing model."""

import pytest

from repro.hls4ml_flow import HlsConfig, compile_model
from repro.nn import Dense, ReLU, Sequential
from tests.hls.timing import (
    TimingConstants,
    adder_path_ns,
    control_path_ns,
    dense_layer_fmax_mhz,
    mac_stage_path_ns,
    memory_stage_path_ns,
    timing_report_for_model,
)


def small_hls(precision="ap_fixed<16,6>"):
    model = Sequential([Dense(16), ReLU(), Dense(4)], name="t").build(8)
    return compile_model(model, HlsConfig(precision=precision,
                                          reuse_factor=4))


class TestPaths:
    def test_adder_scales_with_width(self):
        assert adder_path_ns(64) > adder_path_ns(16)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            adder_path_ns(0)
        with pytest.raises(ValueError):
            control_path_ns(0)

    def test_mac_dominates_narrow_memories(self):
        # For wide accumulators the MAC stage is the critical path.
        assert mac_stage_path_ns(64) > memory_stage_path_ns()

    def test_fmax_decreases_with_accumulator_width(self):
        assert dense_layer_fmax_mhz(24) > dense_layer_fmax_mhz(64)

    def test_custom_constants(self):
        slow = TimingConstants(name="slow", lut_delay_ns=1.0,
                               net_delay_ns=1.0)
        assert adder_path_ns(16, slow) > adder_path_ns(16)


class TestReport:
    def test_paper_clock_met_with_huge_slack(self):
        """78 MHz on an Ultrascale+ is a very relaxed target — the
        paper's SoCs close timing trivially, as the report shows."""
        report = timing_report_for_model(small_hls(),
                                         target_clock_mhz=78.0)
        assert report.meets_timing()
        assert report.slack_ns > 5.0
        assert report.fmax_mhz > 200.0

    def test_violation_detected_at_absurd_clock(self):
        report = timing_report_for_model(small_hls(),
                                         target_clock_mhz=1000.0)
        assert not report.meets_timing()
        assert report.slack_ns < 0

    def test_wider_precision_lowers_fmax(self):
        narrow = timing_report_for_model(small_hls("ap_fixed<12,4>"))
        wide = timing_report_for_model(small_hls("ap_fixed<32,12>"))
        assert wide.fmax_mhz < narrow.fmax_mhz

    def test_critical_layer_is_widest_accumulator(self):
        report = timing_report_for_model(small_hls())
        widths = [l.accumulator_width for l in report.layers]
        assert report.critical_layer.accumulator_width == max(widths)

    def test_report_text(self):
        text = timing_report_for_model(small_hls()).to_text()
        assert "MET" in text
        assert "fmax" in text

    def test_one_row_per_layer(self):
        report = timing_report_for_model(small_hls())
        assert len(report.layers) == 2
