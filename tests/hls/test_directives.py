"""Tests for HLS directive modelling and Tcl emission."""

from typing import Optional

import pytest

from repro.hls import (
    Directive,
    DirectiveFile,
    ap_fifo_interface,
    array_partition,
    pipeline,
)


def unroll(location: str, factor: Optional[int] = None) -> Directive:
    options = f"-factor {factor}" if factor else ""
    return Directive("UNROLL", location, options=options)


class TestDirective:
    def test_pipeline_tcl(self):
        assert pipeline("top/loop", ii=4).to_tcl() == \
            'set_directive_pipeline -II 4 "top/loop"'

    def test_unroll_with_and_without_factor(self):
        assert "-factor 8" in unroll("top/loop", factor=8).to_tcl()
        assert "-factor" not in unroll("top/loop").to_tcl()

    def test_array_partition(self):
        tcl = array_partition("top", "weights", factor=16).to_tcl()
        assert "-type cyclic" in tcl
        assert "-variable weights" in tcl

    def test_ap_fifo_interface(self):
        tcl = ap_fifo_interface("compute", "input").to_tcl()
        assert "-mode ap_fifo" in tcl

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Directive("FUSE", "top")


class TestDirectiveFile:
    def test_renders_header_and_all_directives(self):
        f = DirectiveFile(top="compute")
        f.add(pipeline("compute/l1"))
        f.add(unroll("compute/l2", factor=2))
        text = f.to_tcl()
        assert "set_top compute" in text
        assert text.count("set_directive_") == 2
        assert text.endswith("\n")
