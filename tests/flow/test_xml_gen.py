"""Tests for accelerator XML descriptor generation."""

import xml.etree.ElementTree as ET
from typing import List, Tuple

import pytest

from repro.flow import emit_accelerator_xml
from tests.conftest import make_spec


def parse_accelerator_xml(text: str) -> Tuple[str, List[str]]:
    """Parse a descriptor back to (module name, register names)."""
    root = ET.fromstring(text)
    if root.tag != "module":
        raise ValueError(f"expected <module> root, got <{root.tag}>")
    name = root.attrib["name"]
    registers = [reg.attrib["name"]
                 for reg in root.findall("./registers/reg")]
    return name, registers


class TestEmit:
    def test_contains_module_and_registers(self):
        text = emit_accelerator_xml(make_spec(name="toy"))
        assert '<module name="toy"' in text
        assert 'name="CMD_REG"' in text
        assert 'name="P2P_REG"' in text
        assert 'name="LOCATION_REG"' in text

    def test_location_reg_marked_readonly(self):
        text = emit_accelerator_xml(make_spec())
        for line in text.splitlines():
            if 'LOCATION_REG' in line:
                assert 'readonly="true"' in line
            elif 'readonly' in line:
                assert 'readonly="false"' in line

    def test_io_geometry_exported(self):
        text = emit_accelerator_xml(make_spec(input_words=48,
                                              output_words=12))
        assert 'value="48"' in text
        assert 'value="12"' in text


class TestParse:
    def test_roundtrip(self):
        spec = make_spec(name="toy")
        name, registers = parse_accelerator_xml(emit_accelerator_xml(spec))
        assert name == "toy"
        assert "CMD_REG" in registers
        assert "N_FRAMES_REG" in registers

    def test_rejects_wrong_root(self):
        with pytest.raises(ValueError):
            parse_accelerator_xml("<thing/>")
