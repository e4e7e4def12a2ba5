"""Accelerator XML generation (the ``accN.xml`` of Fig. 3).

Paper Sec. III: "The list of registers is specified into an XML file
for each accelerator following the default ESP integration flow." This
module renders that file for any accelerator spec and parses it back
(the SoC generator consumes it).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from ..accelerators.base import AcceleratorSpec
from ..soc.registers import RegisterFile


def emit_accelerator_xml(spec: AcceleratorSpec) -> str:
    """Render the ESP integration descriptor for one accelerator."""
    root = ET.Element("module", {
        "name": spec.name,
        "desc": f"{spec.name} ({spec.design_flow} flow)",
        "data_size": str(spec.word_bits),
        "device_id": f"0x{abs(hash(spec.name)) % 0xFFFF:04x}",
    })
    generic = ET.SubElement(root, "generic")
    ET.SubElement(generic, "param", {"name": "input_words",
                                     "value": str(spec.input_words)})
    ET.SubElement(generic, "param", {"name": "output_words",
                                     "value": str(spec.output_words)})
    registers = ET.SubElement(root, "registers")
    # The standard socket registers plus the frame count.
    reg_names = RegisterFile((0, 0), user_registers=["N_FRAMES_REG"]).names
    for index, name in enumerate(reg_names):
        ET.SubElement(registers, "reg", {
            "name": name,
            "offset": f"0x{index * 4:03x}",
            "readonly": "true" if name == "LOCATION_REG" else "false",
        })
    ET.indent(root)
    return ET.tostring(root, encoding="unicode") + "\n"
