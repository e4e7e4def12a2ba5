"""HLS synthesis directives (the ``directives.tcl`` of Fig. 3).

The ESP4ML flow emits a Tcl file of synthesis directives alongside the
generated C++ (Fig. 3: ``compute.cpp`` + ``directives.tcl``). This
module models directives as data and renders the Tcl text, so the flow
produces the same artifacts the paper's toolchain consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass(frozen=True)
class Directive:
    """One HLS directive bound to a location in the source."""

    kind: str                      # PIPELINE | UNROLL | ARRAY_PARTITION | INLINE | DATAFLOW | INTERFACE
    location: str                  # function or function/loop label
    options: str = ""

    _VALID = ("PIPELINE", "UNROLL", "ARRAY_PARTITION", "INLINE",
              "DATAFLOW", "INTERFACE")

    def __post_init__(self) -> None:
        if self.kind not in self._VALID:
            raise ValueError(
                f"unknown directive {self.kind!r}; options: {self._VALID}")

    def to_tcl(self) -> str:
        parts = [f"set_directive_{self.kind.lower()}"]
        if self.options:
            parts.append(self.options)
        parts.append(f'"{self.location}"')
        return " ".join(parts)


def pipeline(location: str, ii: int = 1) -> Directive:
    return Directive("PIPELINE", location, options=f"-II {ii}")


def array_partition(location: str, variable: str, factor: int,
                    kind: str = "cyclic") -> Directive:
    return Directive("ARRAY_PARTITION", location,
                     options=f"-type {kind} -factor {factor} "
                             f"-dim 1 -variable {variable}")


def ap_fifo_interface(location: str, port: str) -> Directive:
    """The ``ap_fifo`` ports the ESP adapter bridges (Sec. I item 4)."""
    return Directive("INTERFACE", location,
                     options=f"-mode ap_fifo -register -variable {port}")


@dataclass
class DirectiveFile:
    """An ordered set of directives rendered as directives.tcl."""

    top: str
    directives: List[Directive] = field(default_factory=list)

    def add(self, directive: Directive) -> None:
        self.directives.append(directive)

    def to_tcl(self) -> str:
        lines = [f"# Auto-generated by the ESP4ML flow for top={self.top}",
                 f"set_top {self.top}"]
        lines.extend(d.to_tcl() for d in self.directives)
        return "\n".join(lines) + "\n"
