"""Accelerator configuration registers.

Every ESP accelerator socket exposes memory-mapped registers; the
ESP4ML contribution adds two (paper Sec. IV):

- ``LOCATION_REG``: read-only x-y coordinates of the tile on the NoC,
  so the OS can map device names to mesh locations.
- ``P2P_REG``: p2p configuration — store enable, load enable, number of
  source tiles (1 to 4) and their x-y coordinates.

The register list of each accelerator is specified in an XML file in
the ESP integration flow; :mod:`repro.flow.xml_gen` emits it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

Coord = Tuple[int, int]

#: Standard register names present in every socket.
CMD_REG = "CMD_REG"
STATUS_REG = "STATUS_REG"
SRC_OFFSET_REG = "SRC_OFFSET_REG"
DST_OFFSET_REG = "DST_OFFSET_REG"
SRC_STRIDE_REG = "SRC_STRIDE_REG"
DST_STRIDE_REG = "DST_STRIDE_REG"
COHERENCE_REG = "COHERENCE_REG"
DVFS_REG = "DVFS_REG"
LOCATION_REG = "LOCATION_REG"
P2P_REG = "P2P_REG"

CMD_START = 1
#: Abort the in-flight invocation and return the socket to idle. The
#: robustness extension the runtime's watchdog relies on: a hung or
#: crashed kernel is abandoned, the socket DMA queues are flushed, and
#: the tile accepts a fresh CMD_START.
CMD_RESET = 2

#: COHERENCE_REG values: ESP accelerators select their coherence model
#: at run time (Giri et al. [12], [14]). ``COHERENCE_FULL`` selects the
#: fully-coherent model: a private cache at the accelerator tile kept
#: coherent over the NoC's three coherence planes
#: (:mod:`repro.soc.coherence`).
COHERENCE_NON_COHERENT = 0
COHERENCE_LLC = 1
COHERENCE_FULL = 2

STATUS_IDLE = 0
STATUS_RUNNING = 1
STATUS_DONE = 2
#: The invocation died (kernel crash): completion IRQ fires with this
#: status so the driver can distinguish failure from success.
STATUS_ERROR = 3

MAX_P2P_SOURCES = 4

#: DVFS_REG holds the tile's clock divider (1 = full speed). ESP pairs
#: each tile with a DVFS controller (Mantovani et al. [21], cited by
#: the paper); the divider stretches the accelerator's compute cycles
#: and scales its dynamic power down proportionally.
MAX_DVFS_DIVIDER = 16


@dataclass(frozen=True)
class P2PConfig:
    """Decoded contents of ``P2P_REG``."""

    store_enabled: bool = False
    load_enabled: bool = False
    sources: Tuple[Coord, ...] = ()

    def __post_init__(self) -> None:
        if self.load_enabled and not self.sources:
            raise ValueError("p2p load enabled but no source tiles given")
        if len(self.sources) > MAX_P2P_SOURCES:
            raise ValueError(
                f"at most {MAX_P2P_SOURCES} p2p sources supported, "
                f"got {len(self.sources)}")
        for x, y in self.sources:
            if not (0 <= x < 16 and 0 <= y < 16):
                raise ValueError(
                    f"source coordinate ({x},{y}) does not fit the "
                    f"4-bit x/y fields of P2P_REG")

    def encode(self) -> int:
        """Pack into the register encoding (64-bit).

        bit 0: store enable; bit 1: load enable; bits 2-4: number of
        sources minus one; bits 8+8i..15+8i: source i as (y << 4 | x).
        """
        value = int(self.store_enabled) | (int(self.load_enabled) << 1)
        if self.sources:
            value |= (len(self.sources) - 1) << 2
        for index, (x, y) in enumerate(self.sources):
            value |= ((y << 4) | x) << (8 + 8 * index)
        return value

    @classmethod
    def decode(cls, value: int) -> "P2PConfig":
        store_enabled = bool(value & 1)
        load_enabled = bool(value & 2)
        n_sources = ((value >> 2) & 0x7) + 1
        sources: List[Coord] = []
        if load_enabled:
            for index in range(n_sources):
                byte = (value >> (8 + 8 * index)) & 0xFF
                sources.append((byte & 0xF, byte >> 4))
        return cls(store_enabled=store_enabled, load_enabled=load_enabled,
                   sources=tuple(sources))

    @property
    def uses_p2p(self) -> bool:
        return self.store_enabled or self.load_enabled


#: ``P2P_REG`` value -> its decoded :class:`P2PConfig`. The config is
#: frozen, so one decode serves every read of the same value on any
#: socket; a value that fails validation is not cached and raises on
#: every read.
_decode_p2p = lru_cache(maxsize=256)(P2PConfig.decode)


def encode_location(coord: Coord) -> int:
    """``LOCATION_REG`` encoding: y in bits 4-7, x in bits 0-3."""
    x, y = coord
    return (y << 4) | x


def decode_location(value: int) -> Coord:
    return (value & 0xF, (value >> 4) & 0xF)


class RegisterFile:
    """The memory-mapped register bank of one accelerator socket."""

    def __init__(self, coord: Coord,
                 user_registers: Optional[List[str]] = None) -> None:
        self._values: Dict[str, int] = {
            CMD_REG: 0,
            STATUS_REG: STATUS_IDLE,
            SRC_OFFSET_REG: 0,
            DST_OFFSET_REG: 0,
            SRC_STRIDE_REG: 0,
            DST_STRIDE_REG: 0,
            COHERENCE_REG: COHERENCE_NON_COHERENT,
            DVFS_REG: 1,
            LOCATION_REG: encode_location(coord),
            P2P_REG: 0,
        }
        for name in user_registers or ():
            if name in self._values:
                raise ValueError(f"register name {name!r} collides with a "
                                 f"standard register")
            self._values[name] = 0
        self._write_hooks: List[Callable[[str, int], None]] = []

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(self._values)

    def on_write(self, hook: Callable[[str, int], None]) -> None:
        """Register a side-effect hook (the socket's start logic)."""
        self._write_hooks.append(hook)

    def read(self, name: str) -> int:
        if name not in self._values:
            raise KeyError(f"no register named {name!r}")
        return self._values[name]

    def write(self, name: str, value: int) -> None:
        if name not in self._values:
            raise KeyError(f"no register named {name!r}")
        if name == LOCATION_REG:
            raise PermissionError("LOCATION_REG is read-only")
        self._values[name] = int(value)
        for hook in self._write_hooks:
            hook(name, int(value))

    def p2p_config(self) -> P2PConfig:
        return _decode_p2p(self._values[P2P_REG])

    def location(self) -> Coord:
        return decode_location(self._values[LOCATION_REG])
