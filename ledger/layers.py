"""Host time and calls per ``repro`` layer, from a cProfile run.

A function defined in ``src/repro/<layer>/`` belongs to that layer.
A function defined elsewhere (a builtin, numpy, the standard library)
is charged to the layers of its callers, split by the per-caller
figures pstats records, and up the call chain until a ``repro``
function is reached. What no layer called, and the ``repro``
subpackages that are not layers of their own (``eval``, ``faults``,
``tune``, ...), land in ``ext``, next to the ledger's own code.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional

import repro

LAYERS = ("sim", "noc", "soc", "accelerators", "fixed", "nn",
          "hls4ml_flow", "runtime", "serve", "fleet", "trace", "metrics",
          "ext")

_REPRO_DIR = Path(repro.__file__).resolve().parent

# Indices into a pstats entry (cc, nc, tt, ct, callers) and into its
# per-caller tuples (cc, nc, tt, ct).
CALLS = 1
SELF_TIME = 2


def _layer_of(filename: str) -> Optional[str]:
    """The layer of a function's file, or None outside ``repro``."""
    if filename.startswith(("~", "<")):
        return None
    try:
        parts = Path(filename).resolve().relative_to(_REPRO_DIR).parts
    except ValueError:
        return None
    return parts[0] if len(parts) > 1 and parts[0] in LAYERS else "ext"


def attribute(stats: dict, index: int) -> Dict[str, float]:
    """Total of one pstats column (``CALLS`` or ``SELF_TIME``) per layer.

    ``stats`` is ``pstats.Stats(...).stats``.
    """
    layer_cache: Dict[str, Optional[str]] = {}
    shares: Dict[tuple, Dict[str, float]] = {}

    def split(func) -> Dict[str, float]:
        """Fraction of ``func``'s column that each layer caused."""
        if func in shares:
            return shares[func]
        filename = func[0]
        if filename not in layer_cache:
            layer_cache[filename] = _layer_of(filename)
        layer = layer_cache[filename]
        if layer is not None:
            shares[func] = {layer: 1.0}
            return shares[func]
        # Provisional answer, so a recursive call chain terminates.
        shares[func] = {"ext": 1.0}
        callers = stats[func][4] if func in stats else {}
        total = sum(edge[index] for edge in callers.values())
        if total <= 0:
            return shares[func]
        result: Dict[str, float] = {}
        for caller, edge in callers.items():
            for name, fraction in split(caller).items():
                result[name] = (result.get(name, 0.0)
                                + fraction * edge[index] / total)
        shares[func] = result
        return result

    totals = dict.fromkeys(LAYERS, 0.0)
    for func, entry in stats.items():
        for name, fraction in split(func).items():
            totals[name] += fraction * entry[index]
    return totals
