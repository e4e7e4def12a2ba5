"""The benchmark scripts and the one writer of their reports.

Every bench that commits a report exposes ``payload()``, which runs
the bench, asserts its ``check()`` and returns the report as a dict
without writing it, and ``main()``, which writes it with
:func:`write_report`. ``tests/test_bench_scripts.py`` compares
:func:`report_text` of each simulated payload with its committed file.
"""

import json
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def report_text(payload):
    """A report's bytes as committed."""
    return json.dumps(payload, indent=2) + "\n"


def write_report(name, payload):
    """Write ``payload`` to ``name`` under the checkout, whatever the
    working directory, and print where."""
    path = REPO / name
    path.parent.mkdir(exist_ok=True)
    path.write_text(report_text(payload))
    print(f"report: {path}")
    return path
