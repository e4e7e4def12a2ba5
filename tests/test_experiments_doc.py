"""EXPERIMENTS.md quotes the committed paper results.

Every cell of the document's Table I, Fig. 7 and Fig. 8 tables, and
Fig. 7's best gain in its prose, equals ``BENCH_paper.json`` as the
``render_*`` functions print it. The views are rebuilt from the file,
so the test runs no simulation; ``benchmarks/bench_paper.py`` is the
file's only writer, and CI fails when a rerun changes it.
"""

import json
import re
from pathlib import Path

import pytest

from repro.eval import (
    Fig7Cluster,
    Fig7Data,
    Fig8Bar,
    Table1Column,
    render_fig7,
    render_fig8,
    render_table1,
)

REPO = Path(__file__).resolve().parent.parent


def bench(view):
    return json.loads((REPO / "BENCH_paper.json").read_text())[view]


def section(heading):
    text = (REPO / "EXPERIMENTS.md").read_text()
    return text.split(f"\n## {heading}")[1].split("\n## ")[0]


def doc_rows(heading):
    """The body rows of the markdown table under ``heading``, with bold
    and the multiplication sign written as the renderers write them."""
    rows = [[cell.strip().replace("**", "").replace("×", "x")
             for cell in line.strip("|").split("|")]
            for line in section(heading).splitlines()
            if line.startswith("|")]
    # Table I's second header row (ours / paper) has no label.
    return [row for row in rows[2:] if row[0]]


def rendered_rows(text):
    """The body rows of a ``format_table`` rendering."""
    table = text.split("\n\n")[0].splitlines()[2:]
    return [re.split(r" {2,}", line.strip()) for line in table]


def table1():
    columns = {cluster: Table1Column(**column)
               for cluster, column in bench("table1").items()}
    # "48% (paper 48%)" is two cells of the document: ours, paper.
    return [[row[0]] + [text for cell in row[1:] for text in
                        re.fullmatch(r"(.*) \(paper (.*)\)", cell).groups()]
            for row in rendered_rows(render_table1(columns))]


def fig7_text():
    return render_fig7(Fig7Data([Fig7Cluster(**cluster)
                                 for cluster in bench("fig7")["clusters"]]))


def fig8():
    return rendered_rows(render_fig8([Fig8Bar(**bar)
                                      for bar in bench("fig8")]))


@pytest.mark.parametrize("heading, rendered", [
    ("Table I", table1),
    ("Fig. 7", lambda: rendered_rows(fig7_text())),
    ("Fig. 8", fig8),
], ids=["table1", "fig7", "fig8"])
def test_table_quotes_the_bench(heading, rendered):
    # Rows pair up by position; the first cell is a label, which the
    # document spells for readers ("1NV+1Cl" for ``1nv_1cl``).
    assert ([row[1:] for row in doc_rows(heading)]
            == [row[1:] for row in rendered()])


def test_fig7_prose_quotes_the_best_gain():
    gain = re.search(r"best baseline: (\S+)x", fig7_text()).group(1)
    assert f"best gain is **{gain}×**" in section("Fig. 7")
