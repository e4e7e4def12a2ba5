"""EXPERIMENTS.md quotes the committed benchmark reports.

Every cell of the document's Table I, Fig. 7 and Fig. 8 tables, and
Fig. 7's best gain in its prose, equals ``BENCH_paper.json`` as the
``render_*`` functions print it. The Sec. VI table quotes
``BENCH_training.json``, the tuner table ``BENCH_coherence.json``, and
every figure in the Ablations bullets is recomputed from
``BENCH_ablations.json`` or ``BENCH_coherence.json`` and must appear
verbatim in its bullet; no other number may. The tests read the files
and run no simulation; each file's bench is its only writer, and CI
fails when a rerun changes it.
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


def report(name):
    return json.loads((REPO / f"BENCH_{name}.json").read_text())


def bench(view):
    return report("paper")[view]


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


def test_sec6_table_quotes_the_training_bench():
    training = report("training")
    paper = training["paper"]
    assert [row[1:] for row in doc_rows("Sec. VI")] == [
        [f"{paper['classifier_accuracy']:.0%}",
         f"{training['classifier_accuracy']:.1%}"],
        [f"{paper['denoiser_mse']:.1%}", f"{training['denoiser_mse']:.1%}"],
        ["n/a (implied ≈float)", f"{training['fixed_point_accuracy']:.1%}"],
    ]


UNIFORM = ("non-coherent", "llc-coherent", "fully-coherent")


def test_tuner_table_quotes_the_coherence_bench():
    rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in section("Ablations").splitlines()
            if line.strip().startswith("|")][2:]
    workloads = report("coherence")["workloads"]
    expected = []
    for name, workload in workloads.items():
        cycles = workload["measured_cycles"]
        best = min(UNIFORM, key=cycles.get)
        expected.append([f"`{name}`"] + [
            f"**{cycles[mode]:,}**" if mode == best else f"{cycles[mode]:,}"
            for mode in UNIFORM])
    assert [row[:4] for row in rows] == expected
    for row, workload in zip(rows, workloads.values()):
        assert row[4].startswith(workload["chosen"]), row


def change(new, old):
    """``new`` relative to ``old`` as a signed percentage, "−5%"."""
    return f"{new / old - 1:.0%}".replace("-", "−")


def ablation_quotes():
    """Bullet title -> the figures its text quotes, recomputed from the
    committed reports."""
    ablations, coherence = report("ablations"), report("coherence")
    kernel = ablations["reuse_factor"]["kernel"]
    lo, hi = min(kernel, key=int), max(kernel, key=int)
    fps = ablations["reuse_factor"]["system_fps"]
    flat, flat_hi, slow = sorted(fps, key=int)

    models = coherence["models"]
    p2p_fps, llc_fps, non_fps = (models[key]["frames_per_second"] for key
                                 in ("p2p", "llc-coherent", "non-coherent"))
    full, llc, non = (models[key]["dram_words"] for key
                      in ("fully-coherent", "llc-coherent", "non-coherent"))
    sweep = coherence["llc_dram_words"]
    small, mid, big = sorted(sweep, key=int)

    dvfs = ablations["dvfs"]
    base, half, quarter, eighth = sorted(dvfs, key=int)

    buffering = ablations["double_buffering"]
    reuses = sorted(buffering, key=int)
    speedups = [f"{row['ping_pong_fps'] / row['sequential_fps']:.1f}×"
                for row in (buffering[reuse] for reuse in reuses)]

    saturation = ablations["noc_saturation"]
    curve = saturation["curve"]
    noc = ablations["noc"]
    fan, placed = noc["fan_in"], noc["memory_placement"]
    local = noc["p2p_locality"]
    hops = {label: row["flit_hops"]
            for label, row in ablations["placement"].items()}
    cycles = {label: row["cycles"]
              for label, row in ablations["placement"].items()}

    return {
        "Reuse factor": [
            f"({kernel[lo]['interval']:,} → {kernel[hi]['interval']:,} "
            f"cycles)",
            f"{lo}→{kernel[lo]['dsps']:,} DSPs vs "
            f"{hi}→{kernel[hi]['dsps']:,} DSPs",
            f"flat from reuse {flat} to {flat_hi} ({fps[flat]:,.0f} vs "
            f"{fps[flat_hi]:,.0f} frames/s",
            f"drops {1 - fps[slow] / fps[flat_hi]:.0%} at {slow}"],
        "Coherence models": [
            f"({llc:,} vs {non:,} words)",
            f"({llc_fps:,.0f} vs {non_fps:,.0f} frames/s)",
            f"p2p is {p2p_fps / llc_fps:.2f}× faster than LLC-coherent and "
            f"{p2p_fps / non_fps:.2f}× faster than non-coherent",
            f"move {'the same ' if full == llc else ''}{full:,} words",
            f"{sweep[small]:,} words at a {int(small):,}-word LLC, "
            f"{sweep[mid]:,} at {int(mid):,} and {sweep[big]:,} at "
            f"{int(big):,}"],
        "Coherence auto-tuner": [
            f"{value:,}" for workload in coherence["workloads"].values()
            for mode, value in workload["measured_cycles"].items()
            if mode in UNIFORM],
        "Per-tile DVFS": [
            f"divider {half} sits at the slack boundary "
            f"({change(dvfs[half]['fps'], dvfs[base]['fps'])} fps, "
            f"{change(dvfs[half]['watts'], dvfs[base]['watts'])} W)",
            f"dividers {quarter} and {eighth} stall the pipeline "
            f"({change(dvfs[quarter]['fps'], dvfs[base]['fps'])} and "
            f"{change(dvfs[eighth]['fps'], dvfs[base]['fps'])} fps)"],
        "Double buffering": [
            f"{speedups[0]}, {speedups[1]} and {speedups[2]} single-tile "
            f"throughput at reuse {reuses[0]}, {reuses[1]} and "
            f"{reuses[2]}"],
        "NoC load-latency curve": [
            f"near the zero-load {saturation['zero_load_latency']} cycles",
            f"({curve[0]['mean_latency']} at {curve[0]['rate']} and "
            f"{curve[1]['mean_latency']} at {curve[1]['rate']} "
            f"flits/cycle/tile)",
            f"({curve[3]['mean_latency']:,} at {curve[3]['rate']}, "
            f"{curve[5]['mean_latency']:,} at {curve[5]['rate']})",
            f"analytic bisection bound ({saturation['saturation_rate']})"],
        "NoC fan-in / memory placement / p2p locality": [
            f"inflates worst-case latency "
            f"{fan['max_latency'] / fan['uncontended_bound']:.0f}× over the "
            f"{fan['uncontended_bound']}-cycle wormhole bound "
            f"({fan['max_latency']:,} cycles)",
            f"({placed['center']:,} vs {placed['corner']:,} cycles)",
            f"({local['pipe']['dram_words']:,} → "
            f"{local['p2p']['dram_words']:,})"],
        "Accelerator placement": [
            f"cuts NoC flit-hops "
            f"{1 - hops['optimized'] / hops['adversarial']:.0%}",
            f"({hops['adversarial'] / 1000:.1f}k → "
            f"{hops['optimized'] / 1000:.1f}k)",
            f"({cycles['adversarial']:,} → {cycles['optimized']:,})"],
    }


def ablation_bullets():
    """Bullet title -> its text, whitespace collapsed."""
    chunks = section("Ablations").split("\n- **")[1:]
    return dict((title, " ".join(body.split())) for title, body in
                (chunk.split("**", 1) for chunk in chunks))


#: Digits that name things rather than measure them: citations, the
#: Fig. 4 loop, the 1NV+1Cl application, the 4x4 mesh and p2p.
NAMES = re.compile(r"\[\d+\]|Fig\. \d+|1NV\+1Cl|4×4|p2p")


def test_ablation_bullets_quote_the_benches():
    quotes, bullets = ablation_quotes(), ablation_bullets()
    assert set(bullets) == set(quotes)
    for title, figures in quotes.items():
        missing = [figure for figure in figures
                   if figure not in bullets[title]]
        assert not missing, (title, missing)


def test_ablations_quote_no_other_number():
    text = " ".join(section("Ablations").split())
    for figure in sorted((figure for figures in ablation_quotes().values()
                          for figure in figures), key=len, reverse=True):
        text = text.replace(figure, "")
    assert not re.findall(r".{0,30}\d.{0,10}", NAMES.sub("", text))
