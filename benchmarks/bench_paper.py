"""Paper benchmark: Table I, Fig. 7 and Fig. 8 from one evaluation.

Measures each of the paper's 15 (configuration, mode) cells once, at
32 frames (``repro.eval.evaluate``: the five Fig. 7 configurations x
base / pipe / p2p), and derives the three results from those runs:

- Table I: FPGA utilization, dynamic power and frames/s on ESP4ML /
  Intel i7 / Jetson TX1 for the three applications, measured vs paper;
- Fig. 7: frames/Joule for every bar, with the i7 and Jetson lines;
- Fig. 8: DRAM words without and with p2p for the three applications.

It checks the claims they support:

- ESP4ML throughput within a factor-2 band of the paper's testbed;
  SoC-1 outsizes and outdraws SoC-2;
- base < pipe <~ p2p in every Fig. 7 cluster, p2p beats both
  baselines everywhere, and the best gain is over 100x;
- the Night-Vision cluster rises with replication, and replicating the
  slow stage scales pipe-mode throughput (Sec. V balancing);
- p2p cuts DRAM accesses between 2x and 3x;
- contribution 1: p2p traffic rides the two DMA planes; no other plane
  carries accelerator data.

The run writes ``BENCH_paper.json``: every Table I cell beside the
paper's, every Fig. 7 bar and line, every Fig. 8 count and each
cell's run (with its flit-hops per NoC plane). EXPERIMENTS.md quotes
the file; ``tests/test_experiments_doc.py`` keeps the two equal.

Run:  PYTHONPATH=src:. python benchmarks/bench_paper.py
"""

from dataclasses import asdict

from benchmarks import write_report
from repro.eval import (
    evaluate,
    generate_fig7,
    generate_fig8,
    generate_table1,
    render_fig7,
    render_fig8,
    render_table1,
)
from repro.noc import DMA_REQUEST_PLANE, DMA_RESPONSE_PLANE, IO_PLANE


def views(evaluation):
    """Table I, Fig. 7 and Fig. 8 of one evaluation."""
    return {"cells": evaluation,
            "table1": generate_table1(evaluation),
            "fig7": generate_fig7(evaluation),
            "fig8": generate_fig8(evaluation)}


def check(results):
    table1, fig7 = results["table1"], results["fig7"]
    for cluster, column in table1.items():
        ratio = column.fps_esp4ml / column.paper_fps_esp4ml
        assert 0.5 < ratio < 2.0, (cluster, ratio)
        assert column.power_watts > 0
    assert table1["nv_cl"].brams > table1["multitile"].brams
    assert table1["nv_cl"].power_watts > table1["multitile"].power_watts

    for cluster in fig7.clusters:
        fpj = cluster.frames_per_joule
        assert fpj["base"] < fpj["pipe"], cluster.app_key
        assert fpj["pipe"] <= fpj["p2p"] * 1.02, cluster.app_key
        assert fpj["p2p"] > cluster.i7_frames_per_joule, cluster.app_key
        assert fpj["p2p"] > cluster.jetson_frames_per_joule, \
            cluster.app_key
    assert fig7.max_gain() > 100.0
    one, four_one, four_four = (fig7.cluster(key) for key in
                                ("1nv_1cl", "4nv_1cl", "4nv_4cl"))
    assert (one.frames_per_joule["p2p"] < four_one.frames_per_joule["p2p"]
            < four_four.frames_per_joule["p2p"])
    assert four_one.fps["pipe"] > 1.4 * one.fps["pipe"]
    assert four_four.fps["pipe"] > 1.8 * four_one.fps["pipe"]

    for bar in results["fig8"]:
        assert 1.8 <= bar.reduction <= 3.2, (bar.app_key, bar.reduction)

    # Data on the DMA planes, register writes and IRQs on the IO plane,
    # the coherence planes untouched by accelerator traffic.
    flits = results["cells"]["4nv_4cl", "p2p"].plane_flits
    busy = {plane for plane, count in flits.items() if count > 0}
    assert busy <= {DMA_REQUEST_PLANE, DMA_RESPONSE_PLANE, IO_PLANE}, flits
    assert flits[DMA_REQUEST_PLANE] > 0 and flits[DMA_RESPONSE_PLANE] > 0


def render(results):
    flits = results["cells"]["4nv_4cl", "p2p"].plane_flits
    return "\n".join([
        "== Table I ==", render_table1(results["table1"]), "",
        "== Fig. 7 ==", render_fig7(results["fig7"]), "",
        "== Fig. 8 ==", render_fig8(results["fig8"]), "",
        f"flit-hops per plane, 4nv_4cl p2p: {flits}"])


def payload():
    """The 32-frame evaluation, printed and checked; the
    ``BENCH_paper.json`` payload: the three views, then the runs."""
    results = views(evaluate())
    print(render(results))
    check(results)
    return {
        "benchmark": "bench_paper",
        "table1": {cluster: asdict(column)
                   for cluster, column in results["table1"].items()},
        "fig7": asdict(results["fig7"]),
        "fig8": [asdict(bar) for bar in results["fig8"]],
        "cells": [asdict(cell) for cell in results["cells"].values()],
    }


def main():
    write_report("BENCH_paper.json", payload())
    print("paper benchmark: all assertions passed")


if __name__ == "__main__":
    main()
