"""Self-tests of the ledger benchmark.

Run from the repository root::

    python3 -m pytest ledger/test_ledger.py

They check that every workload holds its pins, that ``BENCHMARK.json``
matches what the ledger reports, that per-layer counts repeat exactly,
how the profile is split into layers, and the NoC event cost the
ledger's reading of ``sim.events`` rests on.
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import layers  # noqa: E402
import workloads  # noqa: E402
from repro.noc import DMA_REQUEST_PLANE, Mesh2D, MessageKind, Packet  # noqa: E402
from repro.sim import Environment  # noqa: E402

SPEC = json.loads(run.SPEC_PATH.read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_two_iterations_hold_the_pins(name):
    _, workload, first = run.set_up(name, seed=0)
    second, _ = run.iterate(workload)
    assert run.pin_problems(name, 0, first) == []
    assert second == first


def test_seed_changes_payloads_not_work():
    _, _, seed0 = run.set_up("pipe-p2p", seed=0)
    _, _, seed1 = run.set_up("pipe-p2p", seed=1)
    assert run.pin_problems("pipe-p2p", 1, seed1) == []
    assert seed1.digest != seed0.digest
    assert seed1.counters == seed0.counters


def test_pin_problems_name_every_mismatch():
    _, _, outcome = run.set_up("serve", seed=0)
    broken = dataclasses.replace(outcome, cycles=outcome.cycles + 1,
                                 digest="0" * 64, outputs_ok=False)
    problems = run.pin_problems("serve", 0, broken)
    assert len(problems) == 3
    # Away from seed 0 the digest is not pinned.
    assert len(run.pin_problems("serve", 1, broken)) == 2


def test_spec_matches_the_ledger():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(run.PINS) == set(workloads.WORKLOADS)
    assert len(SPEC["end_to_end"]) <= 16
    assert len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25, metric
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_reported_metrics_are_the_declared_ones(trace):
    result, _ = run.measure("serve", seed=0, seconds=0, trace=trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in declared}


def test_per_layer_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        result, _ = run.measure("serve-observed", seed=0, seconds=0,
                                trace=1)
        metrics = result["metrics"]
        counts.append({name: metrics[name]
                       for name in workloads.COUNTERS}
                      | {f"{layer}.calls": metrics[f"{layer}.calls"]
                         for layer in layers.LAYERS})
    assert counts[0] == counts[1]
    assert counts[0]["trace.records"] > 0
    assert counts[0]["trace.calls"] > 0 and counts[0]["fleet.calls"] == 0


def test_builtin_time_is_charged_to_its_callers():
    sim = (str(layers._REPRO_DIR / "sim" / "kernel.py"), 1, "run")
    noc = (str(layers._REPRO_DIR / "noc" / "mesh.py"), 1, "send")
    builtin = ("~", 0, "<built-in method builtins.len>")
    stats = {
        sim: (1, 1, 0.5, 0.8, {}),
        noc: (2, 2, 0.25, 0.35, {sim: (2, 2, 0.25, 0.35)}),
        builtin: (3, 3, 0.3, 0.3, {sim: (2, 2, 0.2, 0.2),
                                   noc: (1, 1, 0.1, 0.1)}),
    }
    self_time = layers.attribute(stats, layers.SELF_TIME)
    assert self_time["sim"] == pytest.approx(0.7)
    assert self_time["noc"] == pytest.approx(0.35)
    calls = layers.attribute(stats, layers.CALLS)
    assert calls["sim"] == pytest.approx(3)
    assert calls["noc"] == pytest.approx(3)


@pytest.mark.parametrize("hops", range(6))
def test_noc_send_costs_2h_plus_4_events(hops):
    """One packet over ``h`` idle links dispatches 2h + 4 events.

    Per hop a link acquire and a router-latency timeout; then the
    body-drain timeout, the ejection-queue put, and the transmit
    process's spawn and completion. A local packet (h = 0) has one
    router timeout in place of the drain.
    """
    env = Environment()
    mesh = Mesh2D(env, 6, 1)
    mesh.send(Packet(src=(0, 0), dst=(hops, 0), plane=DMA_REQUEST_PLANE,
                     kind=MessageKind.DMA_REQ, payload_flits=4))
    env.run()
    assert env.events_processed == 2 * hops + 4


def test_fails_without_the_program(tmp_path):
    """With only the benchmark's own files it exits non-zero, no result."""
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.ROOT / "ledger", tmp_path / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "ledger/run.py", "--workload", "serve",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert child.returncode != 0
    assert "correct" not in child.stdout
