#!/usr/bin/env python3
"""Paired ledger runs of two revisions: is B faster than A?

Checks each revision out into its own detached ``git worktree`` (local,
no network), then runs ``ledger/run.py`` of that checkout, on its own
program, in pairs: one run of A and one of B per pair, alternating
which side runs first so that drift of the machine's speed falls on
both sides alike. Every run is a fresh interpreter with the same
``--workload``, ``--seed`` and ``--seconds``.

Prints each pair, then, for every end-to-end metric of the
``BENCHMARK.json`` in B's checkout, each side's median and quartiles,
the ratio of B's median to A's as a signed percentage (``-6.4%`` is B
6.4% below A), the gap between the medians in units of A's
interquartile range (``gap/IQR``: ``(B median - A median) / (A q3 - A
q1)``; a clear gain is a gap larger than A's spread, ``|gap/IQR| >
1``) and the pairs B won (better by the metric's direction; ties count
for neither side). ``iter_cost_p50`` comes first. Exits 1 when any run
is incorrect (a failed check, a pin mismatch or no result), 0
otherwise.
The worktrees are removed on exit, on SIGTERM and SIGINT too, and a
start removes the ones a run killed by an uncatchable signal left
behind, so run one A/B at a time per repository.

Usage::

    python tools/ledger_ab.py HEAD~1 HEAD --workload pipe-dma \\
        --pairs 10 --seconds 10 --seed 0

``python tools/ledger_ab.py HEAD HEAD ...`` is the same-revision (A/A)
control: both sides run one program, so any gap it prints is drift
between the two checkouts' runs, the noise floor a claimed gain must
clear. The worktrees go to a temporary directory (``TMPDIR`` chooses
where).
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
#: The metric the pairs are judged on, reported first.
PRIMARY = "iter_cost_p50"
#: Prefix of the temporary directory that holds one run's worktrees.
PREFIX = "ledger-ab-"
#: The signals that end a run through its cleanup.
STOPS = (signal.SIGTERM, signal.SIGINT)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=REPO_ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def prune_stale() -> None:
    """Remove every worktree of an earlier run: one registered under a
    directory named with :data:`PREFIX`."""
    for line in git("worktree", "list", "--porcelain").splitlines():
        if not line.startswith("worktree "):
            continue
        path = Path(line[len("worktree "):])
        if not path.parent.name.startswith(PREFIX):
            continue
        if path.exists():
            git("worktree", "remove", "--force", str(path))
        try:
            path.parent.rmdir()
        except OSError:
            pass   # not empty yet: its other worktree comes next
    git("worktree", "prune")


def stop(signum, frame) -> None:
    """End the run as an exit, so that its ``finally`` runs."""
    raise SystemExit(128 + signum)


def run_ledger(checkout: Path, workload: str, seed: int,
               seconds: float) -> Optional[dict]:
    """One ledger run in ``checkout``: its result object, or ``None``
    when it printed none."""
    child = subprocess.run(
        [sys.executable, "ledger/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    lines = child.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if child.returncode != 0:
        sys.stderr.write(child.stderr[-2000:])
        if result is not None:
            result["correct"] = False
    return result


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(lower quartile, median, upper quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def wins(a: Sequence[float], b: Sequence[float], better: str) -> int:
    """Pairs in which B beats A by the metric's direction."""
    sign = -1 if better == "lower" else 1
    return sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)


def ratio(a: float, b: float) -> str:
    """B's median relative to A's, as a signed percentage."""
    if a == 0:
        return "n/a"
    return f"{(b / a - 1) * 100:+.1f}%"


def gap_over_iqr(a: Tuple[float, float, float], b_median: float) -> str:
    """B's median minus A's, in units of A's interquartile range."""
    iqr = a[2] - a[0]
    if iqr == 0:
        return "n/a"
    return f"{(b_median - a[1]) / iqr:+.2f}"


def summarize(pairs: List[Dict[str, Dict[str, float]]],
              spec: List[dict]) -> List[str]:
    """One line per metric: A and B medians with quartiles, B/A of the
    medians, the median gap over A's IQR, B's wins."""
    ordered = sorted(spec, key=lambda m: m["name"] != PRIMARY)
    lines = [f"{'metric':<24}{'A median (q1-q3)':>34}"
             f"{'B median (q1-q3)':>34}{'B/A':>9}{'gap/IQR':>9}"
             f"{'B won':>8}"]
    for metric in ordered:
        name = metric["name"]
        a = [pair["A"][name] for pair in pairs if name in pair["A"]]
        b = [pair["B"][name] for pair in pairs if name in pair["B"]]
        if not a or len(a) != len(b):
            continue
        qa, qb = quartiles(a), quartiles(b)
        cells = [f"{q2:.6g} ({q1:.6g}-{q3:.6g})" for q1, q2, q3 in (qa, qb)]
        lines.append(f"{name:<24}{cells[0]:>34}{cells[1]:>34}"
                     f"{ratio(qa[1], qb[1]):>9}"
                     f"{gap_over_iqr(qa, qb[1]):>9}"
                     f"{wins(a, b, metric['better']):>5}/{len(a)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev_a", metavar="REV_A", help="the baseline")
    parser.add_argument("rev_b", metavar="REV_B", help="the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    revs = {"A": git("rev-parse", "--verify", args.rev_a + "^{commit}"),
            "B": git("rev-parse", "--verify", args.rev_b + "^{commit}")}
    print(f"A = {args.rev_a} ({revs['A'][:12]}), "
          f"B = {args.rev_b} ({revs['B'][:12]}); {args.workload}, "
          f"seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s")
    prune_stale()
    for signum in STOPS:
        signal.signal(signum, stop)
    with tempfile.TemporaryDirectory(prefix=PREFIX) as scratch:
        checkouts = {side: Path(scratch) / side for side in revs}
        try:
            for side, rev in revs.items():
                git("worktree", "add", "--detach", str(checkouts[side]),
                    rev)
            spec = json.loads(
                (checkouts["B"] / "BENCHMARK.json").read_text())
            pairs, incorrect = [], 0
            for index in range(args.pairs):
                order = ("A", "B") if index % 2 == 0 else ("B", "A")
                pair = {}
                for side in order:
                    result = run_ledger(checkouts[side], args.workload,
                                        args.seed, args.seconds)
                    if result is None or not result["correct"]:
                        incorrect += 1
                        print(f"pair {index + 1}: {side} incorrect")
                        result = {"metrics": {}}
                    pair[side] = {name: entry["value"] for name, entry
                                  in result["metrics"].items()}
                pairs.append(pair)
                print(f"pair {index + 1} ({order[0]} first): "
                      f"A {pair['A'].get(PRIMARY, float('nan')):.4f}  "
                      f"B {pair['B'].get(PRIMARY, float('nan')):.4f}",
                      flush=True)
        finally:
            for signum in STOPS:
                signal.signal(signum, signal.SIG_IGN)
            for checkout in checkouts.values():
                if checkout.exists():
                    git("worktree", "remove", "--force", str(checkout))
            git("worktree", "prune")
    print("\n".join(summarize(pairs, spec["end_to_end"])))
    if incorrect:
        print(f"{incorrect} incorrect run(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
