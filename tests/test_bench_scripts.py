"""Every benchmark is a plain script, and every golden it writes is
compared with a fresh run: here for the simulated reports, in CI for
the rest.

A bench with a committed report exposes ``payload()``, which asserts
its claims in ``check()`` and returns the report without writing it,
and ``main()``, which writes it. No second runner (pytest entries, a
``once`` fixture, a pytest plugin) lives in ``benchmarks/``.
"""

import ast
import importlib
import json
import re
from pathlib import Path

import pytest

from benchmarks import report_text

REPO = Path(__file__).resolve().parent.parent

#: The benches whose reports hold only simulated numbers, so a fresh
#: run in this process reproduces them byte for byte.
SIMULATED = ("paper", "serve", "trace", "coherence", "faults", "chaos",
             "fleet", "ablations")


def second_runner_sites(bench_dir):
    """``file: name`` for each top-level ``test_*`` function, ``Test*``
    class or import of pytest or a pytest plugin in the bench
    scripts."""
    sites = []
    for path in sorted(bench_dir.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, ast.FunctionDef)
                    and node.name.startswith("test_")
                    or isinstance(node, ast.ClassDef)
                    and node.name.startswith("Test")):
                sites.append(f"{path.name}: {node.name}")
            names = ([alias.name for alias in node.names]
                     if isinstance(node, ast.Import) else
                     [node.module or ""]
                     if isinstance(node, ast.ImportFrom) else [])
            sites += [f"{path.name}: import {name}" for name in names
                      if re.fullmatch(r"pytest(_\w+)?", name.split(".")[0])]
    return sites


def diffed_reports(ci_text):
    """The ``BENCH_*.json`` names in the ``benchmarks`` job's
    ``git diff --exit-code`` command, continuation lines included."""
    job = re.search(r"\n  benchmarks:\n(.*?)(?=\n  \S|\Z)", ci_text,
                    re.S).group(1)
    command = re.search(r"git diff --exit-code(?:[^\n]*\\\n)*[^\n]*",
                        job).group(0)
    return set(re.findall(r"BENCH_\w+\.json", command))


def first_difference(fresh, committed, path="$"):
    """The JSON path of the first field, in file order, at which a
    parsed fresh report differs from the committed one; None if none
    does."""
    if json.dumps(fresh) == json.dumps(committed):
        return None
    if type(fresh) is not type(committed) or not isinstance(fresh,
                                                            (dict, list)):
        return path

    def fields(node):
        if isinstance(node, dict):
            return [(f"{path}.{key}", value) for key, value in node.items()]
        return [(f"{path}[{index}]", value)
                for index, value in enumerate(node)]

    ours, theirs = fields(fresh), fields(committed)
    for (here, value), (there, expected) in zip(ours, theirs):
        if here != there:
            return there
        found = first_difference(value, expected, here)
        if found:
            return found
    extra = theirs[len(ours):] or ours[len(theirs):]
    return extra[0][0]


def test_no_second_runner_in_benchmarks():
    assert second_runner_sites(REPO / "benchmarks") == []
    assert not (REPO / "benchmarks" / "conftest.py").exists()


@pytest.mark.parametrize("name", SIMULATED)
def test_payload_is_the_committed_report(name, tmp_path):
    """A fresh ``payload()`` serialises to the committed bytes;
    ``bench_trace`` writes its traces and postmortem to ``tmp_path``."""
    bench = importlib.import_module(f"benchmarks.bench_{name}")
    fresh = report_text(bench.payload(tmp_path) if name == "trace"
                        else bench.payload())
    golden = REPO / f"BENCH_{name}.json"
    committed = golden.read_text()
    if fresh != committed:
        where = first_difference(json.loads(fresh), json.loads(committed))
        pytest.fail(f"{golden.name}: {where} differs from a fresh run",
                    pytrace=False)


def test_first_difference_names_the_field():
    committed = {"a": 1, "b": {"c": [1, 2.5], "d": "x"}}
    assert first_difference(committed, committed) is None
    assert first_difference({"a": 1, "b": {"c": [1, 2.4], "d": "x"}},
                            committed) == "$.b.c[1]"
    assert first_difference({"a": 1.0, "b": committed["b"]},
                            committed) == "$.a"
    assert first_difference({"b": committed["b"], "a": 1},
                            committed) == "$.a"
    assert first_difference({"a": 1, "b": {"c": [1]}},
                            committed) == "$.b.c[1]"
    assert first_difference({"a": 1, "b": committed["b"], "e": 0},
                            committed) == "$.e"


def test_every_bench_runs_in_tier1_or_ci():
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    run = "\n".join(re.findall(r"^\s*run:.*$", ci, re.M))
    missing = [path.name for path in
               sorted((REPO / "benchmarks").glob("bench_*.py"))
               if path.stem[len("bench_"):] not in SIMULATED
               and f"benchmarks/{path.name}" not in run]
    assert missing == []


def test_every_golden_is_compared_in_tier1_or_ci():
    committed = {path.name for path in REPO.glob("BENCH_*.json")}
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    compared = {f"BENCH_{name}.json" for name in SIMULATED}
    assert committed <= compared | diffed_reports(ci)
