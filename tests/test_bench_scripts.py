"""Every benchmark is a plain script that CI runs, and CI diffs every
golden it writes.

A bench asserts its claims in ``check()`` and rewrites its committed
``BENCH_*.json``; no second runner (pytest entries, a ``once`` fixture,
a pytest plugin) repeats or replaces that run.
"""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


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


def test_no_second_runner_in_benchmarks():
    assert second_runner_sites(REPO / "benchmarks") == []
    assert not (REPO / "benchmarks" / "conftest.py").exists()


def test_ci_diffs_every_deterministic_report():
    committed = {path.name for path in REPO.glob("BENCH_*.json")}
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    assert committed <= diffed_reports(ci)


def test_ci_runs_every_bench_script():
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    run = "\n".join(re.findall(r"^\s*run:.*$", ci, re.M))
    missing = [path.name for path in
               sorted((REPO / "benchmarks").glob("bench_*.py"))
               if f"benchmarks/{path.name}" not in run]
    assert missing == []
