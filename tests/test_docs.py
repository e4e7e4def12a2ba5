"""The documents name only what exists.

Every backticked ``repro.…`` name in the prose documents resolves to a
module, an attribute, or ``module.method`` where a class of that
module defines the method; a name followed by ``/v<N>``, as in
``repro.postmortem/v1``, is a schema string and is skipped. Every
backticked repository path to a ``.py`` file exists, relative to the
repository root, ``src/`` or ``src/repro/``. Every relative markdown
link, and its ``#anchor``, resolves (``tools/check_links.py``).
"""

import importlib
import inspect
import re
from pathlib import Path

import pytest

from tools.check_links import check_file

REPO = Path(__file__).resolve().parent.parent
DOCS = [REPO / "README.md", REPO / "DESIGN.md", REPO / "EXPERIMENTS.md",
        *sorted((REPO / "docs").glob("*.md")),
        REPO / "benchmarks" / "README.md"]
NAME = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+(?!\w)(/v\d)?")
PATH = re.compile(r"[\w.-]*(?:/[\w.-]+)+\.py\b")
BASES = (REPO, REPO / "src", REPO / "src" / "repro")
LINKED = [*DOCS, REPO / "ROADMAP.md"]


def resolves(name: str) -> bool:
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        rest = parts[split:]
        for index, part in enumerate(rest):
            if hasattr(obj, part):
                obj = getattr(obj, part)
            elif index == len(rest) - 1 and inspect.ismodule(obj):
                return any(inspect.isclass(value) and part in vars(value)
                           for value in vars(obj).values())
            else:
                return False
        return True
    return False


def references(doc: Path):
    """``(line, kind, text)`` for every backticked name and path."""
    for number, line in enumerate(doc.read_text().splitlines(), 1):
        for span in re.findall(r"`([^`]+)`", line):
            for match in NAME.finditer(span):
                if not match.group(1):
                    yield number, "name", match.group(0)
            for match in PATH.finditer(span):
                yield number, "path", match.group(0)


@pytest.mark.parametrize("doc", DOCS, ids=lambda doc: doc.relative_to(
    REPO).as_posix())
def test_doc_names_resolve(doc):
    broken = [f"{number}: {kind} {text}"
              for number, kind, text in references(doc)
              if not (resolves(text) if kind == "name" else
                      any((base / text).exists() for base in BASES))]
    assert broken == []


@pytest.mark.parametrize("doc", LINKED, ids=lambda doc: doc.relative_to(
    REPO).as_posix())
def test_doc_links_resolve(doc):
    assert check_file(doc, {}) == []
