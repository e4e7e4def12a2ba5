"""Every example runs to completion from a clean working directory.

The examples are callers too: code that only an example names stays in
``src/repro`` (``tests/test_architecture.py::HasACaller``), so each one
must keep working. They write under ``./artifacts`` (waveforms,
generated firmware), hence a fresh directory per run. The trained
models are the exception: their cache is the checkout's
``artifacts/models`` (``repro.flow.keras_bridge.DEFAULT_CACHE``), so
``denoiser_pipeline.py`` loads the models the last run trained and
trains them only in a checkout that has none.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(example, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, str(example)], cwd=tmp_path,
                            env=env, capture_output=True, text=True,
                            timeout=600)
    assert result.returncode == 0, result.stderr[-2000:]
