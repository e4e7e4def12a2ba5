"""``tools/ledger_ab.py``: the summary of alternating A/B ledger pairs,
and the worktrees it leaves behind (none)."""

import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from tools.ledger_ab import summarize

REPO = Path(__file__).resolve().parent.parent

SPEC = [{"name": "peak_rss_mb", "better": "lower"},
        {"name": "frames_per_ref", "better": "higher"},
        {"name": "iter_cost_p50", "better": "lower"}]


def test_summarize_two_pairs():
    pairs = [
        {"A": {"iter_cost_p50": 2.0, "frames_per_ref": 10.0,
               "peak_rss_mb": 50.0},
         "B": {"iter_cost_p50": 1.8, "frames_per_ref": 12.0,
               "peak_rss_mb": 51.0}},
        {"A": {"iter_cost_p50": 2.2, "frames_per_ref": 10.0,
               "peak_rss_mb": 50.0},
         "B": {"iter_cost_p50": 2.3, "frames_per_ref": 11.0,
               "peak_rss_mb": 49.0}},
    ]
    header, *rows = summarize(pairs, SPEC)
    assert header.split() == ["metric", "A", "median", "(q1-q3)", "B",
                              "median", "(q1-q3)", "B/A", "gap/IQR", "B",
                              "won"]
    # The primary metric first, then the spec's order; each row is the
    # medians with quartiles, B's median over A's, the gap of the
    # medians over A's interquartile range (none when A's is 0), and
    # B's wins.
    assert [row.split() for row in rows] == [
        ["iter_cost_p50", "2.1", "(2.05-2.15)", "2.05", "(1.925-2.175)",
         "-2.4%", "-0.50", "1/2"],
        ["peak_rss_mb", "50", "(50-50)", "50", "(49.5-50.5)", "+0.0%",
         "n/a", "1/2"],
        ["frames_per_ref", "10", "(10-10)", "11.5", "(11.25-11.75)",
         "+15.0%", "n/a", "2/2"],
    ]


def test_sigterm_removes_every_worktree(tmp_path):
    """A throwaway repository whose ledger run sleeps: SIGTERM the tool
    while the first run sleeps. It removes both of its worktrees, and
    the stale one a killed earlier run left, which it pruned at start;
    ``git worktree list`` shows the main checkout alone."""
    repo = tmp_path / "repo"
    (repo / "tools").mkdir(parents=True)
    (repo / "ledger").mkdir()
    shutil.copy(REPO / "tools" / "ledger_ab.py", repo / "tools")
    started = tmp_path / "started"
    (repo / "ledger" / "run.py").write_text(
        f"import pathlib, time\npathlib.Path({str(started)!r}).touch()\n"
        f"time.sleep(60)\n")
    (repo / "BENCHMARK.json").write_text('{"end_to_end": []}')

    def git(*args):
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=repo, check=True, capture_output=True, text=True).stdout

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "ledger that sleeps")
    temp = tmp_path / "tmp"
    git("worktree", "add", "--detach", str(temp / "ledger-ab-old" / "A"))

    tool = subprocess.Popen(
        [sys.executable, "tools/ledger_ab.py", "HEAD", "HEAD",
         "--workload", "w", "--pairs", "1", "--seconds", "1"],
        cwd=repo, env=dict(os.environ, TMPDIR=str(temp)),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        while not started.exists():
            assert tool.poll() is None, tool.communicate()
            assert time.monotonic() < deadline
            time.sleep(0.05)
        assert git("worktree", "list").count("\n") == 3
        tool.send_signal(signal.SIGTERM)
        assert tool.wait(timeout=60) == 128 + signal.SIGTERM
    finally:
        # A failed check leaves no sleeping ledger run behind.
        try:
            os.killpg(tool.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        tool.communicate()
    listed = [line for line in git("worktree", "list",
                                   "--porcelain").splitlines()
              if line.startswith("worktree ")]
    assert listed == [f"worktree {repo}"]
    assert list(temp.iterdir()) == []
