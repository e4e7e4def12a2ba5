"""``tools/ledger_ab.py``'s summary of alternating A/B ledger pairs."""

from tools.ledger_ab import summarize

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
