"""Prometheus exposition conformance and round-trip tests."""

import pytest

from repro.metrics import (
    MetricsRegistry,
    parse_exposition,
    to_prometheus,
)
from repro.metrics.export import _parse_samples
from repro.sim import Environment


def parse_exemplars(text: str):
    """Every exemplar-annotated sample of an exposition, as
    ``(name, labels, value, exemplar_labels, exemplar_value)``."""
    return [(name, labels, value, ex_labels, ex_value)
            for name, labels, value, exemplar in _parse_samples(text)
            if exemplar is not None
            for ex_labels, ex_value in [exemplar]]


def fresh_registry():
    return MetricsRegistry(Environment())


class TestFormat:
    def test_help_and_type_lines(self):
        registry = fresh_registry()
        registry.noc_packets.labels("dma-req").inc(5)
        text = to_prometheus(registry)
        assert "# HELP repro_noc_packets_total " in text
        assert "# TYPE repro_noc_packets_total counter" in text
        assert 'repro_noc_packets_total{plane="dma-req"} 5' in text

    def test_namespace_prefix(self):
        registry = fresh_registry()
        registry.counter("x_total").inc()
        assert "soc_x_total" in to_prometheus(registry,
                                              namespace="soc")
        assert "\nx_total" in to_prometheus(registry, namespace="")

    def test_empty_families_omitted(self):
        registry = fresh_registry()
        text = to_prometheus(registry)
        # No series recorded anywhere: nothing but whitespace.
        assert text.strip() == ""

    def test_label_escaping(self):
        registry = fresh_registry()
        counter = registry.counter("esc_total", "", ("path",))
        counter.labels('a\\b"c\nd').inc()
        text = to_prometheus(registry)
        assert r'path="a\\b\"c\nd"' in text
        # ...and the parser reverses it.
        samples = parse_exposition(text)
        name, labels, value = samples[0]
        assert labels["path"] == 'a\\b"c\nd'
        assert value == 1

    def test_histogram_expansion(self):
        registry = fresh_registry()
        hist = registry.histogram("lat_cycles", "latency", ("t",))
        for value in (1, 2, 3, 100):
            hist.labels("a").observe(value)
        text = to_prometheus(registry)
        assert "# TYPE repro_lat_cycles histogram" in text
        # Cumulative bucket counts, in bound order, with +Inf last.
        assert 'repro_lat_cycles_bucket{t="a",le="1"} 1' in text
        assert 'repro_lat_cycles_bucket{t="a",le="2"} 2' in text
        assert 'repro_lat_cycles_bucket{t="a",le="4"} 3' in text
        assert 'repro_lat_cycles_bucket{t="a",le="64"} 3' in text
        assert 'repro_lat_cycles_bucket{t="a",le="128"} 4' in text
        assert 'repro_lat_cycles_bucket{t="a",le="+Inf"} 4' in text
        assert 'repro_lat_cycles_sum{t="a"} 106' in text
        assert 'repro_lat_cycles_count{t="a"} 4' in text

    def test_bucket_order_and_monotonicity(self):
        registry = fresh_registry()
        hist = registry.histogram("m_cycles")
        for value in (3, 17, 900, 70_000):
            hist.observe(value)
        text = to_prometheus(registry)
        counts = [float(line.rsplit(" ", 1)[1])
                  for line in text.splitlines()
                  if line.startswith("repro_m_cycles_bucket")]
        assert counts == sorted(counts)
        assert counts[-1] == 4   # +Inf holds everything


class TestRoundTrip:
    def test_counter_gauge_round_trip(self):
        registry = fresh_registry()
        registry.serve_admitted.labels("tenant-a").inc(3)
        registry.serve_queue_depth.set(9)
        samples = dict(
            ((name, tuple(sorted(labels.items()))), value)
            for name, labels, value in
            parse_exposition(to_prometheus(registry)))
        assert samples[("repro_serve_admitted_total",
                        (("tenant", "tenant-a"),))] == 3
        assert samples[("repro_serve_queue_depth", ())] == 9

    def test_histogram_round_trip_reconstructs_counts(self):
        registry = fresh_registry()
        hist = registry.serve_request_cycles
        observations = [10, 10, 500, 9000, 1_000_000]
        for value in observations:
            hist.labels("t").observe(value)
        samples = parse_exposition(to_prometheus(registry))
        buckets = [(labels["le"], value) for name, labels, value
                   in samples
                   if name == "repro_serve_request_cycles_bucket"]
        count = next(value for name, labels, value in samples
                     if name == "repro_serve_request_cycles_count")
        total = next(value for name, labels, value in samples
                     if name == "repro_serve_request_cycles_sum")
        assert count == len(observations)
        assert total == sum(observations)
        assert buckets[-1][0] == "+Inf"
        assert buckets[-1][1] == count
        # De-cumulate and compare against the live series.
        series = hist.labels("t")
        cumulative = [value for _, value in buckets]
        per_bucket = [b - a for a, b in
                      zip([0] + cumulative, cumulative)]
        assert per_bucket == series.counts

    def test_parser_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_exposition("not-a-number-after {")
        with pytest.raises(ValueError):
            parse_exposition("name{a=unquoted} 1")


class TestExemplars:
    OVERFLOW = 20_000_000                      # past the 2^24 bound

    def _observed(self, exemplars=True):
        registry = fresh_registry()
        hist = registry.histogram("lat_cycles")
        for value, trace_id in [(65, "t-0"),
                                (70, "t-3"),     # same bucket: last wins
                                (5_000, None),   # no exemplar recorded
                                (self.OVERFLOW, "t-7")]:    # +Inf bucket
            hist.observe(value, exemplar=trace_id if exemplars else None)
        return registry

    def test_bucket_lines_carry_openmetrics_suffix(self):
        text = to_prometheus(self._observed())
        assert ('le="128"} 2 # {trace_id="t-3"} 70' in text)
        assert ('le="+Inf"} 4 # {trace_id="t-7"} 20000000' in text)
        # The exemplar-less bucket has a bare sample line.
        assert 'le="8192"} 3\n' in text

    def test_parse_exemplars_round_trip(self):
        exemplars = parse_exemplars(to_prometheus(self._observed()))
        by_le = {labels["le"]: (ex_labels["trace_id"], ex_value)
                 for name, labels, value, ex_labels, ex_value
                 in exemplars}
        assert by_le == {"128": ("t-3", 70.0),
                         "+Inf": ("t-7", 20000000.0)}

    def test_parse_exposition_still_three_tuples(self):
        # The exemplar suffix must be invisible to the plain parser:
        # same shape, same values as an exemplar-free exposition.
        samples = parse_exposition(to_prometheus(self._observed()))
        assert samples == parse_exposition(
            to_prometheus(self._observed(exemplars=False)))
        buckets = dict((labels["le"], value) for name, labels, value
                       in samples if name.endswith("_bucket"))
        assert (buckets["64"], buckets["128"], buckets["8192"],
                buckets["+Inf"]) == (0.0, 2.0, 3.0, 4.0)

    def test_snapshot_includes_exemplars(self):
        snap = self._observed().snapshot()
        family = next(f for f in snap["families"]
                      if f["name"] == "lat_cycles")
        exemplars = family["series"][0]["exemplars"]
        assert exemplars == {"7": ["t-3", 70],
                             "25": ["t-7", 20000000]}

    def test_exemplar_free_histogram_unchanged(self):
        registry = fresh_registry()
        hist = registry.histogram("plain_cycles")
        hist.observe(5)
        text = to_prometheus(registry)
        assert " # {" not in text
        snap = registry.snapshot()
        family = next(f for f in snap["families"]
                      if f["name"] == "plain_cycles")
        assert "exemplars" not in family["series"][0]
        assert parse_exemplars(text) == []


def test_snapshot_is_json_serializable():
    import json

    registry = fresh_registry()
    registry.noc_packets.labels("dma-req").inc()
    registry.serve_request_cycles.labels("t").observe(7)
    loaded = json.loads(json.dumps(registry.snapshot()))
    assert loaded["cycle"] == 0
    assert any(f["name"] == "noc_packets_total"
               for f in loaded["families"])
