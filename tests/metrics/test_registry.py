"""Tests for the metrics registry: series types, labels, buckets."""

import bisect

import pytest

from repro.metrics import (
    CYCLE_BUCKETS,
    HealthMonitor,
    MetricsError,
    MetricsRegistry,
    MetricsSampler,
    attach_metrics,
)
from repro.sim import Environment
from tests.metrics.merge import merge_snapshots


def fresh_registry():
    return MetricsRegistry(Environment())


class TestCounter:
    def test_inc_and_total(self):
        registry = fresh_registry()
        counter = registry.counter("widgets_total", "w", ("kind",))
        counter.labels("a").inc()
        counter.labels("a").inc(4)
        counter.labels("b").inc(2)
        assert counter.labels("a").value == 5
        assert counter.total == 7

    def test_negative_increment_rejected(self):
        registry = fresh_registry()
        counter = registry.counter("c_total")
        with pytest.raises(MetricsError):
            counter.inc(-1)

    def test_unlabeled_convenience(self):
        registry = fresh_registry()
        counter = registry.counter("plain_total")
        counter.inc()
        counter.inc(2)
        assert counter.labels().value == 3

    def test_label_arity_enforced(self):
        registry = fresh_registry()
        counter = registry.counter("lab_total", "", ("a", "b"))
        with pytest.raises(MetricsError):
            counter.labels("only-one")


class TestGauge:
    def test_set_inc_dec(self):
        registry = fresh_registry()
        gauge = registry.gauge("depth")
        gauge.set(7)
        assert gauge.value == 7
        gauge.labels().inc(3)
        gauge.labels().inc(-1)
        assert gauge.value == 9


class TestHistogram:
    def test_default_buckets_are_powers_of_two(self):
        assert CYCLE_BUCKETS[0] == 1
        assert all(b == a * 2 for a, b in
                   zip(CYCLE_BUCKETS, CYCLE_BUCKETS[1:]))

    def test_pow2_bucket_index_matches_bisect(self):
        """The O(1) bit_length index equals the generic search."""
        registry = fresh_registry()
        hist = registry.histogram("h_cycles")
        series = hist.labels()
        last = CYCLE_BUCKETS[-1]
        for value in [1, 2, 3, 4, 5, 7, 8, 9, 100, 1023, 1024, 1025,
                      last, last + 1, last * 7]:
            expected = bisect.bisect_left(CYCLE_BUCKETS, value)
            assert series.bucket_index(value) == expected, value

    def test_observe_accumulates(self):
        registry = fresh_registry()
        hist = registry.histogram("lat_cycles")
        for value in (1, 2, 3, 8, 100, 1 << 30):
            hist.observe(value)
        series = hist.labels()
        assert series.count == 6
        assert series.sum == 114 + (1 << 30)
        assert series.max == 1 << 30
        assert len(series.counts) == len(CYCLE_BUCKETS) + 1
        # buckets: <=1, <=2, <=4, <=8, ..., <=128 (100), ..., +Inf
        assert series.counts[:8] == [1, 1, 1, 1, 0, 0, 0, 1]
        assert series.counts[-1] == 1
        assert sum(series.counts) == 6

    def test_fraction_over(self):
        registry = fresh_registry()
        hist = registry.histogram("f_cycles")
        for value in (1, 2, 4, 8):
            hist.observe(value)
        series = hist.labels()
        # Exact at bucket bounds.
        assert series.fraction_over(2) == 0.5
        assert series.fraction_over(8) == 0.0
        # Conservative inside a bucket: 3 shares 4's bucket -> "over".
        assert series.fraction_over(3) == 0.5


class TestRegistry:
    def test_standard_families_exist(self):
        registry = fresh_registry()
        names = {f.name for f in registry.families}
        assert "noc_packets_total" in names
        assert "serve_request_cycles" in names
        assert "runtime_watchdog_timeouts_total" in names

    def test_get_unknown_raises(self):
        registry = fresh_registry()
        with pytest.raises(KeyError):
            registry.get("nope")

    def test_reregistration_idempotent(self):
        registry = fresh_registry()
        first = registry.counter("again_total", "", ("x",))
        second = registry.counter("again_total", "", ("x",))
        assert first is second

    def test_reregistration_kind_clash_rejected(self):
        registry = fresh_registry()
        registry.counter("clash")
        with pytest.raises(MetricsError):
            registry.gauge("clash")

    def test_invalid_names_rejected(self):
        registry = fresh_registry()
        with pytest.raises(MetricsError):
            registry.counter("bad name")
        with pytest.raises(MetricsError):
            registry.counter("ok_total", "", ("bad-label",))

    def test_snapshot_shape(self):
        registry = fresh_registry()
        registry.noc_packets.labels("dma-req").inc(3)
        registry.serve_request_cycles.labels("t").observe(100)
        snap = registry.snapshot()
        assert snap["cycle"] == 0
        by_name = {f["name"]: f for f in snap["families"]}
        packets = by_name["noc_packets_total"]
        assert packets["series"] == [
            {"labels": {"plane": "dma-req"}, "value": 3}]
        hist = by_name["serve_request_cycles"]["series"][0]
        assert hist["count"] == 1 and hist["sum"] == 100
        assert len(hist["buckets"]) == len(hist["bounds"]) + 1

    def test_collectors_run_on_collect(self):
        registry = fresh_registry()
        gauge = registry.gauge("refreshed")
        calls = []

        def collector(reg):
            calls.append(reg)
            gauge.set(42)

        registry.register_collector(collector)
        registry.collect()
        assert calls == [registry]
        assert gauge.value == 42


class TestAttach:
    def test_attach_detach_idempotent(self):
        env = Environment()
        assert env.metrics is None
        registry = attach_metrics(env)
        assert env.metrics is registry
        assert attach_metrics(env) is registry

    def test_attach_through_env_carrier(self):
        class Carrier:
            def __init__(self):
                self.env = Environment()

        carrier = Carrier()
        registry = attach_metrics(carrier)
        assert carrier.env.metrics is registry


class TestSampler:
    def test_periodic_ticks(self):
        env = Environment()
        monitor = HealthMonitor(attach_metrics(env))
        seen = []
        monitor.subscribe(lambda m, _: seen.append(m.registry.env.now))
        sampler = MetricsSampler(monitor, interval=10)
        sampler.start()

        def workload():
            yield env.timeout(35)

        env.run(until=env.process(workload()))
        assert seen == [10, 20, 30]
        assert monitor.evaluations == sampler.samples_taken == 3

    def test_max_samples_stops(self):
        env = Environment()
        monitor = HealthMonitor(attach_metrics(env))
        seen = []
        monitor.subscribe(lambda m, _: seen.append(m.registry.env.now))
        MetricsSampler(monitor, interval=5, max_samples=2).start()

        def workload():
            yield env.timeout(100)

        env.run(until=env.process(workload()))
        assert seen == [5, 10]

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            MetricsSampler(HealthMonitor(fresh_registry()), interval=0)


class TestNamespace:
    """Per-instance namespacing for fleet-style multi-registry scrapes."""

    def test_families_are_prefixed(self):
        registry = MetricsRegistry(Environment(), namespace="i3")
        counter = registry.counter("fleet_test_total", "a")
        counter.labels().inc()
        assert registry.qualify("fleet_test_total") \
            == "i3_fleet_test_total"
        names = [f["name"] for f in registry.snapshot()["families"]]
        assert "i3_fleet_test_total" in names
        # The pre-registered schema families are namespaced too.
        assert all(name.startswith("i3_") for name in names)

    def test_qualify_is_idempotent(self):
        registry = MetricsRegistry(Environment(), namespace="i0")
        assert registry.qualify("i0_latency_cycles") \
            == "i0_latency_cycles"

    def test_get_falls_back_to_qualified_name(self):
        """SLO rules and dashboards use bare schema names; they must
        keep resolving on a namespaced registry."""
        registry = MetricsRegistry(Environment(), namespace="i1")
        registry.gauge("queue_depth", "q")
        assert registry.get("queue_depth").name == "i1_queue_depth"
        assert registry.get("i1_queue_depth").name == "i1_queue_depth"

    def test_invalid_namespace_rejected(self):
        for bad in ("3i", "a-b", "__x", ""):
            with pytest.raises(MetricsError):
                MetricsRegistry(Environment(), namespace=bad)

    def test_reattach_with_other_namespace_rejected(self):
        env = Environment()
        attach_metrics(env, namespace="i0")
        with pytest.raises(MetricsError):
            attach_metrics(env, namespace="i1")

    def test_unnamespaced_snapshots_collide_on_merge(self):
        """The regression the namespace option exists for: N identical
        servers scraped into one snapshot must fail loudly, not
        silently drop or double-count a series."""
        snapshots = []
        for _ in range(2):
            registry = fresh_registry()
            registry.counter("fleet_test_total", "a").labels().inc()
            snapshots.append(registry.snapshot())
        with pytest.raises(MetricsError, match="appears in snapshot"):
            merge_snapshots(snapshots)

    def test_namespaced_snapshots_merge_cleanly(self):
        snapshots = []
        for index in range(2):
            registry = MetricsRegistry(Environment(),
                                       namespace=f"i{index}")
            registry.counter("fleet_test_total", "a") \
                .labels().inc(index + 1)
            snapshots.append(registry.snapshot())
        merged = merge_snapshots(snapshots)
        names = [f["name"] for f in merged["families"]]
        assert len(names) == len(set(names))
        assert "i0_fleet_test_total" in names
        assert "i1_fleet_test_total" in names
