"""End-to-end tests for the multi-tenant inference server."""

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultPlan, FaultSpec, RecoveryPolicy
from repro.metrics import attach_metrics
from repro.runtime import EspRuntime, chain
from repro.serve import (
    InferenceServer,
    REJECT_QUEUE_FULL,
    REJECT_TILE_UNAVAILABLE,
    REJECT_UNKNOWN_TENANT,
    ServerConfig,
    TenantConfig,
    TracedRequest,
)
from repro.trace import attach_tracer
from tests.conftest import make_runtime, make_soc, make_spec
from tests.serve.probes import free_tiles, pending_claims


def three_tile_specs():
    return [("a0", make_spec(name="a")),
            ("b0", make_spec(name="b")),
            ("c0", make_spec(name="c"))]


def make_server(recovery=None, specs=None, **server_kwargs):
    specs = specs if specs is not None else three_tile_specs()
    runtime = EspRuntime(make_soc(specs), recovery=recovery)
    server = InferenceServer(runtime, ServerConfig(**server_kwargs))
    return runtime, server


def frames_of(n, seed=0):
    return np.random.default_rng(seed).uniform(0, 1, (n, 16))


class TestSingleTenant:
    def test_single_request_bit_exact_with_executor_path(self):
        """Serving one request must reproduce ``esp_run`` bit-for-bit:
        the server adds scheduling, not arithmetic."""
        frames = frames_of(4)
        dataflow = chain("app", ["a0", "b0"])

        reference = make_runtime(three_tile_specs())
        expected = reference.esp_run(dataflow, frames, mode="p2p")

        _, server = make_server()
        server.register(TenantConfig(name="app", dataflow=dataflow))
        report = server.run_trace([TracedRequest(0, "app", frames)])

        assert len(report.completions) == 1
        completion = report.completions[0]
        np.testing.assert_array_equal(completion.outputs,
                                      expected.outputs)
        assert not completion.degraded
        assert completion.latency_cycles > 0
        assert completion.queue_cycles >= 0
        assert report.rejections == [] and report.failures == []

    def test_same_cycle_requests_coalesce_into_one_batch(self):
        _, server = make_server()
        server.register(TenantConfig(name="app",
                                     dataflow=chain("app", ["a0"])))
        trace = [TracedRequest(0, "app", frames_of(2, seed=s))
                 for s in range(3)]
        report = server.run_trace(trace)

        assert len(report.completions) == 3
        assert report.batches_by_tenant["app"] == 1
        assert all(c.batch_requests == 3 for c in report.completions)
        assert all(c.batch_frames == 6 for c in report.completions)
        # Each request's slice of the batch is its own data + 1.
        for completion, entry in zip(report.completions, trace):
            np.testing.assert_array_equal(completion.outputs,
                                          entry.frames + 1.0)

    def test_spread_requests_run_as_separate_batches(self):
        _, server = make_server()
        server.register(TenantConfig(name="app",
                                     dataflow=chain("app", ["a0"])))
        report = server.run_trace([
            TracedRequest(0, "app", frames_of(2)),
            TracedRequest(500_000, "app", frames_of(2)),
        ])
        assert len(report.completions) == 2
        assert report.batches_by_tenant["app"] == 2


class TestAdmissionIntegration:
    def test_queue_full_backpressure_surfaces_in_report(self):
        _, server = make_server(max_queue_depth=1)
        server.register(TenantConfig(name="app",
                                     dataflow=chain("app", ["a0"])))
        trace = [TracedRequest(0, "app", frames_of(1, seed=s))
                 for s in range(3)]
        report = server.run_trace(trace)

        assert len(report.completions) == 1
        assert len(report.rejections) == 2
        assert all(r.reason == REJECT_QUEUE_FULL
                   for r in report.rejections)
        assert report.admitted == 1

    def test_unknown_tenant_rejected_and_recorded(self):
        _, server = make_server()
        server.register(TenantConfig(name="app",
                                     dataflow=chain("app", ["a0"])))
        rejection = server.submit("ghost", frames_of(1))
        assert rejection.reason == REJECT_UNKNOWN_TENANT
        assert server.rejections == [rejection]

    def test_register_validates_devices_and_lifecycle(self):
        _, server = make_server()
        with pytest.raises(KeyError):
            server.register(TenantConfig(
                name="bad", dataflow=chain("bad", ["nope0"])))
        server.register(TenantConfig(name="app",
                                     dataflow=chain("app", ["a0"])))
        with pytest.raises(ValueError, match="already registered"):
            server.register(TenantConfig(name="app",
                                         dataflow=chain("x", ["b0"])))
        server.start()
        with pytest.raises(RuntimeError, match="before starting"):
            server.register(TenantConfig(name="late",
                                         dataflow=chain("l", ["c0"])))
        server.stop()

    def test_stop_during_grant_wait_leaks_no_tiles(self):
        """Stopping while one tenant waits for its grant withdraws the
        claim: after the drain every tile is free, only the interrupted
        requests' spans stay open, and a restarted server serves."""
        runtime, server = make_server()
        env = runtime.soc.env
        tracer = attach_tracer(runtime.soc)
        for name in ("x", "y"):
            server.register(TenantConfig(
                name=name, dataflow=chain(name, ["a0", "b0"]),
                mode="pipe"))
        server.start()
        server.submit("x", frames_of(2))
        server.submit("y", frames_of(2))
        env.run(until=env.timeout(50))
        assert pending_claims(server.arbiter) == 1   # y waits on x
        server.stop()
        env.run()

        assert free_tiles(server.arbiter) == server.arbiter.tiles
        assert pending_claims(server.arbiter) == 0
        assert {s.cat for s in tracer.open_spans} == {"serve.request"}
        assert server.load().in_flight_batches == 0

        server.start()
        frames = frames_of(1, seed=5)
        server.submit("x", frames)
        env.run(until=server.wait_settled())
        (completion,) = server.completions
        np.testing.assert_array_equal(completion.outputs, frames + 2.0)


class TestConcurrentTenants:
    def test_disjoint_tenants_serve_concurrently(self):
        _, server = make_server()
        server.register(TenantConfig(name="x",
                                     dataflow=chain("x", ["a0"])))
        server.register(TenantConfig(name="y",
                                     dataflow=chain("y", ["b0"])))
        fx, fy = frames_of(4, seed=1), frames_of(4, seed=2)
        report = server.run_trace([TracedRequest(0, "x", fx),
                                   TracedRequest(0, "y", fy)])

        assert len(report.completions) == 2
        by_tenant = {c.tenant: c for c in report.completions}
        np.testing.assert_array_equal(by_tenant["x"].outputs, fx + 1.0)
        np.testing.assert_array_equal(by_tenant["y"].outputs, fy + 1.0)
        # Disjoint tile sets: neither tenant waited for a grant.
        assert report.arbiter_grants == 2
        assert report.arbiter_wait_summary.max == 0
        # Concurrency: the runs overlapped in simulated time.
        assert by_tenant["x"].started_at < by_tenant["y"].completed_at
        assert by_tenant["y"].started_at < by_tenant["x"].completed_at

    def test_activity_attribution_is_per_tenant_exact(self):
        _, server = make_server()
        server.register(TenantConfig(name="x",
                                     dataflow=chain("x", ["a0"])))
        server.register(TenantConfig(name="y",
                                     dataflow=chain("y", ["b0"])))
        report = server.run_trace([
            TracedRequest(0, "x", frames_of(4)),
            TracedRequest(0, "y", frames_of(2)),
        ])
        x_activity = report.activity_by_tenant["x"]
        y_activity = report.activity_by_tenant["y"]
        assert set(x_activity) == {"a0"}
        assert set(y_activity) == {"b0"}
        assert x_activity["a0"].frames == 4
        assert y_activity["b0"].frames == 2
        assert x_activity["a0"].busy_cycles > 0

    def test_shared_tile_serializes_tenants(self):
        _, server = make_server()
        server.register(TenantConfig(name="x",
                                     dataflow=chain("x", ["a0"])))
        server.register(TenantConfig(name="y",
                                     dataflow=chain("y", ["a0"])))
        report = server.run_trace([TracedRequest(0, "x", frames_of(4)),
                                   TracedRequest(0, "y", frames_of(4))])
        assert len(report.completions) == 2
        by_tenant = {c.tenant: c for c in report.completions}
        first, second = sorted(by_tenant.values(),
                               key=lambda c: c.started_at)
        # No overlap over the shared tile.
        assert second.started_at >= first.completed_at
        assert report.arbiter_wait_summary.max > 0

    def test_priority_policy_orders_contending_grants(self):
        _, server = make_server(policy="priority")
        for name, priority in [("low", 0), ("mid", 1), ("high", 5)]:
            server.register(TenantConfig(
                name=name, dataflow=chain(name, ["a0"]),
                priority=priority))
        # "low" submits first and grabs the free tile; the other two
        # contend and must be granted in priority order.
        report = server.run_trace([
            TracedRequest(0, "low", frames_of(2)),
            TracedRequest(0, "mid", frames_of(2)),
            TracedRequest(0, "high", frames_of(2)),
        ])
        started = {c.tenant: c.started_at for c in report.completions}
        assert started["low"] < started["high"] < started["mid"]


class TestFaultIntegration:
    def recovery(self, **kwargs):
        kwargs.setdefault("watchdog_cycles", 20_000)
        kwargs.setdefault("max_retries", 0)
        return RecoveryPolicy(**kwargs)

    def test_failed_tile_quarantined_and_served_in_software(self):
        """A hang exhausts retries, the device is marked failed, the
        server hands the tile back to the arbiter as unavailable — and
        keeps serving the tenant through the software fallback."""
        runtime, server = make_server(
            recovery=self.recovery(software_fallback=True))
        FaultInjector(FaultPlan([
            FaultSpec(kind="acc_hang", target="a0", at_cycle=0,
                      count=1)])).attach(runtime.soc)
        registry = attach_metrics(runtime.soc)
        tracer = attach_tracer(runtime.soc)
        server.register(TenantConfig(name="app",
                                     dataflow=chain("app", ["a0"]),
                                     mode="pipe"))
        fx, fy = frames_of(2, seed=1), frames_of(2, seed=2)
        report = server.run_trace([
            TracedRequest(0, "app", fx),
            TracedRequest(200_000, "app", fy),
        ])

        assert len(report.completions) == 2
        assert report.failures == []
        first, second = sorted(report.completions,
                               key=lambda c: c.submitted_at)
        # The watchdog fired mid-run and frames were re-served in
        # software (pipe mode degrades per node, not per run).
        assert registry.watchdog_timeouts.total >= 1
        assert sum(span.args["frames"] for span
                   in tracer.all_spans(cat="runtime.software")) > 0
        np.testing.assert_array_equal(first.outputs, fx + 1.0)
        np.testing.assert_array_equal(second.outputs, fy + 1.0)
        assert runtime.registry.is_failed("a0")
        assert server.arbiter.unavailable_tiles == frozenset({"a0"})

    def test_no_fallback_policy_rejects_after_tile_failure(self):
        runtime, server = make_server(
            recovery=self.recovery(software_fallback=False))
        FaultInjector(FaultPlan([
            FaultSpec(kind="acc_hang", target="a0", at_cycle=0,
                      count=1)])).attach(runtime.soc)
        server.register(TenantConfig(name="app",
                                     dataflow=chain("app", ["a0"]),
                                     mode="pipe"))
        report = server.run_trace([
            TracedRequest(0, "app", frames_of(2)),
            TracedRequest(200_000, "app", frames_of(2)),
        ])

        assert report.completions == []
        assert len(report.failures) == 1       # the in-flight batch
        assert len(report.rejections) == 1     # the post-failure one
        assert report.rejections[0].reason == REJECT_TILE_UNAVAILABLE

    def test_healthy_tenant_unaffected_by_neighbour_failure(self):
        """Failure isolation: tenant "x" loses its tile, tenant "y"
        on a disjoint tile keeps full hardware service."""
        runtime, server = make_server(
            recovery=self.recovery(software_fallback=True))
        FaultInjector(FaultPlan([
            FaultSpec(kind="acc_hang", target="a0", at_cycle=0,
                      count=1)])).attach(runtime.soc)
        server.register(TenantConfig(name="x",
                                     dataflow=chain("x", ["a0"]),
                                     mode="pipe"))
        server.register(TenantConfig(name="y",
                                     dataflow=chain("y", ["b0"]),
                                     mode="pipe"))
        fy = frames_of(4, seed=3)
        report = server.run_trace([
            TracedRequest(0, "x", frames_of(2)),
            TracedRequest(0, "y", fy),
        ])
        by_tenant = {c.tenant: c for c in report.completions}
        assert len(report.completions) == 2
        assert not by_tenant["y"].degraded
        np.testing.assert_array_equal(by_tenant["y"].outputs, fy + 1.0)
        assert not runtime.registry.is_failed("b0")


class TestReporting:
    def test_report_summaries_and_render(self):
        _, server = make_server()
        server.register(TenantConfig(name="app",
                                     dataflow=chain("app", ["a0"])))
        report = server.run_trace([
            TracedRequest(at, "app", frames_of(1, seed=at))
            for at in (0, 50_000, 100_000)])

        assert report.completed_frames == 3
        assert report.throughput_fps > 0
        assert report.makespan_cycles > 0
        summary = report.latency_summary()
        assert summary.count == 3
        assert summary.p50 <= summary.p99 <= summary.max
        assert "app" in report.latency_by_tenant
        text = report.render()
        assert "app" in text and "throughput" in text


class TestLoad:
    def test_backlog_cycles_is_the_loads_estimate(self):
        """The fleet router's score and ``load().est_backlog_cycles``
        are one rule: on a server with batches in flight and requests
        queued they agree, and both weigh every queued and in-flight
        frame by its own tenant's per-frame estimate."""
        _, server = make_server()
        server.register(TenantConfig(name="x", dataflow=chain("x", ["a0"]),
                                     max_batch_frames=2))
        server.register(TenantConfig(name="y",
                                     dataflow=chain("y", ["b0", "c0"]),
                                     max_batch_frames=2))
        server.start()
        for seed in range(3):
            for tenant in ("x", "y"):
                assert server.submit(tenant, frames_of(2, seed)) is None
        server.env.run(until=server.env.now + 300)

        load = server.load()
        assert (load.queued_frames, load.in_flight_frames) == (8, 4)
        assert load.in_flight_batches == 2
        per_frame = {name: server._tenants[name].est_cycles_per_frame
                     for name in ("x", "y")}
        assert per_frame["x"] != per_frame["y"]
        # Each tenant: two frames in flight, four queued.
        expected = 6 * per_frame["x"] + 6 * per_frame["y"]
        assert server.backlog_cycles() == expected
        assert load.est_backlog_cycles == expected


class TestPerRunStatistics:
    def test_consecutive_run_trace_reports_are_per_run(self):
        """Regression: queue statistics must describe one trace, not
        every trace since boot — a second ``run_trace`` on the same
        server used to inherit the first run's admission count and
        peak depth."""
        _, server = make_server()
        server.register(TenantConfig(name="app",
                                     dataflow=chain("app", ["a0"])))
        trace = [TracedRequest(0, "app", frames_of(1, seed=s))
                 for s in range(3)]
        first = server.run_trace(trace)
        second = server.run_trace(
            [TracedRequest(0, "app", frames_of(1, seed=9))])

        assert first.admitted == 3 and first.peak_queue_depth == 3
        assert second.admitted == 1
        assert second.peak_queue_depth == 1
        # Every report field covers its own run; the server's records
        # still run on since boot.
        assert len(second.completions) == 1
        assert len(server.completions) == 4


    def test_throughput_counts_only_the_runs_own_frames(self):
        _, server = make_server()
        server.register(TenantConfig(name="app",
                                     dataflow=chain("app", ["a0"])))
        trace = [TracedRequest(0, "app", frames_of(1, seed=s))
                 for s in range(2)]
        for _ in range(2):
            report = server.run_trace(trace)
            assert report.completed_frames == 2
            assert report.throughput_fps == pytest.approx(
                2 / report.makespan_seconds)


class TestRemediationHooks:
    """The control plane's server surface: reshard / widen / repair."""

    def twin_tile_specs(self):
        # a0/a1 share a kernel (reshard-compatible); b0 does not.
        spec = make_spec(name="a")
        return [("a0", spec), ("a1", spec),
                ("b0", make_spec(name="b"))]

    def make(self, **kwargs):
        return make_server(specs=self.twin_tile_specs(), **kwargs)

    def test_reshard_idle_tenant_applies_immediately(self):
        runtime, server = self.make()
        server.register(TenantConfig(name="app",
                                     dataflow=chain("app", ["a0"])))
        assert server.tenant_tiles() == {"app": frozenset({"a0"})}
        assert server.reshard_tenant("app", {"a0": "a1"}) == "applied"
        assert server.tenant_tiles() == {"app": frozenset({"a1"})}

        frames = frames_of(2)
        report = server.run_trace([TracedRequest(0, "app", frames)])
        assert len(report.completions) == 1
        np.testing.assert_array_equal(report.completions[0].outputs,
                                      frames + 1.0)
        assert runtime.soc.accelerators["a1"].invocations
        assert not runtime.soc.accelerators["a0"].invocations

    def test_reshard_mid_flight_defers_then_lands(self):
        runtime, server = self.make()
        server.register(TenantConfig(name="app",
                                     dataflow=chain("app", ["a0"]),
                                     max_batch_frames=1))
        env = server.env
        results = []

        def resharder():
            yield env.timeout(10)     # first batch is in flight now
            results.append(server.reshard_tenant("app", {"a0": "a1"}))
            # The *target* placement reports the pending swap.
            results.append(server.tenant_tiles()["app"])

        env.process(resharder(), name="resharder")
        frames = frames_of(2)
        report = server.run_trace([
            TracedRequest(0, "app", frames[:1]),
            TracedRequest(5_000, "app", frames[1:])])

        assert results == ["deferred", frozenset({"a1"})]
        assert len(report.completions) == 2
        # First batch ran on a0; after the deferred swap landed, the
        # second ran on a1.
        assert len(runtime.soc.accelerators["a0"].invocations) == 1
        assert len(runtime.soc.accelerators["a1"].invocations) == 1

    def test_reshard_onto_different_kernel_rejected(self):
        _, server = self.make()
        server.register(TenantConfig(name="app",
                                     dataflow=chain("app", ["a0"])))
        with pytest.raises(ValueError, match="different kernels"):
            server.reshard_tenant("app", {"a0": "b0"})
        with pytest.raises(KeyError):
            server.reshard_tenant("ghost", {"a0": "a1"})

    def test_widen_batch_and_bound_accessor(self):
        _, server = self.make()
        server.register(TenantConfig(name="app",
                                     dataflow=chain("app", ["a0"]),
                                     max_batch_frames=4))
        assert server.batch_bound("app") == 4
        assert server.widen_batch("app", cap=256) == 8
        assert server.batch_bound("app") == 8
        # Cap reached: the bound stops growing.
        assert server.widen_batch("app", cap=8) == 8

    def test_widened_bound_survives_a_reshard(self):
        _, server = self.make()
        server.register(TenantConfig(name="app",
                                     dataflow=chain("app", ["a0"]),
                                     max_batch_frames=4))
        server.widen_batch("app", cap=256)
        server.widen_batch("app", cap=256)
        server.reshard_tenant("app", {"a0": "a1"})
        assert server.batch_bound("app") == 16

    def test_repair_tile_clears_failure_and_forcing(self):
        runtime, server = self.make(
            recovery=RecoveryPolicy(watchdog_cycles=20_000))
        registry = server.executor.registry
        registry.mark_failed("a0")
        server.executor.force_software("a1")
        server.repair_tile("a0")
        server.repair_tile("a1")
        assert not registry.is_failed("a0")
        assert "a1" not in server.executor.forced_software
