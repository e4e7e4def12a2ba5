"""End-to-end fleet tests: policies, determinism, fidelity pins.

The campaign cases run the short ("smoke") overload workload of
``repro.eval.fleet`` — the same skewed, bursty trace the fleet
benchmark grades — once per policy, shared module-wide through
fixtures (fleets are cheap but not free).
"""

import pytest

from repro.eval.apps import APP_CONFIGS, build_soc_for, build_soc1
from repro.eval.fleet import (
    CAMPAIGN_POLICIES,
    build_standard_fleet,
    overload_workload,
    run_fleet_campaign,
    standard_inputs,
    standard_tenants,
)
from repro.fleet import (
    Arrival,
    Fleet,
    FleetInstance,
    FleetRouter,
    build_fleet,
    generate_arrivals,
)
from repro.metrics import merge_snapshots
from repro.serve import ServerConfig

# The bench_perf seed pins (tests must not import from benchmarks/).
PIN_P2P = 77460
PIN_DMA = 90139
PIN_SERVE = 65324


@pytest.fixture(scope="module")
def campaign():
    """One smoke campaign: all three policies, same arrival trace."""
    return run_fleet_campaign(policies=CAMPAIGN_POLICIES,
                              n_instances=4, seed=0, smoke=True)


class TestCampaignPolicies:
    def test_overload_regime(self, campaign):
        """Every policy rejects (bounded queues push back) yet still
        completes most traffic — the regime the benchmark grades."""
        for policy, report in campaign.items():
            assert report.rejections, policy
            assert report.completed_frames > 0, policy
            assert report.failed == 0, policy
            assert all(r.reason == "queue-full"
                       for _, r in report.rejections), policy

    def test_accounting_conserved(self, campaign):
        for policy, report in campaign.items():
            assert len(report.decisions) == report.offered_requests
            assert report.admitted + len(report.rejections) \
                == report.offered_requests, policy
            routed = report.requests_by_instance()
            assert sum(routed.values()) == report.offered_requests

    def test_least_loaded_beats_round_robin_p99(self, campaign):
        """Under the skewed tenant mix, queue-depth feedback must beat
        blind rotation on the fleet-wide tail."""
        assert campaign["least-loaded"].latency.p99 \
            < campaign["round-robin"].latency.p99

    def test_policies_share_the_trace(self, campaign):
        offered = {(r.offered_requests, r.offered_frames)
                   for r in campaign.values()}
        assert len(offered) == 1

    def test_round_robin_spreads_within_shards(self, campaign):
        report = campaign["round-robin"]
        routed = report.requests_by_instance()
        # With replicas=3 of 4 instances, at least 3 instances see
        # traffic and no single instance takes everything.
        active = [n for n, count in routed.items() if count > 0]
        assert len(active) >= 3
        assert max(routed.values()) < report.offered_requests


class TestDeterminism:
    def test_same_seed_same_decisions_and_tail(self):
        """request_ids come from a process-global counter, so compare
        decision (at, tenant, instance) triples, never ids."""
        def run():
            report = run_fleet_campaign(policies=("least-loaded",),
                                        n_instances=4, seed=0,
                                        smoke=True)["least-loaded"]
            return ([(d.at, d.tenant, d.instance)
                     for d in report.decisions],
                    report.latency.p99, report.makespan_cycles,
                    len(report.rejections))

        assert run() == run()

    def test_workload_seed_changes_decisions(self):
        first = run_fleet_campaign(policies=("round-robin",),
                                   n_instances=4, seed=0,
                                   smoke=True)["round-robin"]
        second = run_fleet_campaign(policies=("round-robin",),
                                    n_instances=4, seed=1,
                                    smoke=True)["round-robin"]
        assert [(d.at, d.tenant) for d in first.decisions] \
            != [(d.at, d.tenant) for d in second.decisions]


class TestSingleInstanceFidelity:
    """A 1-instance fleet executes the standalone event sequence —
    pinned to the seed cycle counts of ``bench_perf``."""

    def test_serve_trace_pins(self):
        instance = FleetInstance.build(
            "i0", build_soc1, standard_tenants(),
            server_config=ServerConfig())
        fleet = Fleet([instance], FleetRouter([instance]))
        inputs = standard_inputs(n_frames=4)
        arrivals = [Arrival(0, tenant, 2)
                    for tenant in inputs for _ in range(2)]
        report = fleet.run(arrivals, inputs)
        assert not report.rejections and report.failed == 0
        assert report.makespan_cycles == PIN_SERVE

    @pytest.mark.parametrize("mode,pin", [("p2p", PIN_P2P),
                                          ("pipe", PIN_DMA)])
    def test_pipeline_pins_through_instance_runtime(self, mode, pin):
        """The instance's runtime is the plain runtime: driving the
        4nv_4cl pipeline through it lands on the pinned cycles."""
        config = APP_CONFIGS["4nv_4cl"]
        instance = FleetInstance.build(
            "i0", lambda: build_soc_for(config), tenants=[])
        frames, _ = config.make_inputs(32, seed=0)
        instance.runtime.esp_run(config.build_dataflow(), frames,
                                 mode=mode)
        assert instance.now == pin


class TestFleetMechanics:
    def test_build_fleet_rejects_empty(self):
        with pytest.raises(ValueError):
            build_fleet(0, build_soc1, standard_tenants)

    def test_advance_to_rejects_rewind(self):
        instance = FleetInstance.build("i0", build_soc1,
                                       standard_tenants())
        instance.advance_to(100)
        with pytest.raises(ValueError):
            instance.advance_to(50)
        assert instance.now == 100

    def test_poll_completions_is_incremental(self):
        fleet = build_standard_fleet(n_instances=1,
                                     policy="round-robin")
        instance = fleet.instances[0]
        inputs = standard_inputs(n_frames=2)
        fleet.run([Arrival(0, "classifier", 1)], inputs)
        # Fleet.run's final observe() already polled everything.
        assert instance.server.completions
        assert instance.poll_completions() == []

    def test_same_cycle_arrival_on_busy_instance_is_not_stranded(self):
        """An arrival landing on a busy instance's *current* cycle.

        The coordinator's ``advance_to`` for such an arrival is an
        equal-cycle no-op; the submission must still be admitted and
        served exactly like the standalone server's back-to-back
        same-cycle submissions, with nothing stranded at drain.
        """
        instance = FleetInstance.build("i0", build_soc1,
                                       standard_tenants())
        fleet = Fleet([instance], FleetRouter([instance]))
        inputs = standard_inputs(n_frames=2)
        instance.start()
        assert instance.submit("classifier", inputs["classifier"]) is None
        # Advance into the middle of the first request's service.
        mid = instance.now + 500
        instance.advance_to(mid)
        assert instance.load().est_backlog_cycles > 0   # still busy
        # The arrival lands at exactly the instance's current cycle:
        # the lockstep advance is a no-op and must not strand the
        # admission handshake.
        instance.advance_to(mid)
        assert instance.submit("classifier", inputs["classifier"]) is None
        instance.drain()
        assert len(instance.poll_completions()) == 2
        # Nothing due at the final cycle is left undispatched: drain's
        # zero-delay flush emptied the ready deque.
        assert not instance.env._ready

    def test_drain_flushes_same_cycle_events(self):
        """After drain(), no same-cycle event is left pending.

        ``run(until=event)`` aborts mid-cycle when the terminal event
        processes; drain's flush must dispatch the rest of that cycle
        (completion callbacks, metric updates) so reports and the
        router's completion feed see every finished request even when
        the coordinator never advances the clock again.
        """
        fleet = build_standard_fleet(n_instances=2,
                                     policy="round-robin")
        inputs = standard_inputs(n_frames=2)
        report = fleet.run([Arrival(0, "classifier", 1),
                            Arrival(0, "denoiser", 1),
                            Arrival(100, "classifier", 1)], inputs)
        assert report.failed == 0 and not report.rejections
        for instance in fleet.instances:
            assert not instance.env._ready

    def test_idle_instances_age_in_lockstep(self):
        """Every instance ends at the same fleet-final cycle, busy or
        not."""
        fleet = build_standard_fleet(n_instances=3,
                                     policy="round-robin")
        inputs = standard_inputs(n_frames=4)
        report = fleet.run([Arrival(0, "classifier", 1),
                            Arrival(500, "denoiser", 1)], inputs)
        assert len({i.now for i in fleet.instances}) == 1
        assert report.makespan_cycles == fleet.instances[0].now


class TestFleetMetrics:
    def test_namespaced_registries_merge(self):
        fleet = build_standard_fleet(n_instances=2,
                                     policy="round-robin",
                                     metrics=True)
        inputs = standard_inputs(n_frames=4)
        spec = overload_workload(seed=3, smoke=True)
        arrivals = generate_arrivals(spec)[:8]
        fleet.run(arrivals, inputs)
        snapshots = [instance.metrics.snapshot()
                     for instance in fleet.instances]
        merged = merge_snapshots(snapshots)
        names = [family["name"] for family in merged["families"]]
        assert len(names) == len(set(names))
        assert any(name.startswith("i0_") for name in names)
        assert any(name.startswith("i1_") for name in names)
        # Hardware families are scrape-time views of each instance's
        # SoC counters: present, and nonzero, in every registry.
        totals = {family["name"]: sum(s["value"] for s in family["series"])
                  for family in merged["families"]
                  if family["kind"] == "counter"}
        assert totals["i0_dma_transactions_total"] > 0
        assert totals["i1_noc_packets_total"] > 0
