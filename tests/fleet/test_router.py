"""Tests for tenant sharding and the load-balancing policies.

Policy mechanics are tested against stub instances (the router only
touches ``name`` / ``backlog_cycles()`` / ``poll_completions()``), so
each case pins one decision rule without simulating SoCs; the end-to-end
policy behaviour on real instances lives in ``test_cluster.py``.
"""

from types import SimpleNamespace

import pytest

from repro.fleet import FleetRouter, ROUTER_POLICIES, shard_tenant


class StubInstance:
    """Duck-typed instance: controllable backlog + completion feed."""

    def __init__(self, name, backlog=0):
        self.name = name
        self.backlog = backlog
        self.pending = []

    def backlog_cycles(self):
        return self.backlog

    def poll_completions(self):
        fresh, self.pending = self.pending, []
        return fresh

    def complete(self, latency_cycles):
        self.pending.append(
            SimpleNamespace(latency_cycles=latency_cycles))


def stubs(n, backlogs=None):
    backlogs = backlogs or [0] * n
    return [StubInstance(f"i{k}", backlogs[k]) for k in range(n)]


class TestSharding:
    NAMES = [f"i{k}" for k in range(5)]

    def test_deterministic_and_sized(self):
        shard = shard_tenant("classifier", self.NAMES, replicas=3)
        assert shard == shard_tenant("classifier", self.NAMES, 3)
        assert len(shard) == 3
        assert set(shard) <= set(self.NAMES)

    def test_salt_moves_placement(self):
        shards = {shard_tenant("classifier", self.NAMES, 3, salt=s)
                  for s in range(20)}
        assert len(shards) > 1

    def test_consistency_on_instance_removal(self):
        """Removing an instance only touches tenants it hosted: the
        survivors of the old shard stay placed, and tenants that never
        shard onto it keep their placement bit-for-bit."""
        tenants = [f"tenant-{k}" for k in range(40)]
        for tenant in tenants:
            before = shard_tenant(tenant, self.NAMES, 2)
            after = shard_tenant(tenant, self.NAMES[:-1], 2)
            if self.NAMES[-1] not in before:
                assert after == before
            else:
                survivors = [n for n in before if n != self.NAMES[-1]]
                assert set(survivors) <= set(after)

    def test_replicas_bounds(self):
        with pytest.raises(ValueError):
            shard_tenant("t", self.NAMES, 0)
        with pytest.raises(ValueError):
            shard_tenant("t", self.NAMES, 6)


class TestRouterConstruction:
    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            FleetRouter(stubs(2), policy="random")

    def test_rejects_duplicate_names(self):
        pair = [StubInstance("dup"), StubInstance("dup")]
        with pytest.raises(ValueError):
            FleetRouter(pair)

    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError):
            FleetRouter([])

    def test_replicas_default_to_fleet_size(self):
        router = FleetRouter(stubs(3))
        assert router.replicas == 3

    def test_all_policies_exported(self):
        for policy in ROUTER_POLICIES:
            FleetRouter(stubs(2), policy=policy)


class TestRoundRobin:
    def test_rotates_through_shard(self):
        router = FleetRouter(stubs(3), policy="round-robin")
        shard = router.shard("t")
        picks = [router.route("t").name for _ in range(6)]
        assert picks == list(shard) * 2

    def test_rotation_is_per_tenant(self):
        router = FleetRouter(stubs(3), policy="round-robin")
        first_a = router.route("a").name
        router.route("a")
        # Tenant b starts its own rotation at its own shard head.
        assert router.route("b").name == router.shard("b")[0]
        assert first_a == router.shard("a")[0]


class TestLeastLoaded:
    def test_picks_smallest_backlog(self):
        fleet = stubs(3, backlogs=[500, 20, 300])
        router = FleetRouter(fleet, policy="least-loaded")
        assert router.route("t").name == "i1"

    def test_reacts_to_load_changes(self):
        fleet = stubs(2, backlogs=[10, 0])
        router = FleetRouter(fleet, policy="least-loaded")
        assert router.route("t").name == "i1"
        fleet[1].backlog = 1_000
        assert router.route("t").name == "i0"

    def test_tie_breaks_on_shard_order(self):
        router = FleetRouter(stubs(3), policy="least-loaded")
        assert router.route("t").name == router.shard("t")[0]


class TestLatencyAware:
    def test_cold_instances_explored_first(self):
        fleet = stubs(2)
        router = FleetRouter(fleet, policy="latency-aware")
        fleet[0].complete(9_000)
        router.observe()
        # i1 has no signal yet and no backlog (scores 0), so it wins
        # over i0's 9000-cycle EWMA.
        assert router.route("t").name == "i1"

    def test_stalled_cold_instance_stops_attracting_requests(self):
        """Regression: a never-completing instance must not look fastest.

        Under the old ``ewma or 0.0`` coercion, an instance that had
        completed nothing scored 0.0 forever — so a *stalled* instance
        (admits work, never finishes it) permanently won every route
        and absorbed all traffic. Cold instances are now scored by
        their live backlog, so the stalled instance's growing queue
        pushes new arrivals to the healthy (observed) instance.
        """
        fleet = stubs(2)
        router = FleetRouter(fleet, policy="latency-aware")
        healthy, stalled = fleet
        healthy.complete(2_000)
        router.observe()
        # The stalled instance admits requests but never completes any:
        # its EWMA stays None while its backlog climbs.
        for _ in range(5):
            picked = router.route("t")
            if picked is stalled:
                stalled.backlog += 3_000
        assert router._ewma["i1"] is None
        # Once its backlog exceeds the healthy EWMA, every further
        # decision must go to the healthy instance.
        later = [router.route("t").name for _ in range(10)]
        assert set(later) == {"i0"}

    def test_prefers_lower_ewma(self):
        fleet = stubs(2)
        router = FleetRouter(fleet, policy="latency-aware",
                             ewma_alpha=0.5)
        fleet[0].complete(1_000)
        fleet[1].complete(4_000)
        router.observe()
        assert router.route("t").name == "i0"
        assert router._ewma["i0"] == 1_000.0

    def test_ewma_folds_with_alpha(self):
        fleet = stubs(1)
        router = FleetRouter(fleet, policy="latency-aware",
                             ewma_alpha=0.25)
        fleet[0].complete(1_000)
        router.observe()
        fleet[0].complete(2_000)
        router.observe()
        assert router._ewma["i0"] \
            == pytest.approx(0.25 * 2_000 + 0.75 * 1_000)

    def test_observe_consumes_each_completion_once(self):
        fleet = stubs(1)
        router = FleetRouter(fleet, policy="latency-aware")
        fleet[0].complete(1_000)
        router.observe()
        router.observe()   # nothing new: EWMA must not move
        assert router._ewma["i0"] == 1_000.0


class TestDecisionLog:
    def test_decisions_recorded_and_deterministic(self):
        def drive():
            fleet = stubs(3, backlogs=[5, 1, 3])
            router = FleetRouter(fleet, policy="least-loaded",
                                 replicas=2, salt=4)
            for at, tenant in enumerate(["a", "b", "a", "c"]):
                router.route(tenant, at=at)
            return [(d.at, d.tenant, d.instance, d.shard, d.score)
                    for d in router.decisions]

        assert drive() == drive()

    def test_decision_carries_policy_and_shard(self):
        router = FleetRouter(stubs(2), policy="round-robin")
        router.route("t", at=42)
        decision = router.decisions[0]
        assert decision.policy == "round-robin"
        assert decision.at == 42
        assert decision.instance in decision.shard
