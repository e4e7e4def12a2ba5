"""Tests for the tile arbiter: atomic grants, policies, failure flow.

Grant/release bookkeeping is synchronous (``acquire`` either triggers
its event immediately or parks the claim; ``release`` re-scans), so
most tests observe ``event.triggered`` directly without running the
event loop. The loop only matters for the process-level test at the
end.
"""

import pytest

from repro.serve import ARBITER_POLICIES, TileArbiter, TileUnavailable
from repro.sim import Environment
from tests.serve.probes import free_tiles, pending_claims, readmit_schedule


def make_arbiter(tiles=("a", "b", "c"), policy="fifo"):
    env = Environment()
    return env, TileArbiter(env, tiles, policy=policy)


class TestBasicGrants:
    def test_free_set_granted_immediately(self):
        _, arb = make_arbiter()
        claim = arb.acquire({"a", "b"})
        assert claim.triggered and claim.ok
        assert free_tiles(arb) == frozenset({"c"})
        assert arb.grants == 1

    def test_all_or_nothing_no_partial_hold(self):
        _, arb = make_arbiter()
        arb.acquire({"b"})
        blocked = arb.acquire({"a", "b"})
        assert not blocked.triggered
        # The blocked claim holds *nothing*: "a" is still grantable.
        assert "a" in free_tiles(arb)
        assert pending_claims(arb) == 1

    def test_no_head_of_line_blocking_across_disjoint_sets(self):
        _, arb = make_arbiter()
        arb.acquire({"a"})
        blocked = arb.acquire({"a", "b"})     # waits for a
        disjoint = arb.acquire({"c"})         # must not wait behind it
        assert not blocked.triggered
        assert disjoint.triggered and disjoint.ok

    def test_release_wakes_waiting_claim(self):
        _, arb = make_arbiter()
        arb.acquire({"a", "b"})
        waiting = arb.acquire({"b", "c"})
        assert not waiting.triggered
        arb.release({"a", "b"})
        assert waiting.triggered and waiting.ok
        assert waiting.value == frozenset({"b", "c"})

    def test_release_validates_ownership(self):
        _, arb = make_arbiter()
        arb.acquire({"a"})
        with pytest.raises(ValueError, match="not held"):
            arb.release({"a", "b"})

    def test_cancel_withdraws_pending_claim(self):
        _, arb = make_arbiter()
        arb.acquire({"a"})
        pending = arb.acquire({"a"})
        assert arb.cancel(pending)
        arb.release({"a"})
        assert not pending.triggered
        assert not arb.cancel(pending)   # already gone

    def test_input_validation(self):
        env, arb = make_arbiter()
        with pytest.raises(ValueError, match="policy"):
            TileArbiter(env, ["a"], policy="lifo")
        with pytest.raises(ValueError, match="at least one"):
            TileArbiter(env, [])
        with pytest.raises(ValueError, match="empty"):
            arb.acquire(set())
        with pytest.raises(KeyError, match="unknown tiles"):
            arb.acquire({"z"})


def contended_grants(policy, claims):
    """Park ``claims`` (kwargs dicts) behind a busy tile, then release
    it repeatedly; returns the indices in grant order."""
    _, arb = make_arbiter(tiles=("t",), policy=policy)
    arb.acquire({"t"})
    events = [arb.acquire({"t"}, **kw) for kw in claims]
    order = []
    for _ in claims:
        arb.release({"t"})
        for index, event in enumerate(events):
            if event.triggered and index not in order:
                order.append(index)
    return order


class TestPolicies:
    def test_policy_names_exported(self):
        assert ARBITER_POLICIES == ("fifo", "priority", "sjf")

    def test_fifo_grants_in_arrival_order(self):
        assert contended_grants("fifo", [{}, {}, {}]) == [0, 1, 2]

    def test_priority_grants_highest_first(self):
        order = contended_grants(
            "priority",
            [{"priority": 0}, {"priority": 5}, {"priority": 1}])
        assert order == [1, 2, 0]

    def test_priority_is_fifo_within_a_level(self):
        order = contended_grants(
            "priority", [{"priority": 1}, {"priority": 1}])
        assert order == [0, 1]

    def test_sjf_grants_shortest_job_first(self):
        order = contended_grants(
            "sjf",
            [{"est_cycles": 900}, {"est_cycles": 10},
             {"est_cycles": 100}])
        assert order == [1, 2, 0]


class TestFailureIntegration:
    def test_acquire_of_unavailable_tile_fails_immediately(self):
        _, arb = make_arbiter()
        arb.mark_unavailable("a")
        claim = arb.acquire({"a", "b"})
        assert claim.triggered and not claim.ok
        assert isinstance(claim.value, TileUnavailable)
        assert claim.value.tiles == ["a"]
        claim.__sim_defused__ = True   # nobody yields it in this test

    def test_mark_unavailable_fails_doomed_pending_claims(self):
        _, arb = make_arbiter()
        arb.acquire({"a"})
        doomed = arb.acquire({"a"})
        survivor = arb.acquire({"a"}, allow_unavailable=True)
        arb.mark_unavailable("a")
        assert doomed.triggered and not doomed.ok
        assert not survivor.triggered   # still pending: tile is busy
        doomed.__sim_defused__ = True

    def test_degraded_claim_granted_over_unavailable_tile(self):
        _, arb = make_arbiter()
        arb.mark_unavailable("a")
        claim = arb.acquire({"a", "b"}, allow_unavailable=True)
        assert claim.triggered and claim.ok
        # Exclusivity still holds: a second degraded claim waits.
        second = arb.acquire({"a"}, allow_unavailable=True)
        assert not second.triggered
        arb.release({"a", "b"})
        assert second.triggered

    def test_unavailable_tile_never_returns_to_free_pool(self):
        _, arb = make_arbiter()
        claim = arb.acquire({"a"})
        arb.mark_unavailable("a")
        arb.release(claim.value)
        assert "a" not in free_tiles(arb)
        assert arb.unavailable_tiles == frozenset({"a"})

    def test_mark_available_restores_granting(self):
        _, arb = make_arbiter()
        arb.mark_unavailable("a")
        arb.mark_available("a")
        claim = arb.acquire({"a"})
        assert claim.triggered and claim.ok

    def test_unknown_tile_rejected(self):
        _, arb = make_arbiter()
        with pytest.raises(KeyError):
            arb.mark_unavailable("z")
        with pytest.raises(KeyError):
            arb.mark_available("z")


class TestProbation:
    def make(self, **kwargs):
        env = Environment()
        arb = TileArbiter(env, ("a", "b", "c"), **kwargs)
        return env, arb

    def advance(self, env, cycles):
        env.run(until=env.timeout(cycles))

    def test_probation_readmits_after_delay(self):
        env, arb = self.make(probation_cycles=100)
        arb.mark_unavailable("a")
        assert readmit_schedule(arb) == {"a": 100}
        # Probation is checked lazily from acquire — before the delay
        # the tile stays quarantined.
        self.advance(env, 99)
        arb.acquire({"b"})
        assert "a" in arb.unavailable_tiles
        self.advance(env, 1)
        granted = arb.acquire({"a"})
        assert granted.triggered and granted.ok
        assert arb.readmissions == 1
        assert readmit_schedule(arb) == {}

    def test_repeat_quarantine_backs_off_exponentially(self):
        env, arb = self.make(probation_cycles=100,
                             max_probation_cycles=400)
        expected = [100, 200, 400, 400]   # doubled, then capped
        for delay in expected:
            start = env.now
            arb.mark_unavailable("a")
            assert readmit_schedule(arb)["a"] == start + delay
            self.advance(env, delay)
            arb.acquire({"b"})            # any acquire runs the check
            assert "a" not in arb.unavailable_tiles
        assert arb.readmissions == len(expected)

    def test_on_readmit_callback_fires_before_regrant(self):
        env, arb = self.make(probation_cycles=50)
        repaired = []
        arb.on_readmit = repaired.append
        arb.mark_unavailable("a")
        self.advance(env, 50)
        claim = arb.acquire({"a"})
        assert claim.ok
        assert repaired == ["a"]

    def test_explicit_repair_keeps_the_backoff_count(self):
        env, arb = self.make(probation_cycles=100)
        arb.mark_unavailable("a")
        arb.mark_available("a")           # explicit repair, no wait
        assert readmit_schedule(arb) == {}
        # The tile already failed once: the next quarantine starts at
        # the doubled delay, not back at the base.
        arb.mark_unavailable("a")
        assert readmit_schedule(arb)["a"] == env.now + 200

    def test_probation_opt_in_and_opt_out_per_call(self):
        env, arb = self.make()                   # no probation default
        arb.mark_unavailable("a", probation=True)
        assert readmit_schedule(arb)["a"] == env.now + 1
        # probation=False forces the permanent hold even when the
        # arbiter has a configured delay (the controller's reserve
        # pool relies on this).
        env2, arb2 = self.make(probation_cycles=100)
        arb2.mark_unavailable("a", probation=False)
        assert readmit_schedule(arb2) == {}
        self.advance(env2, 10_000)
        arb2.acquire({"b"})
        assert "a" in arb2.unavailable_tiles

    def test_probation_validation(self):
        with pytest.raises(ValueError, match="probation_cycles"):
            self.make(probation_cycles=0)


class TestProcessIntegration:
    def test_waiters_interleave_over_simulated_time(self):
        """Two processes contend for one tile across simulated time;
        wait statistics reflect the serialization."""
        env, arb = make_arbiter(tiles=("t",))
        log = []

        def worker(name, hold):
            claim = arb.acquire({"t"}, label=name)
            yield claim
            log.append((name, "granted", env.now))
            yield env.timeout(hold)
            arb.release({"t"})

        env.process(worker("first", 100), name="w0")
        env.process(worker("second", 50), name="w1")
        env.run()
        assert log == [("first", "granted", 0),
                       ("second", "granted", 100)]
        assert arb.grants == 2
        assert arb.max_wait_cycles == 100
        assert arb.total_wait_cycles == 100

    def test_failed_claim_raises_in_waiting_process(self):
        env, arb = make_arbiter(tiles=("t",))
        holder = arb.acquire({"t"})
        caught = []

        def victim():
            try:
                yield arb.acquire({"t"})
            except TileUnavailable as exc:
                caught.append(exc.tiles)

        env.process(victim(), name="victim")

        def failer():
            yield env.timeout(10)
            arb.mark_unavailable("t")

        env.process(failer(), name="failer")
        env.run()
        assert caught == [["t"]]
        assert holder.ok
