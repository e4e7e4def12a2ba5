"""Tests for the re-entrant executor path and failure cleanup.

``run_process`` is ``execute`` expressed as a sim process: several
plans can be in flight on one SoC, and a plan that dies must put its
tiles and buffers back so the SoC stays serviceable — the properties
the serving layer is built on.
"""

import numpy as np
import pytest

from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    NodeFailed,
    RecoveryPolicy,
)
from repro.runtime import EspRuntime, chain
from repro.sim import DeadlockError
from tests.conftest import make_runtime, make_soc, make_spec
from tests.faults.test_recovery import DATAFLOW, policy, three_stage_soc
from tests.runtime.alloc import free_list_words, live_buffers, words_in_use


def two_stage_specs():
    return [("a0", make_spec(name="a", latency=100)),
            ("b0", make_spec(name="b", latency=60)),
            ("c0", make_spec(name="c", latency=40))]


def drive(runtime, *run_args, **run_kwargs):
    """Run one ``run_process`` call to completion on the event loop."""
    env = runtime.soc.env
    process = env.process(
        runtime.executor.run_process(*run_args, **run_kwargs),
        name="drive")
    return env.run(until=process)


class TestRunProcess:
    @pytest.mark.parametrize("mode", ["base", "pipe", "p2p"])
    def test_bit_exact_with_blocking_execute(self, mode):
        frames = np.random.default_rng(0).uniform(0, 1, (4, 16))
        dataflow = chain("df", ["a0", "b0"])

        reference = make_runtime(two_stage_specs())
        expected = reference.esp_run(dataflow, frames, mode=mode)

        runtime = make_runtime(two_stage_specs())
        result = drive(runtime, dataflow, frames, mode)
        np.testing.assert_array_equal(result.outputs, expected.outputs)
        assert result.frames == 4
        assert result.cycles > 0

    def test_releases_buffers_on_completion(self):
        runtime = make_runtime(two_stage_specs())
        frames = np.ones((2, 16))
        base_probe = runtime.allocator.alloc(1)
        runtime.allocator.free(base_probe)
        drive(runtime, chain("df", ["a0", "b0"]), frames, "p2p")
        # Everything retracted: the next allocation lands at the base.
        assert free_list_words(runtime.allocator) == 0
        assert runtime.allocator.alloc(1).offset == base_probe.offset

    def test_closing_a_suspended_run_raises_nothing(self):
        """``close()`` on a parked run unwinds it: GeneratorExit is no
        failure to tear down after, so nothing may yield on its way."""
        runtime = make_runtime(two_stage_specs())
        run = runtime.executor.run_process(
            chain("df", ["a0", "b0"]), np.ones((2, 16)), "pipe")
        next(run)
        run.close()

    def test_rejects_bad_input_shape_and_releases(self):
        runtime = make_runtime(two_stage_specs())
        with pytest.raises(ValueError, match="words"):
            drive(runtime, chain("df", ["a0"]), np.ones((2, 5)), "pipe")
        assert free_list_words(runtime.allocator) == 0
        assert runtime.allocator.alloc(1).offset == 0

    def test_two_plans_interleave_on_disjoint_tiles(self):
        """The point of the whole refactor: two plans in flight on one
        SoC, overlapping in simulated time, both bit-exact."""
        runtime = make_runtime(two_stage_specs())
        env = runtime.soc.env
        fa = np.random.default_rng(1).uniform(0, 1, (4, 16))
        fb = np.random.default_rng(2).uniform(0, 1, (4, 16))
        results = {}
        spans = {}

        def run(key, dataflow, frames):
            start = env.now
            results[key] = yield from runtime.executor.run_process(
                dataflow, frames, "pipe")
            spans[key] = (start, env.now)

        pa = env.process(run("a", chain("da", ["a0", "b0"]), fa),
                         name="plan-a")
        pb = env.process(run("b", chain("db", ["c0"]), fb),
                         name="plan-b")
        env.run(until=env.all_of([pa, pb]))

        np.testing.assert_array_equal(results["a"].outputs, fa + 2.0)
        np.testing.assert_array_equal(results["b"].outputs, fb + 1.0)
        # Overlap in simulated time, not serialization.
        assert spans["a"][0] < spans["b"][1]
        assert spans["b"][0] < spans["a"][1]


class TestFailureCleanup:
    """A failed plan must leave the SoC serviceable: tiles reset,
    stale IRQs drained, buffers freed."""

    @staticmethod
    def fail_stop():
        """Watchdog armed, no retry, no fallback: a hang is NodeFailed."""
        return RecoveryPolicy(watchdog_cycles=5_000, max_retries=0,
                              software_fallback=False)

    def hang_injector(self, soc, target="a0"):
        FaultInjector(FaultPlan([
            FaultSpec(kind="acc_hang", target=target, at_cycle=0,
                      count=1)])).attach(soc)

    def test_same_plan_succeeds_after_watchdog_failure(self):
        """A plan fails mid-pipeline on the watchdog; the same plan
        over the same SoC right after must succeed."""
        soc = make_soc(two_stage_specs())
        self.hang_injector(soc)
        runtime = EspRuntime(soc, recovery=self.fail_stop())
        dataflow = chain("df", ["a0", "b0"])
        frames = np.random.default_rng(0).uniform(0, 1, (4, 16))

        with pytest.raises(NodeFailed):
            runtime.esp_run(dataflow, frames, mode="pipe")
        # Cleanup ran: buffers freed and retracted, tiles reset to idle.
        assert words_in_use(runtime.allocator) == 0
        assert free_list_words(runtime.allocator) == 0
        from repro.soc.registers import STATUS_RUNNING
        for tile in soc.accelerators.values():
            assert tile.regs._values["STATUS_REG"] != STATUS_RUNNING

        result = runtime.esp_run(dataflow, frames, mode="pipe")
        np.testing.assert_array_equal(result.outputs, frames + 2.0)

    def test_second_plan_succeeds_after_node_failed(self):
        """Same, through the watchdog path with fallback disabled: the
        failed device stays quarantined but the rest of the SoC works."""
        soc = make_soc(two_stage_specs())
        self.hang_injector(soc)
        runtime = EspRuntime(soc, recovery=self.fail_stop())
        frames = np.random.default_rng(0).uniform(0, 1, (4, 16))

        with pytest.raises(NodeFailed):
            runtime.esp_run(chain("df", ["a0", "b0"]), frames,
                            mode="pipe")
        assert runtime.registry.is_failed("a0")
        assert words_in_use(runtime.allocator) == 0
        assert free_list_words(runtime.allocator) == 0

        result = runtime.esp_run(chain("df2", ["b0", "c0"]), frames,
                                 mode="pipe")
        np.testing.assert_array_equal(result.outputs, frames + 2.0)

    def test_run_process_failure_releases_for_concurrent_peer(self):
        """A dying plan must not poison a concurrently running one."""
        soc = make_soc(two_stage_specs())
        self.hang_injector(soc)
        runtime = EspRuntime(soc, recovery=self.fail_stop())
        env = soc.env
        fb = np.random.default_rng(3).uniform(0, 1, (4, 16))
        outcome = {}

        def doomed():
            try:
                yield from runtime.executor.run_process(
                    chain("da", ["a0"]), np.ones((2, 16)), "pipe")
            except NodeFailed as exc:
                outcome["doomed"] = exc

        def survivor():
            outcome["ok"] = yield from runtime.executor.run_process(
                chain("db", ["b0", "c0"]), fb, "pipe")

        pa = env.process(doomed(), name="doomed")
        pb = env.process(survivor(), name="survivor")
        env.run(until=env.all_of([pa, pb]))

        assert isinstance(outcome["doomed"], NodeFailed)
        np.testing.assert_array_equal(outcome["ok"].outputs, fb + 2.0)
        assert words_in_use(runtime.allocator) == 0
        assert free_list_words(runtime.allocator) == 0

    @pytest.mark.parametrize("mode,resets", [
        ("base", {"a0": 2, "b0": 1, "c0": 0}),
        ("pipe", {"a0": 2, "b0": 1, "c0": 0}),
        ("p2p", {"a0": 2, "b0": 2, "c0": 0}),
    ])
    def test_abort_resets_every_tile_of_the_plan(self, mode, resets):
        """The abort resets each tile of the failed plan once more,
        and no other tile. The watchdog resets come first: the hung
        tile's, and in p2p that of its starved consumer, whose
        watchdog fires too. STATUS cannot show the abort's reset,
        since the watchdog already left the hung tile idle."""
        soc = make_soc(two_stage_specs())
        self.hang_injector(soc)
        runtime = EspRuntime(soc, recovery=self.fail_stop())
        with pytest.raises(NodeFailed):
            runtime.esp_run(chain("df", ["a0", "b0"]), np.ones((4, 16)),
                            mode=mode)
        assert {name: tile.resets
                for name, tile in soc.accelerators.items()} == resets


class TestOneRunPath:
    """``execute`` and ``run_process`` share one driver, recovery and
    teardown path, so they agree on every request and clean up alike."""

    FRAMES = np.arange(4 * 16, dtype=float).reshape(4, 16)

    @staticmethod
    def hung_s1(soc, kind="acc_hang"):
        FaultInjector(FaultPlan([FaultSpec(kind=kind, target="s1",
                                           at_cycle=0, count=1)])
                      ).attach(soc)

    @pytest.mark.parametrize("mode,hang,cycles", [
        ("base", False, 10_533),
        ("pipe", False, 5_647),
        ("p2p", False, 1_522),
        ("pipe", True, 26_142),     # one watchdog retry
        ("p2p", True, 31_590),      # stream fails, degrades to pipe
    ])
    def test_execute_agrees_with_a_lone_run_process(self, mode, hang,
                                                    cycles):
        results = []
        for blocking in (True, False):
            soc = three_stage_soc()
            if hang:
                self.hung_s1(soc)
            runtime = EspRuntime(soc, recovery=policy(max_retries=2))
            dataflow = chain("three", DATAFLOW)
            if blocking:
                results.append(runtime.esp_run(dataflow, self.FRAMES,
                                               mode=mode))
            else:
                results.append(drive(runtime, dataflow, self.FRAMES, mode))
        blocking, serving = results
        np.testing.assert_array_equal(blocking.outputs, self.FRAMES + 3.0)
        np.testing.assert_array_equal(serving.outputs, blocking.outputs)
        fields = ("cycles", "retries", "watchdog_timeouts",
                  "software_frames", "ioctl_calls", "degraded")
        assert [getattr(serving, f) for f in fields] == \
            [getattr(blocking, f) for f in fields]
        assert blocking.cycles == cycles
        assert blocking.degraded == (hang and mode == "p2p")

    @pytest.mark.parametrize("kind,mode,recovery,error", [
        # A dropped p2p request wedges the stream: env.run itself
        # raises while main is still parked.
        ("p2p_req_drop", "p2p", None, DeadlockError),
        ("acc_hang", "pipe",
         policy(max_retries=0, software_fallback=False), NodeFailed),
    ])
    def test_failed_execute_returns_the_allocator_to_pristine(
            self, kind, mode, recovery, error):
        soc = three_stage_soc()
        self.hung_s1(soc, kind)
        runtime = EspRuntime(soc, recovery=recovery)
        allocator = runtime.allocator
        with pytest.raises(error):
            runtime.esp_run(chain("three", DATAFLOW), self.FRAMES,
                            mode=mode)
        assert live_buffers(allocator) == 0
        assert free_list_words(allocator) == 0
        assert allocator.alloc(1).offset == allocator.base
