"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import Environment, Event, SimulationError


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc(env):
        yield env.timeout(5)
        log.append(env.now)
        yield env.timeout(3)
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [5, 8]


def test_timeout_zero_runs_same_cycle():
    env = Environment()
    log = []

    def proc(env):
        yield env.timeout(0)
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [0]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_timeout_carries_value():
    env = Environment()
    seen = []

    def proc(env):
        value = yield env.timeout(2, value="payload")
        seen.append(value)

    env.process(proc(env))
    env.run()
    assert seen == ["payload"]


def test_process_return_value_visible_to_waiter():
    env = Environment()
    results = []

    def child(env):
        yield env.timeout(4)
        return 42

    def parent(env):
        result = yield env.process(child(env))
        results.append((env.now, result))

    env.process(parent(env))
    env.run()
    assert results == [(4, 42)]


def test_run_until_time_stops_early():
    env = Environment()
    log = []

    def proc(env):
        for _ in range(10):
            yield env.timeout(10)
            log.append(env.now)

    env.process(proc(env))
    env.run(until=35)
    assert log == [10, 20, 30]
    assert env.now == 35


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env, done):
        yield env.timeout(7)
        done.succeed("finished")
        yield env.timeout(100)

    done = env.event()
    env.process(proc(env, done))
    assert env.run(until=done) == "finished"
    assert env.now == 7


def test_run_until_event_never_triggering_raises():
    env = Environment()
    never = env.event()

    def proc(env):
        yield env.timeout(1)

    env.process(proc(env))
    with pytest.raises(SimulationError):
        env.run(until=never)


def test_event_double_trigger_rejected():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_value_before_trigger_rejected():
    env = Environment()
    event = env.event()
    with pytest.raises(SimulationError):
        _ = event.value


def test_events_at_same_time_fifo_order():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(5)
        order.append(tag)

    for tag in ("a", "b", "c"):
        env.process(proc(env, tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_all_of_waits_for_every_event():
    env = Environment()
    seen = []

    def proc(env):
        t1 = env.timeout(3, value="x")
        t2 = env.timeout
        result = yield env.all_of([t1, env.timeout(9, value="y")])
        seen.append((env.now, sorted(result.values())))

    env.process(proc(env))
    env.run()
    assert seen == [(9, ["x", "y"])]


def test_any_of_fires_on_first():
    env = Environment()
    seen = []

    def proc(env):
        result = yield env.any_of([env.timeout(3, "fast"), env.timeout(9, "slow")])
        seen.append((env.now, list(result.values())))

    env.process(proc(env))
    env.run()
    assert seen == [(3, ["fast"])]


def test_failed_event_raises_in_waiter():
    env = Environment()
    caught = []

    def child(env):
        yield env.timeout(2)
        raise RuntimeError("boom")

    def parent(env):
        try:
            yield env.process(child(env))
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(parent(env))
    env.run()
    assert caught == ["boom"]


def test_unhandled_process_failure_surfaces_from_run():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        raise ValueError("unhandled")

    env.process(proc(env))
    with pytest.raises(ValueError, match="unhandled"):
        env.run()


def test_yield_non_event_is_an_error():
    env = Environment()

    def proc(env):
        yield 42

    env.process(proc(env))
    with pytest.raises(SimulationError):
        env.run()


def test_yield_already_processed_event_resumes_immediately():
    env = Environment()
    log = []

    def proc(env, event):
        yield env.timeout(10)
        value = yield event  # triggered long ago
        log.append((env.now, value))

    event = env.event()
    event.succeed("early")
    env.process(proc(env, event))
    env.run()
    assert log == [(10, "early")]


def test_nested_processes_compose():
    env = Environment()

    def leaf(env, delay):
        yield env.timeout(delay)
        return delay

    def branch(env):
        total = 0
        for delay in (2, 3):
            total += yield env.process(leaf(env, delay))
        return total

    def root(env, out):
        result = yield env.process(branch(env))
        out.append((env.now, result))

    out = []
    env.process(root(env, out))
    env.run()
    assert out == [(5, 5)]


def test_clock_is_monotonic_across_many_processes():
    env = Environment()
    stamps = []

    def proc(env, period):
        for _ in range(20):
            yield env.timeout(period)
            stamps.append(env.now)

    for period in (3, 5, 7):
        env.process(proc(env, period))
    env.run()
    assert stamps == sorted(stamps)


def test_finished_process_is_freed_without_the_cyclic_collector():
    """A process drops its cached bound methods (a cycle back to
    itself) when it terminates, so reference counting frees it."""
    import gc

    from repro.sim.kernel import Process

    env = Environment()

    def child():
        yield env.timeout(2)
        return 7

    def parent():
        value = yield env.process(child(), name="freed-child")
        yield env.timeout(1)
        return value

    def leaked():
        return [obj for obj in gc.get_objects()
                if isinstance(obj, Process)
                and obj.name in ("freed-child", "freed-parent")]

    gc.collect()
    gc.disable()
    try:
        proc = env.process(parent(), name="freed-parent")
        env.run()
        assert proc.value == 7
        del proc
        # Drops the finished processes from the deadlock registry.
        assert env.blocked_processes() == []
        remaining = leaked()
    finally:
        gc.enable()
    assert remaining == []
