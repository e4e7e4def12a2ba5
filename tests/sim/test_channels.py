"""Tests for FIFO channels, resources and semaphores."""

import pytest

from repro.sim import (Environment, Fifo, Resource, Semaphore,
                       SimulationError)
from tests.sim.fifo import try_put


def run(env):
    env.run()


class TestFifo:
    def test_put_then_get(self):
        env = Environment()
        fifo = Fifo(env, capacity=4)
        got = []

        def producer(env):
            for i in range(3):
                yield fifo.put(i)

        def consumer(env):
            for _ in range(3):
                item = yield fifo.get()
                got.append(item)

        env.process(producer(env))
        env.process(consumer(env))
        run(env)
        assert got == [0, 1, 2]

    def test_get_blocks_until_put(self):
        env = Environment()
        fifo = Fifo(env)
        got = []

        def consumer(env):
            item = yield fifo.get()
            got.append((env.now, item))

        def producer(env):
            yield env.timeout(10)
            yield fifo.put("late")

        env.process(consumer(env))
        env.process(producer(env))
        run(env)
        assert got == [(10, "late")]

    def test_put_blocks_when_full(self):
        env = Environment()
        fifo = Fifo(env, capacity=1)
        times = []

        def producer(env):
            yield fifo.put("a")
            times.append(env.now)
            yield fifo.put("b")  # blocks until consumer frees a slot
            times.append(env.now)

        def consumer(env):
            yield env.timeout(5)
            yield fifo.get()

        env.process(producer(env))
        env.process(consumer(env))
        run(env)
        assert times == [0, 5]

    def test_fifo_ordering_preserved_under_backpressure(self):
        env = Environment()
        fifo = Fifo(env, capacity=2)
        got = []

        def producer(env):
            for i in range(10):
                yield fifo.put(i)

        def consumer(env):
            for _ in range(10):
                yield env.timeout(1)
                got.append((yield fifo.get()))

        env.process(producer(env))
        env.process(consumer(env))
        run(env)
        assert got == list(range(10))

    def test_try_put_try_get(self):
        env = Environment()
        fifo = Fifo(env, capacity=1)
        assert fifo.try_get() is None
        assert try_put(fifo, "x") is True
        assert try_put(fifo, "y") is False
        assert fifo.try_get() == "x"

    def test_counters(self):
        env = Environment()
        fifo = Fifo(env)

        def proc(env):
            yield fifo.put(1)
            yield fifo.put(2)
            yield fifo.get()

        env.process(proc(env))
        run(env)
        assert fifo.total_puts == 2
        assert fifo.total_gets == 1
        assert len(fifo) == 1

    def test_capacity_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            Fifo(env, capacity=0)


class TestResource:
    def test_exclusive_access_serializes(self):
        env = Environment()
        res = Resource(env, slots=1)
        spans = []

        def worker(env, tag):
            yield res.acquire()
            start = env.now
            yield env.timeout(10)
            res.release()
            spans.append((tag, start, env.now))

        for tag in ("a", "b"):
            env.process(worker(env, tag))
        run(env)
        assert spans == [("a", 0, 10), ("b", 10, 20)]

    def test_multiple_slots_allow_overlap(self):
        env = Environment()
        res = Resource(env, slots=2)
        ends = []

        def worker(env):
            yield res.acquire()
            yield env.timeout(10)
            res.release()
            ends.append(env.now)

        for _ in range(2):
            env.process(worker(env))
        run(env)
        assert ends == [10, 10]

    def test_release_idle_is_an_error(self):
        env = Environment()
        res = Resource(env)
        with pytest.raises(SimulationError):
            res.release()

    def test_utilization_tracks_busy_time(self):
        env = Environment()
        res = Resource(env)

        def worker(env):
            yield env.timeout(5)
            yield res.acquire()
            yield env.timeout(10)
            res.release()
            yield env.timeout(5)

        env.process(worker(env))
        run(env)
        assert env.now == 20
        assert res.utilization() == pytest.approx(0.5)

    def test_utilization_clamped_to_window(self):
        # Busy time accumulates over the resource's lifetime; a caller
        # asking about a shorter trailing window must get at most 1.0,
        # never busy/window > 1.
        env = Environment()
        res = Resource(env)

        def worker(env):
            yield res.acquire()
            yield env.timeout(100)
            res.release()

        env.process(worker(env))
        run(env)
        assert res.utilization() == pytest.approx(1.0)
        assert res.utilization(elapsed=10) == 1.0
        assert res.utilization(elapsed=200) == pytest.approx(0.5)
        assert res.utilization(elapsed=0) == 0.0

    def test_utilization_clamps_while_held(self):
        env = Environment()
        res = Resource(env)

        def worker(env):
            yield res.acquire()
            yield env.timeout(50)

        env.process(worker(env))
        run(env)
        # Still held at t=50: in-flight busy time counts, and a short
        # window still caps at 1.0.
        assert res.utilization() == pytest.approx(1.0)
        assert res.utilization(elapsed=5) == 1.0

    def test_waiters_fifo(self):
        env = Environment()
        res = Resource(env)
        order = []

        def worker(env, tag):
            yield res.acquire()
            yield env.timeout(1)
            res.release()
            order.append(tag)

        for tag in range(5):
            env.process(worker(env, tag))
        run(env)
        assert order == [0, 1, 2, 3, 4]


class TestSemaphore:
    def test_wait_after_post_does_not_block(self):
        env = Environment()
        sem = Semaphore(env, value=1)
        times = []

        def proc(env):
            yield sem.wait()
            times.append(env.now)

        env.process(proc(env))
        run(env)
        assert times == [0]

    def test_wait_blocks_until_post(self):
        env = Environment()
        sem = Semaphore(env)
        times = []

        def waiter(env):
            yield sem.wait()
            times.append(env.now)

        def poster(env):
            yield env.timeout(8)
            sem.post()

        env.process(waiter(env))
        env.process(poster(env))
        run(env)
        assert times == [8]

    def test_post_count(self):
        env = Environment()
        sem = Semaphore(env)
        woken = []

        def waiter(env, tag):
            yield sem.wait()
            woken.append(tag)

        for tag in range(3):
            env.process(waiter(env, tag))

        def poster(env):
            yield env.timeout(1)
            sem.post(count=3)

        env.process(poster(env))
        run(env)
        assert woken == [0, 1, 2]


class TestIntrospection:
    """Blocked endpoints, cancel() and flush(): the state the deadlock
    report and the recovery watchdogs are built on."""

    def test_fifo_waiters_reports_blocked_endpoints(self):
        env = Environment()
        fifo = Fifo(env, capacity=1, name="narrow")

        def putter(env):
            yield fifo.put("a")
            yield fifo.put("b")   # blocks: queue is full

        env.process(putter(env))
        run(env)
        assert len(fifo._putters) == 1
        assert not fifo._getters
        assert "narrow" in fifo._putters[0][0].wait_reason

        drained = Fifo(env, name="drained")

        def getter(env):
            yield drained.get()   # blocks: queue is empty

        env.process(getter(env))
        run(env)
        assert not drained._putters
        assert len(drained._getters) == 1
        assert "drained" in drained._getters[0].wait_reason

    def test_fifo_cancel_withdraws_a_pending_get(self):
        env = Environment()
        fifo = Fifo(env)
        event = fifo.get()
        assert fifo.cancel(event) is True
        assert not fifo._getters
        # A second cancel (or cancelling a serviced event) is a no-op.
        assert fifo.cancel(event) is False
        fifo.put("x")
        satisfied = fifo.get()
        assert fifo.cancel(satisfied) is False

    def test_fifo_flush_drops_items_and_putters_keeps_getters(self):
        env = Environment()
        fifo = Fifo(env, capacity=2)

        def putter(env):
            for item in range(4):
                yield fifo.put(item)

        env.process(putter(env))
        run(env)
        assert len(fifo.items) == 2
        assert len(fifo._putters) == 1   # item 2 pending

        assert fifo.flush() == 3   # 2 queued items + 1 blocked putter
        assert not fifo.items
        assert not fifo._putters

        pending_get = fifo.get()
        assert fifo.flush() == 0
        assert list(fifo._getters) == [pending_get]

    def test_resource_waiters_and_cancel(self):
        env = Environment()
        gate = Resource(env, slots=1, name="gate")
        gate.acquire()             # granted immediately
        queued = gate.acquire()    # waits
        assert list(gate._waiters) == [queued]
        assert "gate" in queued.wait_reason
        assert gate.cancel(queued) is True
        assert not gate._waiters
        assert gate.cancel(queued) is False
