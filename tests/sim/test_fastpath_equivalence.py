"""Randomized equivalence of the optimized engine vs reference code.

The calendar-queue simulation kernel, the channel primitives, the NoC
route caches and the fixed-point quantizer all carry fast paths that
must be **observably identical** to the straightforward reference
implementations they replaced (see ``docs/performance.md``). Each
test here reconstructs the reference behaviour — the seed's
single-heap scheduler, the succeed()-based channels, the uncached
route walk, the divide/clip quantizer — and drives both sides through
the same randomized, seeded scenarios, comparing every observable:
dispatch order, timestamps, values delivered, grant order, counters,
raw codes, final clock.

These tests are the executable form of the ordering proof in
``repro.sim.kernel``'s module docstring: if the calendar buckets, the
batched dispatch loop or the fast-forward ever diverged from
single-heap order, the interleavings below — including pathological
same-cycle storms and long idle gaps — would catch it.
"""

import heapq
import itertools
import random

import numpy as np
import pytest

from repro.fixed import FixedFormat
from repro.noc.routing import hop_count, route_hops_cached
from repro.sim import Environment, Fifo, Resource, Semaphore
from repro.sim.kernel import (DeadlockError, Event, SimulationError,
                              StopSimulation)
from tests.noc.routing import xy_route
from tests.sim.fifo import try_put


# ---------------------------------------------------------------------------
# Reference scheduler: the seed's single-heap kernel, self-contained
# ---------------------------------------------------------------------------

class _HeapReady:
    """A ``_ready`` stand-in that routes every append to the heap.

    The optimized ``Environment`` sends zero-delay triggers to a FIFO
    deque (``Event.succeed`` and the channel fast paths append to
    ``env._ready`` directly). Substituting this object restores the
    seed semantics exactly: every append becomes a ``(now, sequence,
    event)`` heap push, and the deque always reads as empty.
    """

    __slots__ = ("env",)

    def __init__(self, env):
        self.env = env

    def append(self, event):
        heapq.heappush(self.env._heap,
                       (self.env._now, next(self.env._eid), event))

    def __bool__(self):
        return False

    def __len__(self):
        return 0


class ReferenceEnvironment(Environment):
    """The seed kernel: one binary heap of ``(time, seq, event)``.

    A complete, independent scheduler implementation — storage
    (``_heap`` + global sequence counter), ``peek``, per-event
    ``step`` and a peek/step ``run`` loop — serving as the oracle for
    the calendar-queue + batched-dispatch + fast-forward engine. It
    shares only the Event/Process/channel layer with the optimized
    kernel, which is exactly the surface whose observable behaviour
    the equivalence tests pin.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._heap = []
        self._eid = itertools.count()
        self._ready = _HeapReady(self)

    def _schedule(self, event, delay=0):
        heapq.heappush(self._heap,
                       (self._now + delay, next(self._eid), event))

    def peek(self):
        return self._heap[0][0] if self._heap else float("inf")

    def step(self):
        if not self._heap:
            raise SimulationError("step() on an empty schedule")
        when, _, event = heapq.heappop(self._heap)
        self._now = when
        self.events_processed += 1
        callbacks = event.callbacks
        event.callbacks = None
        for callback in callbacks:
            callback(event)
        if not event._ok and not getattr(event, "__sim_defused__", False):
            raise event._value

    def run(self, until=None):
        stop_event = None
        stop_time = None
        if isinstance(until, Event):
            stop_event = until
            if stop_event.processed:
                return stop_event.value

            def _stop(event):
                raise StopSimulation

            stop_event.callbacks.append(_stop)
        elif until is not None:
            stop_time = int(until)
            if stop_time < self._now:
                raise ValueError(
                    f"until={stop_time} is in the past (now={self._now})")
        try:
            while self._heap:
                if stop_time is not None and self._heap[0][0] > stop_time:
                    self._now = stop_time
                    return None
                self.step()
        except StopSimulation:
            if not stop_event.ok:
                raise stop_event.value
            return stop_event.value
        finally:
            if stop_event is not None and stop_event.callbacks \
                    and _stop in stop_event.callbacks:
                stop_event.callbacks.remove(_stop)
        if stop_event is not None and not stop_event.triggered:
            raise DeadlockError(
                "run(until=event) drained the schedule before the event "
                "triggered", blocked=self.blocked_processes())
        if stop_time is not None:
            self._now = stop_time
        return None


# ---------------------------------------------------------------------------
# Scenario machinery: the same random program on both kernels
# ---------------------------------------------------------------------------

def _run_scenario(env_cls, seed):
    """A randomized mix of timeouts, FIFOs, resources and semaphores.

    Returns the observable trace: every action is recorded as
    ``(time, actor, action, detail)`` in dispatch order, which pins
    both *when* things happen and *in which order* within a cycle.
    """
    rng = random.Random(seed)
    env = env_cls()
    trace = []

    n_workers = rng.randint(2, 5)
    fifo = Fifo(env, capacity=rng.randint(1, 3), name="f")
    unbounded = Fifo(env, name="u")
    resource = Resource(env, slots=rng.randint(1, 2), name="r")
    sem = Semaphore(env, value=rng.randint(0, 2), name="s")

    def producer(pid, n_items):
        for index in range(n_items):
            delay = rng.randint(0, 3)
            if delay:
                yield env.timeout(delay)
            item = (pid, index)
            yield fifo.put(item)
            trace.append((env.now, f"prod{pid}", "put", item))
            if rng.random() < 0.4:
                unbounded.put((pid, index, "u"))
                trace.append((env.now, f"prod{pid}", "uput", index))

    def consumer(cid, n_items):
        for _ in range(n_items):
            if rng.random() < 0.3:
                yield env.timeout(rng.randint(0, 2))
            got = yield fifo.get()
            trace.append((env.now, f"cons{cid}", "get", got))
            if rng.random() < 0.5:
                yield resource.acquire()
                trace.append((env.now, f"cons{cid}", "acq", None))
                yield env.timeout(rng.randint(0, 2))
                resource.release()
                trace.append((env.now, f"cons{cid}", "rel", None))

    def signaller(sid, rounds):
        for index in range(rounds):
            yield env.timeout(rng.randint(0, 2))
            if rng.random() < 0.5:
                sem.post()
                trace.append((env.now, f"sig{sid}", "post", index))
            else:
                yield sem.wait()
                trace.append((env.now, f"sig{sid}", "wait", index))
        # Leave no waiter stranded: top the semaphore up.
        sem.post(rounds)

    total = 0
    for pid in range(n_workers):
        n_items = rng.randint(1, 6)
        total += n_items
        env.process(producer(pid, n_items), name=f"prod{pid}")
    per_consumer = total // 2
    env.process(consumer(0, per_consumer), name="cons0")
    env.process(consumer(1, total - per_consumer), name="cons1")
    env.process(signaller(0, rng.randint(1, 4)), name="sig0")
    env.process(signaller(1, rng.randint(1, 4)), name="sig1")

    env.run()
    stats = (env.now, env.events_processed,
             fifo.total_puts, fifo.total_gets,
             unbounded.total_puts, resource.total_acquisitions)
    return trace, stats


@pytest.mark.parametrize("seed", range(25))
def test_kernel_matches_single_heap_reference(seed):
    """Calendar-queue scheduler == seed single-heap scheduler.

    Identical programs must produce identical dispatch traces — same
    events, same timestamps, same intra-cycle order — and identical
    event counts (``events_processed`` increments once per dispatched
    event on both engines; batching must not add to or elide it).
    """
    opt_trace, opt_stats = _run_scenario(Environment, seed)
    ref_trace, ref_stats = _run_scenario(ReferenceEnvironment, seed)
    assert opt_trace == ref_trace
    assert opt_stats == ref_stats


def _run_storm_scenario(env_cls, seed):
    """Pathological same-cycle storm: wide zero-delay fan-outs.

    Every round, every worker wakes at the *same* cycle (identical
    delays), fires a burst of immediate FIFO handshakes and semaphore
    posts, and chains a cascade of zero-delay events — the worst case
    for the calendar engine, where one bucket plus a long deque tail
    must still replay exactly the single-heap order.
    """
    rng = random.Random(seed)
    env = env_cls()
    trace = []
    fifo = Fifo(env, name="storm")
    sem = Semaphore(env, value=0, name="storm-sem")
    n_workers = rng.randint(4, 10)
    rounds = rng.randint(3, 6)
    burst = rng.randint(2, 6)

    def chain(wid, index, depth):
        # A cascade of immediately-triggered events: each link lands
        # behind everything already in flight at this cycle.
        for hop in range(depth):
            event = Event(env)
            event.succeed((wid, index, hop))
            got = yield event
            trace.append((env.now, wid, "chain", got))

    def worker(wid):
        for round_no in range(rounds):
            # Identical delay for every worker: all wake-ups collide
            # on one calendar bucket.
            yield env.timeout(5)
            for index in range(burst):
                fifo.put((wid, round_no, index))
                trace.append((env.now, wid, "put", index))
            sem.post(burst)
            env.process(chain(wid, round_no, rng.randint(1, 4)),
                        name=f"chain{wid}.{round_no}")
            for index in range(burst):
                yield sem.wait()
                got = yield fifo.get()
                trace.append((env.now, wid, "got", got))

    for wid in range(n_workers):
        env.process(worker(wid), name=f"w{wid}")
    env.run()
    return trace, (env.now, env.events_processed,
                   fifo.total_puts, fifo.total_gets)


@pytest.mark.parametrize("seed", range(15))
def test_same_cycle_storm_matches_reference(seed):
    """Same-cycle storms: batched bucket dispatch == single heap."""
    opt = _run_storm_scenario(Environment, seed)
    ref = _run_storm_scenario(ReferenceEnvironment, seed)
    assert opt == ref


def _run_idle_gap_scenario(env_cls, seed):
    """Sparse wake-ups separated by long idle gaps, driven by run(until).

    The driver advances the clock in randomized slices (landing inside
    gaps, exactly on wake-up cycles, and far beyond the last event),
    which exercises the fast-forward path against the reference
    kernel's peek-based clock advance. The returned trace includes the
    observed clock after every slice.
    """
    rng = random.Random(seed)
    env = env_cls()
    trace = []
    gaps = [rng.choice([1, 7, 10_000, 1_000_000]) for _ in range(6)]

    def sparse(pid):
        for index, gap in enumerate(gaps):
            yield env.timeout(gap + pid)
            trace.append((env.now, pid, index))

    for pid in range(rng.randint(1, 3)):
        env.process(sparse(pid), name=f"sparse{pid}")

    horizon = sum(gaps) + 10
    slices = sorted(rng.randint(0, horizon + 2_000_000)
                    for _ in range(8))
    for target in slices:
        if target >= env.now:
            env.run(until=target)
            trace.append(("clock", env.now))
    env.run()
    return trace, (env.now, env.events_processed)


@pytest.mark.parametrize("seed", range(15))
def test_long_idle_gaps_match_reference(seed):
    """Fast-forward across idle spans == reference clock advance."""
    opt = _run_idle_gap_scenario(Environment, seed)
    ref = _run_idle_gap_scenario(ReferenceEnvironment, seed)
    assert opt == ref


@pytest.mark.parametrize("env_cls", [Environment, ReferenceEnvironment])
def test_failure_mid_cycle_leaves_rest_of_cycle_dispatchable(env_cls):
    """An unhandled failure aborts run() without losing queued events.

    The batched dispatch loop must leave the undispatched remainder of
    the cycle in the schedule, so a caller that catches the error can
    resume and both kernels agree on what still happens.
    """
    env = env_cls()
    order = []

    def boomer():
        yield env.timeout(3)
        raise RuntimeError("boom")

    def bystander(bid):
        yield env.timeout(3)
        order.append((env.now, bid))

    env.process(bystander(0))
    env.process(boomer(), name="boomer")
    env.process(bystander(1))
    with pytest.raises(RuntimeError, match="boom"):
        env.run()
    env.run()   # the rest of cycle 3 must still dispatch
    assert order == [(3, 0), (3, 1)]


def fast_forward(env, cycle: int) -> None:
    """Jump the clock to ``cycle`` without dispatching anything.

    O(1). Legal only when the span ``(now, cycle]`` is provably
    empty of scheduled work — no ready event and no calendar
    bucket at or before ``cycle``; in the event-driven model that
    *is* the proof that nothing happens in the span (every state
    change is the callback of a scheduled event, and an idle NoC
    link or a parked single waiter cannot spontaneously generate
    one). Raises :class:`SimulationError` when the precondition
    does not hold, so a coordinator cannot silently skip work.
    """
    if cycle < env._now:
        raise ValueError(
            f"fast_forward to {cycle} is in the past (now={env._now})")
    if env._ready or (env._times and env._times[0] <= cycle):
        raise SimulationError(
            f"fast_forward({cycle}) would skip a scheduled event")
    env._now = cycle


def test_fast_forward_requires_empty_span():
    """fast_forward() refuses to skip over scheduled work."""
    def ticker(env):
        yield env.timeout(5)

    env = Environment()
    env.process(ticker(env), name="ticker")
    env.run(until=4)    # ticker due at 5
    fast_forward(env, 4)             # no-op jump to the present is fine
    with pytest.raises(SimulationError):
        fast_forward(env, 5)         # would swallow the tick
    with pytest.raises(ValueError):
        fast_forward(env, 2)         # the past is off limits
    env.run(until=5)
    assert env.now == 5
    fast_forward(env, 1_000_000)     # schedule is empty: O(1) jump
    assert env.now == 1_000_000


def test_zero_delay_orders_after_due_heap_entries():
    """The deque drains *after* heap entries due at the same time.

    This is the corner of the ordering argument: a timeout scheduled
    earlier for time t must dispatch before a zero-delay trigger fired
    at time t, because its sequence number is older. Both kernels must
    agree.
    """

    def scenario(env_cls):
        env = env_cls()
        order = []

        def waker(event):
            yield env.timeout(5)        # scheduled at t=0, due t=5
            event.succeed()             # zero-delay trigger at t=5
            order.append((env.now, "woke"))

        def sleeper(event):
            yield event
            order.append((env.now, "resumed"))

        def bystander():
            yield env.timeout(5)        # also due at t=5, pushed later
            order.append((env.now, "bystander"))

        event = Event(env)
        env.process(waker(event))
        env.process(sleeper(event))
        env.process(bystander())
        env.run()
        return order

    optimized = scenario(Environment)
    reference = scenario(ReferenceEnvironment)
    assert optimized == reference
    # The bystander's timeout entered the heap before the succeed()
    # fired, so it must resume before the sleeper.
    assert optimized.index((5, "bystander")) \
        < optimized.index((5, "resumed"))


# ---------------------------------------------------------------------------
# Channel fast paths vs reference (seed) channel implementations
# ---------------------------------------------------------------------------

class ReferenceFifo(Fifo):
    """The seed's ``Fifo``: property-based full check, eager drain,
    and every completion routed through ``Event.succeed`` instead of
    the inlined value-assign + ready-append fast path."""

    def put(self, item):
        event = Event(self.env)
        if not self.is_full and not self._putters:
            self._accept(item)
            event.succeed()
        else:
            event.wait_reason = f"put on full fifo {self.name!r}"
            self._putters.append((event, item))
        return event

    def get(self):
        event = Event(self.env)
        if self.items:
            event.succeed(self.items.popleft())
            self.total_gets += 1
            self._drain_putters()
        else:
            event.wait_reason = f"get on empty fifo {self.name!r}"
            self._getters.append(event)
        return event

    def _accept(self, item):
        self.total_puts += 1
        if self._getters:
            self._getters.popleft().succeed(item)
            self.total_gets += 1
        else:
            self.items.append(item)

    def _drain_putters(self):
        while self._putters and not self.is_full:
            event, item = self._putters.popleft()
            self._accept(item)
            event.succeed()


def _drive_fifo(fifo_cls, seed):
    """Random blocking/non-blocking traffic through one FIFO."""
    rng = random.Random(seed)
    env = Environment()
    fifo = fifo_cls(env, capacity=rng.randint(1, 3), name="f")
    log = []

    def producer(n):
        for index in range(n):
            if rng.random() < 0.3:
                accepted = try_put(fifo, ("t", index))
                log.append((env.now, "try_put", accepted))
                if not accepted:
                    # Fall back to blocking so exactly n items flow
                    # (the consumer counts on all of them arriving).
                    yield fifo.put(("t", index))
                    log.append((env.now, "put_retry", index))
            else:
                yield fifo.put(("b", index))
                log.append((env.now, "put", index))
            if rng.random() < 0.4:
                yield env.timeout(rng.randint(0, 2))

    def consumer(n):
        taken = 0
        while taken < n:
            if rng.random() < 0.3:
                item = fifo.try_get()
                log.append((env.now, "try_get", item))
                if item is None:
                    yield env.timeout(1)
                    continue
            else:
                item = yield fifo.get()
                log.append((env.now, "get", item))
            taken += 1

    n_items = rng.randint(4, 12)
    env.process(producer(n_items), name="prod")
    env.process(consumer(n_items), name="cons")
    env.run()
    return log, (fifo.total_puts, fifo.total_gets, list(fifo.items))


@pytest.mark.parametrize("seed", range(25))
def test_fifo_fast_path_matches_reference(seed):
    """Inlined put/get fast paths == seed Fifo, op for op.

    Covers the waiter/no-waiter boundary on both sides: puts into a
    full queue behind queued putters, gets racing try_gets, and drain
    cascades when space frees.
    """
    opt = _drive_fifo(Fifo, seed)
    ref = _drive_fifo(ReferenceFifo, seed)
    assert opt == ref


@pytest.mark.parametrize("seed", range(10))
def test_resource_grant_order_is_fifo(seed):
    """Grants follow request order exactly, regardless of hold times."""
    rng = random.Random(seed)
    env = Environment()
    resource = Resource(env, slots=rng.randint(1, 2), name="r")
    requests = []
    grants = []

    def holder(hid):
        yield env.timeout(rng.randint(0, 3))
        requests.append(hid)
        yield resource.acquire()
        grants.append(hid)
        yield env.timeout(rng.randint(0, 3))
        resource.release()

    n_holders = rng.randint(3, 8)
    for hid in range(n_holders):
        env.process(holder(hid), name=f"h{hid}")
    env.run()
    assert grants == requests
    assert resource.total_acquisitions == n_holders
    assert resource.in_use == 0


# ---------------------------------------------------------------------------
# Route caches vs the uncached walk
# ---------------------------------------------------------------------------

def _uncached_xy_route(src, dst):
    """The original (pre-cache) XY walk, verbatim."""
    path = [src]
    x, y = src
    dst_x, dst_y = dst
    step_x = 1 if dst_x > x else -1
    while x != dst_x:
        x += step_x
        path.append((x, y))
    step_y = 1 if dst_y > y else -1
    while y != dst_y:
        y += step_y
        path.append((x, y))
    return path


@pytest.mark.parametrize("seed", range(5))
def test_cached_routes_match_uncached_walk(seed):
    """Memoized routes == fresh walks for random pairs, repeated.

    Re-queries each pair to make sure a cache *hit* returns the same
    route as the miss that populated it (determinism is what makes the
    cache sound).
    """
    rng = random.Random(seed)
    pairs = [((rng.randrange(8), rng.randrange(8)),
              (rng.randrange(8), rng.randrange(8)))
             for _ in range(50)]
    for _ in range(2):   # second pass: all hits
        for src, dst in pairs:
            expected = _uncached_xy_route(src, dst)
            assert xy_route(src, dst) == expected
            assert route_hops_cached(src, dst) == tuple(
                zip(expected[:-1], expected[1:]))
            assert hop_count(src, dst) == len(expected) - 1


def test_route_results_are_fresh_lists():
    """Callers may mutate returned routes without corrupting the cache."""
    route = xy_route((0, 0), (3, 2))
    route.append(("poison", "poison"))
    assert xy_route((0, 0), (3, 2))[-1] == (3, 2)


# ---------------------------------------------------------------------------
# Fixed-point fast path vs the divide/clip reference
# ---------------------------------------------------------------------------

def _reference_to_raw(fmt, values):
    """The seed quantizer: divide, floor, clip — no in-place tricks."""
    values = np.asarray(values, dtype=np.float64)
    raw = np.floor(values / fmt.scale).astype(np.int64)
    return np.clip(raw, fmt.raw_min, fmt.raw_max)


@pytest.mark.parametrize("seed", range(10))
def test_to_raw_matches_reference_on_random_formats(seed):
    """Multiply-by-reciprocal + in-place clamp == divide + clip.

    Random formats (width, integer bits, signedness), random values
    spanning in-range, boundary and far-out-of-range — the raw codes
    must agree bit for bit (the reciprocal of a power of two is exact,
    so only the float exponent differs mid-computation).
    """
    rng = np.random.default_rng(seed)
    width = int(rng.integers(2, 33))
    signed = bool(rng.integers(0, 2))
    integer_bits = int(rng.integers(1 if signed else 0, width + 1))
    fmt = FixedFormat(width=width, integer_bits=integer_bits,
                      signed=signed)
    lo, hi = fmt.raw_min * fmt.scale, fmt.raw_max * fmt.scale
    span = max(abs(lo), abs(hi), fmt.scale)
    values = np.concatenate([
        rng.uniform(-2 * span, 2 * span, 64),       # straddles the range
        rng.uniform(-span / 4, span / 4, 64),       # well inside
        np.array([0.0, lo, hi, hi + fmt.scale, lo - fmt.scale]),
    ])
    np.testing.assert_array_equal(
        fmt.to_raw(values), _reference_to_raw(fmt, values))
    # The scalar (0-d) path takes a separate branch; check it too.
    for value in values[:8]:
        assert fmt.to_raw(value) == _reference_to_raw(fmt, value)


def test_quantize_is_idempotent():
    """quantize(quantize(x)) == quantize(x) — the invariant behind the
    layer-parameter cache in ``repro.hls4ml_flow.hls_model``."""
    rng = np.random.default_rng(7)
    for fmt in (FixedFormat(16, 6), FixedFormat(8, 8, signed=False),
                FixedFormat(12, 4), FixedFormat(10, 3)):
        values = rng.uniform(-100, 100, 256)
        once = fmt.quantize(values)
        np.testing.assert_array_equal(fmt.quantize(once), once)


def test_ufixed64_falls_back_to_generic_path():
    """ap_ufixed<64> raw_max exceeds int64; the generic branch handles
    it the same way the seed did."""
    fmt = FixedFormat(width=64, integer_bits=64, signed=False)
    values = np.array([0.0, 1.0, 2.0 ** 62, -5.0])
    np.testing.assert_array_equal(
        fmt.to_raw(values), _reference_to_raw(fmt, values))
