"""Discrete-event simulation kernel.

This is the substrate under the whole ESP4ML reproduction: the NoC, the
tile sockets, the DMA engines and the software runtime all run as
coroutine processes scheduled by an :class:`Environment`.

The design follows the classic event-queue/coroutine pattern (as in
SimPy): a *process* is a generator that yields :class:`Event` objects;
when a yielded event triggers, the process resumes with the event's
value. Time is an integer cycle count, which matches the hardware
semantics of the simulated SoC (one unit == one clock cycle).

Scheduling order contract
-------------------------

Events scheduled for the same simulated time are processed in
scheduling order (FIFO). The scheduler is a **calendar queue** (hash
bucket per occupied cycle) rather than the seed's single binary heap:

- ``_ready`` — a plain deque holding every event due *now*, in FIFO
  (= scheduling) order. Zero-delay triggers (``succeed``, ``fail``,
  ``timeout(0)``) append here directly; advancing the clock moves a
  whole calendar bucket here at once (batched dispatch).
- ``_buckets`` — a dict mapping an absolute due cycle to the list of
  events scheduled for it, each list in push order. Enqueue is O(1):
  one dict probe plus a list append — no tuple allocation, no sequence
  number, no log-n sift.
- ``_times`` — a min-heap over the *distinct occupied cycles* of
  ``_buckets``. A cycle is pushed once, when its bucket is created, so
  heap traffic scales with distinct wake-up times, not with events
  (same-cycle storms cost one heap entry total).

Why this is bit-identical to the seed's single ``(time, sequence,
event)`` heap:

1. A delayed event's ``delay`` is >= 1, so nothing is ever added to
   the bucket of the *current* cycle; and the clock only advances when
   ``_ready`` is empty. Therefore, when the clock reaches cycle ``t``,
   bucket ``t`` is frozen and ``_ready`` is empty.
2. The bucket's list order is push order — exactly the order the
   seed's sequence numbers would have imposed among events due at
   ``t`` — and every bucket entry was pushed *before* the clock
   reached ``t``, so under the seed's heap all of them sort before any
   zero-delay event triggered *at* ``t``. Draining the bucket first
   and appending zero-delay triggers behind it reproduces that order.
3. The deque itself preserves FIFO order for the zero-delay tail.

So the calendar schedule and the seed schedule dispatch the same
events in the same order at the same times — see
``docs/performance.md`` for the full cost model and
``tests/sim/test_fastpath_equivalence.py`` for the randomized
cross-check against a reference single-heap kernel (including
same-cycle storms and long idle gaps).

Batched dispatch and fast-forward
---------------------------------

``run()`` drains events in *cycle batches*: advancing the clock moves
the whole calendar bucket into the ready deque in one operation and
dispatches it inline, without re-entering ``step()`` per
event — the stop-time comparison happens once per distinct cycle, not
once per event. When the next occupied cycle lies beyond the ``until``
horizon, :meth:`Environment.run` **fast-forwards**: it sets the clock
to the horizon in O(1), skipping the whole idle span. This is sound
for the event-driven model by construction — a span with no scheduled
event is a span in which provably nothing happens (no link transfer,
no process wake-up), because every state change in this kernel is the
callback of a scheduled event.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Dict, Generator, Iterable, List, \
    Optional, Tuple


class SimulationError(Exception):
    """Raised for kernel-level misuse (double trigger, bad yield, ...)."""


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    ``cause`` carries whatever the interrupter passed to
    :meth:`Process.interrupt` (e.g. the reason for an abort).
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class DeadlockError(SimulationError):
    """The schedule drained while the awaited event stayed pending.

    This is how a hardware deadlock (a wedged p2p queue, a lost
    packet, a mis-programmed pipeline) surfaces: instead of hanging the
    event loop, the kernel reports **which processes are blocked on
    which resources** so the failure is diagnosable.
    """

    def __init__(self, message: str,
                 blocked: Optional[List[Tuple["Process", "Event"]]] = None
                 ) -> None:
        self.blocked = list(blocked or [])
        if self.blocked:
            lines = [message, "blocked processes:"]
            for proc, target in self.blocked:
                reason = getattr(target, "wait_reason", None) \
                    or repr(target)
                lines.append(f"  - process {proc.name!r} blocked on "
                             f"{reason}")
            message = "\n".join(lines)
        super().__init__(message)


class StopSimulation(Exception):
    """Raised internally to end :meth:`Environment.run` early."""


PENDING = object()


class Event:
    """A one-shot occurrence at a point in simulated time.

    An event starts *pending*, is *triggered* with a value (or an
    exception) exactly once, and then has its callbacks run by the
    environment. Processes wait on events by yielding them.

    Events are the unit currency of the simulation — a pipelined run
    allocates one per FIFO handshake, resource grant and timeout — so
    the class is slotted: no per-instance ``__dict__``, which roughly
    halves allocation cost and memory. The two attributes that other
    layers attach dynamically (``wait_reason`` for deadlock reports,
    ``__sim_defused__`` for absorbed failures) are declared as slots.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok",
                 "wait_reason", "__sim_defused__")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok = True

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled with a value."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True unless the event failed with an exception."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise SimulationError("value of a pending event is not available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._value = value
        self.env._ready.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to raise in waiters."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at t={self.env.now}>"


class Timeout(Event):
    """An event that triggers automatically after a fixed delay.

    Timeouts are the hottest event constructor (every modelled latency
    is one), so ``__init__`` assigns the :class:`Event` fields directly
    instead of chaining through ``Event.__init__``; scheduling still
    goes through :meth:`Environment._schedule`, the single overridable
    enqueue point.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: int, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.env = env
        self.callbacks = []
        self._ok = True
        self._value = value
        self.delay = delay
        env._schedule(self, delay)


class Process(Event):
    """A running coroutine; also an event that triggers on completion.

    The wrapped generator yields events. The process resumes when the
    yielded event triggers; a failed event raises inside the generator
    (and aborts the process if unhandled). The generator's return value
    becomes the process event's value.

    ``_resume_cb``/``_send``/``_throw`` cache the bound methods used on
    every resume (one per dispatched event), so the hot loop does no
    repeated bound-method allocation or attribute lookups. The cached
    ``_resume`` refers back to the process, so :meth:`_finish` drops
    all three on termination: a finished process is then freed by
    reference counting, without waiting for the cyclic collector.
    """

    __slots__ = ("_generator", "_target", "name", "_created_at",
                 "_resume_cb", "_send", "_throw")

    def __init__(self, env: "Environment",
                 generator: Generator[Event, Any, Any],
                 name: Optional[str] = None) -> None:
        super().__init__(env)
        try:
            self._send = generator.send
            self._throw = generator.throw
        except AttributeError:
            raise TypeError(f"{generator!r} is not a generator") from None
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        self._created_at = env.now
        self._resume_cb = self._resume
        env._register_process(self)
        # Bootstrap: resume once at the current time.
        init = Event(env)
        init._value = None
        env._schedule(init)
        init.callbacks.append(self._resume_cb)

    @property
    def is_alive(self) -> bool:
        return self._value is PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently blocked on (if any)."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Abort the process by raising :class:`Interrupt` inside it.

        The process is detached from whatever event it was waiting on
        and resumed with the exception at its current ``yield``. An
        unhandled interrupt kills the process quietly instead of
        crashing the event loop — the executor uses this to cancel
        zombie pipeline threads when a run is aborted for graceful
        degradation.
        """
        if not self.is_alive:
            return
        if self._target is not None \
                and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
        self._target = None
        self.__sim_defused__ = True  # type: ignore[attr-defined]
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event.__sim_defused__ = True  # type: ignore[attr-defined]
        self.env._schedule(event)
        event.callbacks.append(self._resume_cb)

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return (f"<{type(self).__name__} {self.name!r} {state} "
                f"at t={self.env.now}>")

    def _finish(self) -> None:
        self._resume_cb = self._send = self._throw = None

    def _resume(self, event: Event) -> None:
        env = self.env
        send = self._send
        while True:
            try:
                if event._ok:
                    target = send(event._value)
                else:
                    # The generator gets a chance to handle the failure;
                    # receiving it here defuses the original event so the
                    # kernel does not crash on it a second time.
                    event.__sim_defused__ = True  # type: ignore[attr-defined]
                    target = self._throw(event._value)
            except StopIteration as stop:
                self._finish()
                if env.tracer is not None:
                    env.tracer.complete(
                        "sim", "processes", self.name, "sim.process",
                        self._created_at, env.now, outcome="done")
                self.succeed(getattr(stop, "value", None))
                return
            except BaseException as exc:
                # The process dies; waiters (if any) observe the failure
                # through this process event. If nobody defuses it, the
                # exception surfaces from the dispatch loop.
                self._finish()
                if env.tracer is not None:
                    env.tracer.complete(
                        "sim", "processes", self.name, "sim.process",
                        self._created_at, env.now, outcome="failed",
                        error=type(exc).__name__)
                self.fail(exc)
                return

            if not isinstance(target, Event):
                raise SimulationError(
                    f"process yielded a non-event: {target!r}")
            if target.callbacks is None:
                # Already processed: loop and resume immediately.
                event = target
                continue
            self._target = target
            target.callbacks.append(self._resume_cb)
            return


class Condition(Event):
    """Composite event over several sub-events (all-of / any-of)."""

    __slots__ = ("_events", "_evaluate", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event],
                 evaluate: Callable[[List[Event], int], bool]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._evaluate = evaluate
        self._count = 0
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            if event.processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event.ok:
                # A sub-event failed after the condition resolved (e.g.
                # a pipeline thread interrupted once its plan already
                # aborted): the condition delivered its value long ago,
                # so absorb the straggler instead of crashing the loop.
                event.__sim_defused__ = True  # type: ignore[attr-defined]
            return
        if not event.ok:
            defused_source = getattr(event, "__sim_defused__", False)
            event.__sim_defused__ = True  # type: ignore[attr-defined]
            self.fail(event.value)
            if defused_source:
                # The failure was defused at its source (an interrupted
                # process); if the condition's waiter has given up too,
                # re-raising through the condition must stay quiet.
                self.__sim_defused__ = True  # type: ignore[attr-defined]
            return
        self._count += 1
        if self._evaluate(self._events, self._count):
            self.succeed({e: e.value for e in self._events if e.processed})


class AllOf(Condition):
    """Triggers once every sub-event has triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, events, lambda evs, count: count >= len(evs))


class AnyOf(Condition):
    """Triggers as soon as any sub-event triggers."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, events, lambda evs, count: count >= 1)


class Environment:
    """Execution environment: calendar event queue plus the clock.

    Scheduling structures (see the module docstring for the ordering
    argument):

    - ``_ready`` — deque of events due at the current cycle, FIFO.
    - ``_buckets`` — absolute cycle -> list of events, push-ordered.
    - ``_times`` — min-heap over the distinct keys of ``_buckets``.

    Subclasses that need different storage (the reference single-heap
    oracle in the equivalence tests) override ``_schedule``, ``step``
    and ``run``; ``Event.succeed`` additionally appends to
    ``_ready`` directly, so such subclasses substitute ``_ready`` with
    a shim object exposing ``append``/``__bool__``/``__len__``.
    """

    def __init__(self, initial_time: int = 0) -> None:
        self._now = initial_time
        #: Events awaiting dispatch at the current cycle, in FIFO
        #: (= scheduling) order: zero-delay triggers land here at the
        #: call site, and advancing the clock moves a whole calendar
        #: bucket here in one operation.
        self._ready: deque = deque()
        #: Calendar: absolute due cycle -> push-ordered event list.
        self._buckets: Dict[int, List[Event]] = {}
        #: Min-heap of the distinct occupied cycles (one entry per
        #: bucket, pushed at bucket creation).
        self._times: List[int] = []
        self._processes: List[Process] = []
        self._prune_at = 64
        #: Events dispatched so far (one increment per event) — the
        #: numerator of the events/second throughput metric reported by
        #: ``benchmarks/bench_perf.py``.
        self.events_processed = 0
        #: Optional cycle-level tracer (see :mod:`repro.trace`). ``None``
        #: keeps every instrumentation site on its one-comparison path.
        self.tracer = None
        #: Optional live metrics registry (see :mod:`repro.metrics`).
        #: Same contract as the tracer: ``None`` means every
        #: instrumentation site pays one attribute load and a pointer
        #: compare; attached recording never schedules events.
        self.metrics = None

    @property
    def now(self) -> int:
        """Current simulated time (clock cycles)."""
        return self._now

    # -- event factories -------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any],
                name: Optional[str] = None) -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- process bookkeeping (deadlock diagnosis) ------------------------

    def _register_process(self, process: "Process") -> None:
        self._processes.append(process)
        if len(self._processes) > self._prune_at:
            self._processes = [p for p in self._processes if p.is_alive]
            self._prune_at = max(64, 2 * len(self._processes))

    def blocked_processes(self) -> List[Tuple["Process", Event]]:
        """Alive processes and the events they are blocked on.

        The substrate of the deadlock detector: when the schedule
        drains with work outstanding, this names who is stuck where
        (channel wait events carry a ``wait_reason`` attribute naming
        the resource). Any registered entry with a ``name``, a
        ``target`` and an ``is_alive`` is listed like a process: the
        NoC registers one for a packet queued on a busy link.
        """
        self._processes = [p for p in self._processes if p.is_alive]
        return [(p, p.target) for p in self._processes
                if p.target is not None]

    # -- scheduling / running --------------------------------------------

    def _schedule(self, event: Event, delay: int = 0) -> None:
        """Enqueue ``event`` after ``delay`` cycles (0 = this cycle).

        O(1) amortized: a dict probe and a list append; the heap is
        touched only when a cycle becomes occupied for the first time.
        """
        if delay:
            when = self._now + delay
            buckets = self._buckets
            bucket = buckets.get(when)
            if bucket is None:
                buckets[when] = [event]
                heappush(self._times, when)
            else:
                bucket.append(event)
        else:
            self._ready.append(event)

    def step(self) -> None:
        """Process the next scheduled event.

        When the current cycle's ready deque is empty, the clock
        advances to the next occupied cycle and that whole calendar
        bucket moves to the deque (batched dispatch); bucket entries
        dispatch before any zero-delay event triggered at the new
        cycle — see the module docstring for why this order is
        bit-identical to the seed's single heap.
        """
        ready = self._ready
        if not ready:
            times = self._times
            if not times:
                raise SimulationError("step() on an empty schedule")
            when = heappop(times)
            self._now = when
            ready.extend(self._buckets.pop(when))
        event = ready.popleft()
        self.events_processed += 1
        callbacks = event.callbacks
        event.callbacks = None
        for callback in callbacks:
            callback(event)
        if not event._ok and not getattr(event, "__sim_defused__", False):
            raise event._value

    def run(self, until: Optional[Any] = None) -> Any:
        """Run until the queue drains, a time is reached, or an event fires.

        ``until`` may be ``None`` (drain), an integer time, or an
        :class:`Event` whose value is returned when it triggers.

        The loop dispatches in cycle batches: one clock advance moves
        the whole calendar bucket into the ready deque, and the
        stop-time horizon is compared once per *distinct cycle*, never
        per event. When the next occupied cycle lies beyond the
        horizon, the clock fast-forwards to the horizon in O(1) — a
        lockstep coordinator advancing an idle instance costs one
        comparison and one assignment, regardless of the span length.
        """
        stop_event: Optional[Event] = None
        stop_time: Optional[int] = None
        if isinstance(until, Event):
            stop_event = until
            if stop_event.processed:
                return stop_event.value

            def _stop(event: Event) -> None:
                raise StopSimulation

            stop_event.callbacks.append(_stop)
        elif until is not None:
            stop_time = int(until)
            if stop_time < self._now:
                raise ValueError(
                    f"until={stop_time} is in the past (now={self._now})")

        ready = self._ready
        times = self._times
        buckets = self._buckets
        try:
            while True:
                if not ready:
                    if not times:
                        break
                    when = times[0]
                    if stop_time is not None and when > stop_time:
                        # Fast-forward: nothing is scheduled in
                        # (now, stop_time] — jump straight there.
                        self._now = stop_time
                        return None
                    heappop(times)
                    self._now = when
                    ready.extend(buckets.pop(when))
                event = ready.popleft()
                self.events_processed += 1
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok \
                        and not getattr(event, "__sim_defused__", False):
                    raise event._value
        except StopSimulation:
            assert stop_event is not None
            if not stop_event.ok:
                raise stop_event.value
            return stop_event.value
        finally:
            # If an unrelated exception (or a drain) exits this run
            # before the stop event processes, its _stop callback must
            # not stay armed — it would raise a stray StopSimulation
            # out of a *later* run() call.
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
