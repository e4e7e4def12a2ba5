"""Blocking channels and resources on top of the simulation kernel.

These model the hardware queues of the ESP platform: the shallow FIFOs
in the accelerator wrapper, the NoC input/output queues, and exclusive
resources such as a NoC link.

Invariants
----------

The channel primitives uphold these properties, which both the
platform model and the kernel's scheduling fast paths rely on:

1. **Blocking-put backpressure.** A ``Fifo.put`` on a full queue does
   not drop, overwrite, or reorder: the putter's event stays pending
   until space frees, and stalls propagate *upstream only* — this is
   the hardware backpressure that makes the p2p consumption assumption
   hold (a producer blocks locally rather than parking a long packet
   in the NoC).
2. **FIFO service order.** Items leave a ``Fifo`` in insertion order;
   blocked putters, getters, resource waiters and semaphore waiters
   are all served strictly first-come-first-served. Grant order is
   therefore a deterministic function of request order.
3. **Immediate-completion fast path.** When an operation can complete
   without waiting (put with space and no queued putter, get with an
   item, acquire with a free slot), its event is triggered *at the
   call site* and dispatched through the kernel's zero-delay ready
   queue in scheduling order — no calendar traffic, and by the
   kernel's ordering contract (see :mod:`repro.sim.kernel`) at exactly
   the position a delayed trigger would have had. These sites assign
   the event value and append to ``env._ready`` directly instead of
   calling ``Event.succeed`` — the event was created (or dequeued from
   a waiter list) in the same expression, so the double-trigger guard
   is statically dead; the write is what ``succeed`` would have done.
   Operation latency in simulated time is always 0 cycles either way;
   only who-waits-on-whom is modelled.
4. **Conservation.** ``total_puts``/``total_gets`` count accepted
   handshakes exactly once, including fast-path completions, so
   queue-occupancy accounting balances under any interleaving
   (``tests/noc/test_conservation.py``).

Randomized equivalence tests against a reference implementation
(``tests/sim/test_fastpath_equivalence.py``) pin properties 2 and 3,
including the waiter/no-waiter boundary cases.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional

from .kernel import Environment, Event, SimulationError


class Fifo:
    """A bounded FIFO with blocking put/get, like a hardware queue.

    ``capacity`` of ``None`` means unbounded (used for software-side
    queues where backpressure is modelled elsewhere).
    """

    def __init__(self, env: Environment, capacity: Optional[int] = None,
                 name: str = "fifo") -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.items: Deque[Any] = deque()
        self._putters: Deque[tuple] = deque()   # (event, item)
        self._getters: Deque[Event] = deque()
        self.total_puts = 0
        self.total_gets = 0

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self.items) >= self.capacity

    def put(self, item: Any) -> Event:
        """Enqueue ``item``; the returned event triggers when accepted."""
        event = Event(self.env)
        # Fast path: space available and no putter queued ahead — accept
        # and trigger immediately (invariant 3; the is_full property is
        # inlined as this runs once per NoC/PLM handshake).
        if not self._putters and (self.capacity is None
                                  or len(self.items) < self.capacity):
            self._accept(item)
            event._value = None
            self.env._ready.append(event)
        else:
            event.wait_reason = f"put on full fifo {self.name!r}"
            self._putters.append((event, item))
        return event

    def get(self) -> Event:
        """Dequeue one item; the returned event triggers with the item."""
        event = Event(self.env)
        if self.items:
            event._value = self.items.popleft()
            self.env._ready.append(event)
            self.total_gets += 1
            if self._putters:
                self._drain_putters()
        else:
            event.wait_reason = f"get on empty fifo {self.name!r}"
            self._getters.append(event)
        return event

    def cancel(self, event: Event) -> bool:
        """Withdraw a pending put/get event (watchdog gave up on it).

        Returns True when the event was found and removed; False when
        it was not waiting (already serviced, or never queued here).
        """
        for index, pending in enumerate(self._getters):
            if pending is event:
                del self._getters[index]
                return True
        for index, (pending, _) in enumerate(self._putters):
            if pending is event:
                del self._putters[index]
                return True
        return False

    def try_get(self) -> Any:
        """Non-blocking get; returns None when the queue is empty."""
        if not self.items:
            return None
        item = self.items.popleft()
        self.total_gets += 1
        self._drain_putters()
        return item

    def flush(self) -> int:
        """Discard queued items (hardware reset of the queue).

        Pending putters are dropped too: their events stay pending
        forever, which models an aborted producer that was abandoned
        mid-handshake. Blocked getters are kept — a live server keeps
        waiting for fresh data. Returns the number of discarded items.
        """
        dropped = len(self.items) + len(self._putters)
        self.items.clear()
        self._putters.clear()
        return dropped

    def _accept(self, item: Any) -> None:
        self.total_puts += 1
        if self._getters:
            # A queued getter is pending by construction (triggered
            # events never sit in the waiter deques), so the inline
            # trigger of invariant 3 applies here too.
            getter = self._getters.popleft()
            getter._value = item
            self.env._ready.append(getter)
            self.total_gets += 1
        else:
            self.items.append(item)

    def _drain_putters(self) -> None:
        while self._putters and not self.is_full:
            event, item = self._putters.popleft()
            self._accept(item)
            event._value = None
            self.env._ready.append(event)


class Resource:
    """An exclusive resource with ``slots`` concurrent holders.

    The channel of a NoC link (one slot per plane direction,
    :class:`~repro.noc.link.Link`), created with the link on its
    first use.
    """

    def __init__(self, env: Environment, slots: int = 1,
                 name: str = "resource") -> None:
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        self.env = env
        self.slots = slots
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        # Utilization accounting.
        self._busy_since: Optional[int] = None
        self.busy_cycles = 0

    def acquire(self) -> Event:
        """Request a slot; the event triggers when the slot is granted."""
        event = Event(self.env)
        if self.claim():
            # A fresh acquire event is pending by construction — inline
            # trigger (invariant 3).
            event._value = None
            self.env._ready.append(event)
        else:
            event.wait_reason = f"acquire of busy resource {self.name!r}"
            self._waiters.append(event)
        return event

    def cancel(self, event: Event) -> bool:
        """Withdraw a pending acquire (it will never be granted)."""
        for index, pending in enumerate(self._waiters):
            if pending is event:
                del self._waiters[index]
                return True
        return False

    def release(self) -> None:
        """Return a previously granted slot."""
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        self._in_use -= 1
        if self._in_use == 0 and self._busy_since is not None:
            self.busy_cycles += self.env._now - self._busy_since
            self._busy_since = None
        if self._waiters:
            self._grant(self._waiters.popleft())

    def claim(self) -> bool:
        """Take a free slot at once, without an acquire event.

        Returns False, changing nothing, when every slot is held. On
        True the caller holds the slot as if an immediate
        :meth:`acquire` had granted it, with the same bookkeeping; a
        caller that stands for the grant with an event of its own
        appends it to the ready queue at once, where the acquire event
        would have gone. The NoC grants each hop's link this way.
        """
        if self._in_use >= self.slots:
            return False
        if self._in_use == 0:
            self._busy_since = self.env._now
        self._in_use += 1
        return True

    def _grant(self, event: Event) -> None:
        """Hand a freed slot to a dequeued waiter, which is pending by
        construction — inline trigger (invariant 3)."""
        self.claim()
        event._value = None
        self.env._ready.append(event)

    def utilization(self, elapsed: Optional[int] = None) -> float:
        """Fraction of a window the resource was held at least once.

        The window is the trailing ``elapsed`` cycles ending now (the
        whole run when ``elapsed`` is ``None``). Busy time is tracked
        over the resource's lifetime, so against a shorter window it is
        clamped to the window — the result is always in ``[0, 1]``,
        with 1.0 meaning "held for at least the whole window".
        """
        busy = self.busy_cycles
        if self._busy_since is not None:
            busy += self.env.now - self._busy_since
        span = elapsed if elapsed is not None else self.env.now
        if span <= 0:
            return 0.0
        return min(busy, span) / span


class Semaphore:
    """A counting semaphore for producer/consumer synchronization."""

    def __init__(self, env: Environment, value: int = 0,
                 name: str = "semaphore") -> None:
        if value < 0:
            raise ValueError(f"initial value must be >= 0, got {value}")
        self.env = env
        self.name = name
        self._value = value
        self._waiters: Deque[Event] = deque()

    @property
    def value(self) -> int:
        return self._value

    def post(self, count: int = 1) -> None:
        """Increment, waking waiters in FIFO order."""
        for _ in range(count):
            if self._waiters:
                self._waiters.popleft().succeed()
            else:
                self._value += 1

    def wait(self) -> Event:
        """Decrement; the event triggers once the count allows it."""
        event = Event(self.env)
        if self._value > 0:
            self._value -= 1
            event.succeed()
        else:
            event.wait_reason = f"wait on semaphore {self.name!r}"
            self._waiters.append(event)
        return event


class ProgressCounter:
    """A monotonically increasing counter with threshold waits.

    Models "frames completed" progress that consumers wait on
    (pthread-condition style): ``wait_until(n)`` triggers once the
    counter reaches ``n``.

    Named apart from the metrics/tracer counter concepts: a
    :class:`repro.metrics.Counter` is pure telemetry and never wakes
    anyone.
    """

    def __init__(self, env: Environment, value: int = 0,
                 name: str = "counter") -> None:
        self.env = env
        self.name = name
        self._value = value
        self._waiters: List[tuple] = []   # (threshold, event)

    @property
    def value(self) -> int:
        return self._value

    def increment(self, by: int = 1) -> None:
        if by < 1:
            raise ValueError(f"increment must be >= 1, got {by}")
        self._value += by
        ready = [w for w in self._waiters if w[0] <= self._value]
        self._waiters = [w for w in self._waiters if w[0] > self._value]
        for _, event in ready:
            event.succeed(self._value)

    def wait_until(self, threshold: int) -> Event:
        event = Event(self.env)
        if self._value >= threshold:
            event.succeed(self._value)
        else:
            event.wait_reason = (f"wait_until({threshold}) on counter "
                                 f"{self.name!r} (value={self._value})")
            self._waiters.append((threshold, event))
        return event
