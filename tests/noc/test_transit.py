"""Packets as events: the callback transmit against a process oracle.

``Mesh2D.send`` returns the packet's delivery event, and transmission
runs as callbacks on the events the wormhole model waits on. The test
keeps a reference generator-based transmit, the process-per-packet
form it replaced, and drives both through the same seeded traffic:
random mesh sizes, planes, packet sizes and injection times, with
local ejection, packets contending for shared links, and a fault
injector that drops or corrupts packets at ejection. Every observable
must match: per-packet injection and delivery cycles, the events
dispatched, per-link flits and busy cycles, inbox order, the order in
which waiters on the returned events and inbox consumers resume, and,
when traced, the NoC spans in the order they begin.

It also pins the deadlock probe: a packet queued on a busy link is
listed by ``blocked_processes`` (and :func:`deadlock_report`) with
the link it waits on, and an uncontended packet is not listed at all. A traced
packet in flight lists its packet span and one span per held link
among the tracer's open spans. And it pins
the allocation contract: an uncontended hop calls no
``Resource.acquire`` and builds no event, and a finished transit
leaves no reference cycle for the collector.
"""

import gc
from dataclasses import dataclass
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.noc import DMA_REQUEST_PLANE, Mesh2D, MessageKind, Packet
from repro.noc.mesh import NocPlane
from repro.sim import Environment, Event, Resource, Timeout
from repro.trace import attach_tracer
from tests.noc.routing import coords


# ---------------------------------------------------------------------------
# Reference: one generator process per packet
# ---------------------------------------------------------------------------


def deadlock_report(env) -> str:
    """Human-readable listing of every blocked process."""
    blocked = env.blocked_processes()
    if not blocked:
        return "no blocked processes"
    lines = []
    for proc, target in blocked:
        reason = getattr(target, "wait_reason", None) or repr(target)
        lines.append(f"process {proc.name!r} blocked on {reason}")
    return "\n".join(lines)


def reference_transmit(mesh, packet):
    """The wormhole transmit as a process: per hop a link acquire and
    a router-latency timeout, then the body timeout, the release of
    every link, the fault hook and the inbox put, with the same trace
    records."""
    env = mesh.env
    packet.injected_at = env.now
    tracer = env.tracer
    sid = None
    kind = packet.kind.name
    if tracer is not None:
        sid = tracer.begin("noc", packet.plane, kind, "noc.packet",
                           src=str(packet.src), dst=str(packet.dst),
                           flits=packet.size_flits)
    if packet.src == packet.dst:
        yield env.timeout(mesh.router_latency)
    else:
        route = mesh.route_links(packet.src, packet.dst, packet.plane)
        held = []
        for link in route:
            yield link.channel.acquire()
            if tracer is not None:
                held.append(tracer.begin(
                    "noc", f"{packet.plane} {link.src}->{link.dst}", kind,
                    "noc.link", flits=packet.size_flits))
            yield env.timeout(mesh.router_latency)
        yield env.timeout(packet.size_flits)
        for index, link in enumerate(route):
            link.flits_carried += packet.size_flits
            link.channel.release()
            if tracer is not None:
                tracer.end(held[index])
    if mesh.fault_injector is not None:
        action = mesh.fault_injector.on_deliver(packet, env.now)
        if action != "ok":
            mesh._retire(packet, "dropped" if action == "drop"
                         else "corrupted", tracer, sid)
            if packet.on_lost is not None:
                packet.on_lost()
            return packet
    packet.delivered_at = env.now
    mesh._retire(packet, "delivered", tracer, sid)
    yield mesh.inbox(packet.dst, packet.plane).put(packet)
    return packet


class ReferenceMesh(Mesh2D):
    """The mesh with the process-per-packet transmit."""

    def send(self, packet):
        self._check(packet.src, packet.plane)
        self._check(packet.dst, packet.plane)
        return self.env.process(reference_transmit(self, packet))


class ScriptedFaults:
    """An ejection fault hook with one scripted action per packet tag."""

    def __init__(self, actions: Dict[str, str]) -> None:
        self.actions = actions
        self.seen: List[Tuple[str, int]] = []

    def on_deliver(self, packet, now):
        self.seen.append((packet.tag, now))
        return self.actions[packet.tag]


# ---------------------------------------------------------------------------
# Traffic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Flow:
    src: Tuple[int, int]
    dst: Tuple[int, int]
    plane: int
    payload_flits: int
    inject_at: int
    wait_after: int     # the waiter yields the send event this late
    action: str         # scripted ejection outcome


@dataclass(frozen=True)
class Scenario:
    cols: int
    rows: int
    planes: int
    router_latency: int
    faults: bool
    traced: bool
    flows: Tuple[Flow, ...]


@st.composite
def scenarios(draw):
    cols = draw(st.integers(1, 4))
    rows = draw(st.integers(1, 3))
    planes = draw(st.integers(1, 2))
    coord = st.tuples(st.integers(0, cols - 1), st.integers(0, rows - 1))
    flows = []
    for _ in range(draw(st.integers(1, 20))):
        src = draw(coord)
        dst = src if draw(st.integers(0, 3)) == 0 else draw(coord)
        flows.append(Flow(
            src=src, dst=dst, plane=draw(st.integers(0, planes - 1)),
            payload_flits=draw(st.integers(0, 6)),
            inject_at=draw(st.integers(0, 12)),
            wait_after=draw(st.integers(0, 30)),
            action=draw(st.sampled_from(("ok", "ok", "drop", "corrupt")))))
    return Scenario(cols=cols, rows=rows, planes=planes,
                    router_latency=draw(st.integers(1, 3)),
                    faults=draw(st.booleans()), traced=draw(st.booleans()),
                    flows=tuple(flows))


def packet_spans(tracer):
    """The NoC spans, in begin order, without their span ids."""
    spans = [span for span in list(tracer.spans) + tracer.open_spans
             if span.cat.startswith("noc.")]
    return [(s.pid, s.tid, s.name, s.cat, s.start, s.end, s.args)
            for s in sorted(spans, key=lambda span: span.sid)]


def simulate(mesh_class, scenario: Scenario) -> dict:
    """Run ``scenario`` on a fresh mesh; return every observable.

    Plane ``p0``'s inboxes are drained by consumers that log each
    packet and then yield a zero-delay timeout, so the order of events
    within a cycle — a consumer's wake-up against a sender's — shows
    in the log. Plane ``p1``'s inboxes keep their packets.
    """
    env = Environment()
    tracer = attach_tracer(env) if scenario.traced else None
    planes = [NocPlane(f"p{index}") for index in range(scenario.planes)]
    mesh = mesh_class(env, scenario.cols, scenario.rows, planes=planes,
                      router_latency=scenario.router_latency)
    faults = None
    if scenario.faults:
        faults = ScriptedFaults({f"f{index}": flow.action
                                 for index, flow in enumerate(scenario.flows)})
        mesh.fault_injector = faults
    packets: List[Packet] = []
    log: List[tuple] = []

    def waiter(event, packet, delay):
        if delay:
            yield env.timeout(delay)
        value = yield event
        log.append(("resumed", packet.tag, env.now, value is packet))

    def consumer(inbox):
        while True:
            packet = yield inbox.get()
            log.append(("consumed", packet.tag, env.now, inbox.name))
            yield env.timeout(0)
            log.append(("after", packet.tag, env.now))

    def inject():
        ordered = sorted(range(len(scenario.flows)),
                         key=lambda index: scenario.flows[index].inject_at)
        for index in ordered:
            flow = scenario.flows[index]
            if flow.inject_at > env.now:
                yield env.timeout(flow.inject_at - env.now)
            packet = packets[index]
            env.process(waiter(mesh.send(packet), packet, flow.wait_after))

    for index, flow in enumerate(scenario.flows):
        tag = f"f{index}"
        packet = Packet(src=flow.src, dst=flow.dst,
                        plane=planes[flow.plane].name,
                        kind=MessageKind.DMA_REQ,
                        payload_flits=flow.payload_flits, tag=tag)
        packet.on_lost = (lambda tag=tag: log.append(("lost", tag,
                                                      env.now)))
        packets.append(packet)
    for coord in coords(mesh):
        env.process(consumer(mesh.inbox(coord, "p0")))
    env.process(inject())
    env.run()
    return {
        "times": [(p.tag, p.injected_at, p.delivered_at) for p in packets],
        "events": env.events_processed,
        "now": env.now,
        "links": {key: (link.flits_carried, link.channel.busy_cycles)
                  for key, link in mesh.links.items()},
        "inboxes": {key: [p.tag for p in mesh.inbox(*key).items]
                    for key in mesh._inboxes},
        "log": log,
        "faults": None if faults is None else faults.seen,
        "outcomes": mesh.outcomes,
        "spans": None if tracer is None else packet_spans(tracer),
    }


@given(scenario=scenarios())
@settings(max_examples=200, deadline=None)
def test_callback_transmit_matches_the_process_oracle(scenario):
    assert simulate(Mesh2D, scenario) == simulate(ReferenceMesh, scenario)


def test_contended_and_lost_traffic_matches_the_process_oracle():
    """A fixed scenario that certainly contends and loses packets: four
    packets share the (0, 0)->(1, 0) link at cycle 0, one is local,
    and the fault hook drops one and corrupts another."""
    flows = (
        Flow((0, 0), (2, 0), 0, 4, 0, 0, "ok"),
        Flow((0, 0), (1, 1), 0, 2, 0, 40, "drop"),
        Flow((0, 0), (2, 1), 0, 0, 0, 0, "corrupt"),
        Flow((0, 0), (1, 0), 0, 6, 1, 5, "ok"),
        Flow((1, 1), (1, 1), 0, 3, 2, 0, "ok"),
        Flow((2, 1), (0, 0), 0, 1, 3, 0, "ok"),
    )
    scenario = Scenario(cols=3, rows=2, planes=1, router_latency=2,
                        faults=True, traced=True, flows=flows)
    result = simulate(Mesh2D, scenario)
    assert result == simulate(ReferenceMesh, scenario)
    shared = [span for span in result["spans"]
              if span[1] == "p0 (0, 0)->(1, 0)"]
    assert len(shared) == 4                     # four packets took it
    assert [entry for entry in result["log"] if entry[0] == "lost"] \
        == [("lost", "f1", 16), ("lost", "f2", 23)]
    # Queued behind f0, f3 is delivered well after its uncontended
    # latency of one hop plus seven flits.
    injected, delivered = result["times"][3][1:]
    assert delivered - injected > 1 * 2 + 7
    assert result["outcomes"] == {"delivered": {"p0": 4},
                                  "dropped": {"p0": 1},
                                  "corrupted": {"p0": 1}}


def test_send_returns_an_event_that_succeeds_with_the_packet():
    env = Environment()
    mesh = Mesh2D(env, 3, 1)
    packet = Packet(src=(0, 0), dst=(2, 0), plane=DMA_REQUEST_PLANE,
                    kind=MessageKind.DMA_REQ, payload_flits=4)
    delivery = mesh.send(packet)
    assert env.run(until=delivery) is packet
    assert packet.latency == 2 * mesh.router_latency + packet.size_flits


# ---------------------------------------------------------------------------
# Deadlock probe
# ---------------------------------------------------------------------------

LINK = "link(0, 0)->(1, 0)@dma-req"


def two_packets_on_one_link():
    env = Environment()
    mesh = Mesh2D(env, 2, 1)
    sends = [mesh.send(Packet(src=(0, 0), dst=(1, 0),
                              plane=DMA_REQUEST_PLANE,
                              kind=MessageKind.DMA_REQ, payload_flits=8))
             for _ in range(2)]
    return env, sends


def test_packet_waiting_on_a_busy_link_is_listed_with_the_link():
    env, (first, second) = two_packets_on_one_link()
    # Mid-flight: the first packet holds the link until cycle 11 (two
    # router cycles, nine flits); the second queues behind it.
    env.run(until=5)
    blocked = env.blocked_processes()
    assert len(blocked) == 1
    entry, target = blocked[0]
    assert entry.is_alive
    assert entry.name.startswith(
        f"packet {entry.packet.packet_id} DMA_REQ (0, 0)->(1, 0)")
    assert target.wait_reason == f"acquire of busy resource {LINK!r}"
    assert deadlock_report(env) == (
        f"process {entry.name!r} blocked on acquire of busy resource "
        f"{LINK!r}")
    env.run()
    assert env.blocked_processes() == []
    assert first.value.delivered_at == 11
    assert second.value.delivered_at == 22


def test_uncontended_packet_is_not_listed():
    env = Environment()
    mesh = Mesh2D(env, 3, 1)
    mesh.send(Packet(src=(0, 0), dst=(2, 0), plane=DMA_REQUEST_PLANE,
                     kind=MessageKind.DMA_REQ, payload_flits=8))
    env.run(until=3)
    assert env.blocked_processes() == []
    assert deadlock_report(env) == "no blocked processes"


# ---------------------------------------------------------------------------
# In-flight spans
# ---------------------------------------------------------------------------

def open_noc_spans(tracer):
    return [(span.cat, span.tid, span.start) for span in tracer.open_spans]


def test_packets_in_flight_list_their_span_and_each_held_link():
    """While a packet is in transit, ``Tracer.open_spans`` holds its
    ``noc.packet`` span and one ``noc.link`` span per link it holds,
    each begun at its grant. Two packets take the same five-link
    route: the first is uncontended, the second queues on the first
    link until the first releases every link at cycle 15."""
    env = Environment()
    tracer = attach_tracer(env)
    mesh = Mesh2D(env, 4, 3)
    sends = [mesh.send(Packet(src=(0, 0), dst=(3, 2),
                              plane=DMA_REQUEST_PLANE,
                              kind=MessageKind.DMA_REQ, payload_flits=4))
             for _ in range(2)]
    route = [f"dma-req {src}->{dst}" for src, dst in (
        ((0, 0), (1, 0)), ((1, 0), (2, 0)), ((2, 0), (3, 0)),
        ((3, 0), (3, 1)), ((3, 1), (3, 2)))]
    packet = ("noc.packet", "dma-req", 0)
    env.run(until=5)
    assert open_noc_spans(tracer) == [packet, packet] + [
        ("noc.link", track, 2 * hop) for hop, track in enumerate(route[:3])]
    env.run(until=25)
    assert open_noc_spans(tracer) == [packet] + [
        ("noc.link", track, 15 + 2 * hop) for hop, track in enumerate(route)]
    env.run()
    assert [send.value.delivered_at for send in sends] == [15, 30]
    assert tracer.open_spans == []


# ---------------------------------------------------------------------------
# Allocation contract: a packet allocates per packet, not per hop
# ---------------------------------------------------------------------------

def counting(monkeypatch, cls, name):
    """Count the calls of ``cls.name`` (still calling through)."""
    calls = []
    original = getattr(cls, name)

    def wrapper(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, wrapper)
    return calls


@pytest.mark.parametrize("hops", range(6))
def test_uncontended_packet_allocates_nothing_per_hop(monkeypatch, hops):
    """Over ``h`` idle links a packet never calls ``Resource.acquire``
    and builds no ``Timeout``: its grants and timeouts re-arm one step
    event. Two events are built whatever ``h``: the step event and the
    inbox put (the transit assigns its own fields)."""
    env = Environment()
    mesh = Mesh2D(env, 6, 1)
    mesh.inbox((hops, 0), DMA_REQUEST_PLANE)
    acquires = counting(monkeypatch, Resource, "acquire")
    timeouts = counting(monkeypatch, Timeout, "__init__")
    events = counting(monkeypatch, Event, "__init__")
    packet = Packet(src=(0, 0), dst=(hops, 0), plane=DMA_REQUEST_PLANE,
                    kind=MessageKind.DMA_REQ, payload_flits=4)
    assert env.run(until=mesh.send(packet)) is packet
    assert acquires == [] and timeouts == []
    assert len(events) == 2
    assert env.events_processed == 2 * hops + 4
    assert packet.latency == (hops * mesh.router_latency + packet.size_flits
                              if hops else mesh.router_latency)


def test_contended_packet_acquires_only_the_busy_link(monkeypatch):
    """A packet queued behind another calls ``Resource.acquire`` once,
    for the busy first link, and is listed by the deadlock probe while
    it waits; the links behind it are free by its grant."""
    env = Environment()
    mesh = Mesh2D(env, 4, 1)
    acquires = counting(monkeypatch, Resource, "acquire")
    sends = [mesh.send(Packet(src=(0, 0), dst=(3, 0),
                              plane=DMA_REQUEST_PLANE,
                              kind=MessageKind.DMA_REQ, payload_flits=8))
             for _ in range(2)]
    env.run(until=5)
    assert [r.name for r in acquires] == [LINK]
    report = deadlock_report(env)
    assert report.startswith(
        f"process 'packet {sends[1].packet.packet_id} DMA_REQ "
        f"(0, 0)->(3, 0)@dma-req' blocked on acquire of busy resource")
    env.run()
    assert len(acquires) == 1
    assert deadlock_report(env) == "no blocked processes"
    assert [s.value.delivered_at for s in sends] == [15, 30]


def test_finished_transits_leave_no_reference_cycle():
    """A transit and its step event refer to each other while the
    packet is in flight; finishing, delivered or lost, drops the
    references, so reference counting frees both and the collector
    finds neither."""
    gc.collect()
    gc.disable()
    try:
        env = Environment()
        mesh = Mesh2D(env, 3, 2)
        mesh.fault_injector = ScriptedFaults(
            {f"f{index}": ("drop" if index % 3 == 2 else "ok")
             for index in range(12)})
        tiles = coords(mesh)
        consumed = []

        def consumer(inbox):
            while True:
                consumed.append((yield inbox.get()))

        for coord in tiles:
            env.process(consumer(mesh.inbox(coord, DMA_REQUEST_PLANE)))
        for index in range(12):
            # Local, one-hop and contended multi-hop packets.
            mesh.send(Packet(src=tiles[index % 2],
                             dst=tiles[(index * 5) % len(tiles)],
                             plane=DMA_REQUEST_PLANE,
                             kind=MessageKind.DMA_REQ, payload_flits=3,
                             tag=f"f{index}"))
        env.run()
        assert len(consumed) == 8 and mesh.packets_dropped == 4
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = [obj for obj in gc.garbage if isinstance(obj, Event)]
        assert leaked == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
