"""The multi-plane 2D-mesh NoC.

An M x N grid of tiles connected by bi-directional links on several
independent planes (paper Sec. II): three coherence planes, two DMA
planes (requests and responses decoupled to prevent deadlock — the
queues the p2p service later reuses), and one IO/IRQ plane.

The timing model is wormhole switching at packet granularity: the head
flit acquires each link of the XY route in order (head-of-line blocking
and contention emerge from the link resources), each router adds a
fixed pipeline latency, and the body serializes for ``size_flits``
cycles. End-to-end latency of an uncontended packet is the textbook
``hops * router_latency + size_flits``.

A packet in flight is an event, not a process: :meth:`Mesh2D.send`
returns the packet's delivery event, and the transmission runs as
callbacks on the link grants and timeouts it waits on.

The mesh builds only what traffic reaches: a link, with its channel,
is created when the first route over it is resolved, and an ejection
queue on its first use. Readers visit the built links in one canonical
order (:meth:`Mesh2D.built_links`); a link never created is idle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple

from ..sim import Environment, Event, Fifo
from ..sim.kernel import PENDING
from .link import Link
from .packet import Coord, Packet
from .routing import route_hops_cached, validate_coord


@dataclass(frozen=True)
class NocPlane:
    """One NoC plane: a full set of mesh links of a given width."""

    name: str
    flit_bits: int = 64

    def __post_init__(self) -> None:
        if self.flit_bits < 8:
            raise ValueError(f"flit_bits must be >= 8, got {self.flit_bits}")


#: ESP's six-plane configuration (Fig. 2): planes 1-3 carry the cache
#: coherence protocol, planes 4-5 are the accelerators' DMA response /
#: request planes, plane 6 carries IO and interrupts.
DEFAULT_PLANES = (
    NocPlane("coh-req"),
    NocPlane("coh-fwd"),
    NocPlane("coh-rsp"),
    NocPlane("dma-rsp"),
    NocPlane("dma-req"),
    NocPlane("io-irq", flit_bits=32),
)

#: The two planes allotted to accelerator DMA (paper Sec. II).
DMA_REQUEST_PLANE = "dma-req"
DMA_RESPONSE_PLANE = "dma-rsp"
IO_PLANE = "io-irq"

#: The three cache-coherence planes (Fig. 2 planes 1-3). Idle under
#: non-coherent and LLC-coherent DMA; the fully-coherent accelerator
#: model (:mod:`repro.soc.coherence`) carries its MESI-style protocol
#: on them: requests, forwarded invalidations, and responses (grants,
#: acks and writebacks) on decoupled planes to prevent deadlock.
COH_REQUEST_PLANE = "coh-req"
COH_FORWARD_PLANE = "coh-fwd"
COH_RESPONSE_PLANE = "coh-rsp"

#: A directed link's key: its source and destination tiles and plane.
LinkKey = Tuple[Coord, Coord, str]


@lru_cache(maxsize=64)
def canonical_link_keys(cols: int, rows: int,
                        planes: Tuple[str, ...]) -> Tuple[LinkKey, ...]:
    """Every directed link of a ``cols`` x ``rows`` mesh on ``planes``,
    in the canonical order the link readers report them in: tiles
    column-major, the east then the south neighbour, the planes in
    order, the forward then the backward direction. Shared by every
    mesh of the geometry."""
    tiles = [[(x, y) for y in range(rows)] for x in range(cols)]
    keys = []
    for x in range(cols):
        for y in range(rows):
            for nx, ny in ((x + 1, y), (x, y + 1)):
                if nx >= cols or ny >= rows:
                    continue
                a, b = tiles[x][y], tiles[nx][ny]
                for plane in planes:
                    keys.append((a, b, plane))
                    keys.append((b, a, plane))
    return tuple(keys)


#: How a packet leaves the mesh: ejected, lost in flight, or discarded
#: by the link-level CRC.
PACKET_OUTCOMES = ("delivered", "dropped", "corrupted")


#: The category of the span a packet's hop over a link reads back as.
LINK_CAT = "noc.link"


def link_track(key: LinkKey) -> str:
    """The trace track of a link's ``noc.link`` spans."""
    src, dst, plane = key
    return f"{plane} {src}->{dst}"


@lru_cache(maxsize=4096)
def _trace_labels(src: Coord, dst: Coord,
                  plane: str) -> Tuple[str, str, Tuple[str, ...]]:
    """The trace labels of a route, formatted on its first traced
    packet: the src and dst tiles, and one track name per link."""
    hops = route_hops_cached(src, dst)
    return (str(src), str(dst),
            tuple(link_track((a, b, plane)) for a, b in hops))


#: What a transit's step event means when it is dispatched: the
#: packet is injected, a link was granted, the router latency after a
#: grant elapsed, the body drained (or, for a local packet, the one
#: router traversal ended), or the ejection-queue put was accepted.
_INJECT, _GRANTED, _ADVANCE, _EJECT, _DELIVERED = range(5)


class _Transit(Event):
    """A packet in flight: the event :meth:`Mesh2D.send` returns.

    Transmission is a chain of callbacks, one per event the wormhole
    model waits on: the injection event, then per hop the link grant
    and a ``router_latency`` timeout, then the body timeout, the
    release of every link, the fault hook and the ejection-queue put.
    The transit itself succeeds with the packet when the put is
    dispatched, or at release for a packet lost at ejection. A packet
    over ``h`` links therefore dispatches ``2h + 4`` events, and a
    local one four.

    The injection, the uncontended grants and the timeouts are one
    event, ``step``, built with the transit and re-armed for each of
    them: its callback list is the one-element ``calls``, built once,
    and ``phase`` says what the next dispatch means. A grant pushes
    ``step`` into the ready queue where the acquire event would have
    gone (:meth:`Resource.claim`); a timeout goes through
    ``Environment._schedule``. Only a grant on a busy link waits on an
    acquire event, and the packet is then listed for the deadlock
    probe. So a hop allocates nothing; a packet allocates its transit,
    the step event with its callback list and bound method, and the
    inbox put.

    The in-flight state lives in the slots: the route, the index of
    the next link to acquire and, when traced, the packet's span id
    and the hops its record carries. ``step`` and ``calls`` refer back
    to the transit, so it drops them when it finishes, delivered or
    lost, and reference counting frees it.
    """

    __slots__ = ("mesh", "packet", "route", "hop", "tracer", "sid",
                 "hops", "step", "calls", "phase")

    def __init__(self, mesh: "Mesh2D", packet: Packet) -> None:
        # The Event fields are assigned directly, as Timeout does: one
        # transit is built per packet.
        env = mesh.env
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self.mesh = mesh
        self.packet = packet
        self.phase = _INJECT
        calls = self.calls = [self._on_step]
        step = self.step = Event(env)
        step._value = None
        step.callbacks = calls
        env._ready.append(step)

    def _on_step(self, event: Event) -> None:
        """The step event (or a contended grant) was dispatched: take
        the next step of the wormhole model. The per-hop steps run
        here; injection, ejection and delivery once per packet."""
        phase = self.phase
        step = self.step
        if phase == _GRANTED:
            # The head holds the link: one router traversal.
            tracer = self.tracer
            if tracer is not None:
                self.hops.append((self.env._now, tracer.next_sid()))
            self.phase = _ADVANCE
            step.callbacks = self.calls
            self.env._schedule(step, self.mesh.router_latency)
            return
        if phase != _ADVANCE:
            if phase == _INJECT:
                if self._inject():
                    return
            elif phase == _EJECT:
                self._eject()
                return
            else:
                self._finish()
                self.succeed(self.packet)
                return
        # Request the next link of the route, or, with the head at the
        # destination, let the body drain behind it.
        hop = self.hop
        route = self.route
        if hop < len(route):
            self.hop = hop + 1
            self.phase = _GRANTED
            channel = route[hop].channel
            if channel.claim():
                step.callbacks = self.calls
                self.env._ready.append(step)
            else:
                # Contended: wait on an acquire event, and list the
                # packet for the deadlock probe while it queues on the
                # busy link.
                grant = channel.acquire()
                grant.callbacks.append(self.calls[0])
                self.env._register_process(_LinkWait(self.packet, grant))
        else:
            # The hold is a single multi-cycle timeout per link set —
            # the whole serialized body in one event, never one event
            # per flit (see docs/performance.md).
            self.phase = _EJECT
            step.callbacks = self.calls
            self.env._schedule(step, self.packet.size_flits)

    def _inject(self) -> bool:
        """Stamp the injection and resolve the route. Returns True for
        a local packet, whose one router traversal is then scheduled;
        a routed one goes on to request its first link."""
        env = self.env
        mesh = self.mesh
        packet = self.packet
        packet.injected_at = env._now
        tracer = self.tracer = env.tracer
        self.sid = None
        if tracer is not None:
            src, dst, tracks = _trace_labels(packet.src, packet.dst,
                                             packet.plane)
            # A granted hop appends (grant cycle, sid): a LINK_CAT span.
            hops = self.hops = []
            self.sid = tracer.begin(
                "noc", packet.plane, packet.kind._name_, "noc.packet",
                (LINK_CAT, tracks, {"flits": packet.size_flits}, hops),
                src=src, dst=dst, flits=packet.size_flits)
        if packet.src == packet.dst:
            # Local ejection: no links, one router traversal.
            self.route = ()
            self.phase = _EJECT
            self.step.callbacks = self.calls
            env._schedule(self.step, mesh.router_latency)
            return True
        self.route = mesh.route_links(packet.src, packet.dst, packet.plane)
        self.hop = 0
        return False

    def _eject(self) -> None:
        """Release every held link (none for a local packet), then
        eject: the fault hook, the outcome count and the inbox put."""
        env = self.env
        mesh = self.mesh
        packet = self.packet
        tracer = self.tracer
        size_flits = packet.size_flits
        for link in self.route:
            link.flits_carried += size_flits
            link.channel.release()
        if mesh.fault_injector is not None:
            # Delivery faults strike after the wormhole released every
            # link, so a lost packet never leaves a stuck channel: the
            # loss is visible only as a missing ejection (and a
            # watchdog timeout at whoever was waiting for it). A
            # corrupted payload is caught by the link-level CRC at
            # ejection and discarded — detected, never delivered.
            action = mesh.fault_injector.on_deliver(packet, env._now)
            if action != "ok":
                mesh._retire(packet, "dropped" if action == "drop"
                             else "corrupted", tracer, self.sid)
                if packet.on_lost is not None:
                    packet.on_lost()
                self._finish()
                self.succeed(packet)
                return
        packet.delivered_at = env._now
        mesh._retire(packet, "delivered", tracer, self.sid)
        inbox = mesh._inboxes.get((packet.dst, packet.plane))
        if inbox is None:
            inbox = mesh._add_inbox(packet.dst, packet.plane)
        self.phase = _DELIVERED
        inbox.put(packet).callbacks.append(self.calls[0])

    def _finish(self) -> None:
        """Drop the step event and the callback list, which refer back
        to the transit (see :meth:`Process._finish`)."""
        self.step = self.calls = None


class _LinkWait:
    """A packet queued on a busy link, as the deadlock probe lists it.

    Carries the ``name``, ``target`` and ``is_alive`` that
    :meth:`Environment.blocked_processes` reads from a process. One is
    registered only when a link acquire does not grant at once, and it
    is dead from the grant on.
    """

    __slots__ = ("packet", "target")

    def __init__(self, packet: Packet, target: Event) -> None:
        self.packet = packet
        self.target = target

    @property
    def name(self) -> str:
        packet = self.packet
        return (f"packet {packet.packet_id} {packet.kind._name_} "
                f"{packet.src}->{packet.dst}@{packet.plane}")

    @property
    def is_alive(self) -> bool:
        return self.target._value is PENDING


class Mesh2D:
    """The NoC instance: links, ejection queues and transmission."""

    def __init__(self, env: Environment, cols: int, rows: int,
                 planes: Iterable[NocPlane] = DEFAULT_PLANES,
                 router_latency: int = 2) -> None:
        if cols < 1 or rows < 1:
            raise ValueError(f"mesh must be at least 1x1, got {cols}x{rows}")
        if router_latency < 1:
            raise ValueError(
                f"router_latency must be >= 1, got {router_latency}")
        self.env = env
        self.cols = cols
        self.rows = rows
        planes = tuple(planes)
        self.planes: Dict[str, NocPlane] = {p.name: p for p in planes}
        if len(self.planes) < len(planes):
            raise ValueError("duplicate plane names")
        self.router_latency = router_latency

        # Links and ejection queues are created on first use (route
        # resolution and inbox lookup): an XY route touches few links,
        # and three of the six planes carry only coherence traffic.
        # Creating one schedules nothing, so timing is unaffected.
        # ``links`` holds the created links in creation order;
        # ``built_links()`` lists them in canonical order, sorted again
        # only after a link is built.
        self.links: Dict[LinkKey, Link] = {}
        self._built: Optional[Tuple[Tuple[LinkKey, Link], ...]] = ()
        self._inboxes: Dict[Tuple[Coord, str], Fifo] = {}

        # Hop table: (src, dst, plane) -> the Link objects of the XY
        # route, resolved once (on first traffic, which creates the
        # route's missing links) instead of a route computation plus
        # per-hop dict lookups on every packet. Sound because XY routes
        # are immutable (see repro.noc.routing) and a link, once
        # created, stays for the lifetime of the mesh.
        self._route_links: Dict[Tuple[Coord, Coord, str],
                                Tuple[Link, ...]] = {}

        # Endpoint validation cache: (coord, plane) pairs already
        # checked. The geometry and planes are immutable, so a pair that
        # validated once validates forever — send() then costs two set
        # probes instead of re-running the bounds/plane checks per
        # packet.
        self._checked: set = set()

        # Hardware counters: packets per ejection outcome and plane
        # (flit-hops live on the links themselves).
        self.outcomes: Dict[str, Dict[str, int]] = {
            outcome: {} for outcome in PACKET_OUTCOMES}

        # Fault hook: a FaultInjector consulted at packet ejection
        # (None by default — the hook then costs nothing and timing is
        # identical to a fault-free build).
        self.fault_injector = None

    # -- topology helpers --------------------------------------------------

    def inbox(self, coord: Coord, plane: str) -> Fifo:
        """The ejection queue of ``coord`` on ``plane``, created on
        first use."""
        inbox = self._inboxes.get((coord, plane))
        if inbox is None:
            self._check(coord, plane)
            inbox = self._add_inbox(coord, plane)
        return inbox

    def link_keys(self) -> Tuple[LinkKey, ...]:
        """Every link key of the mesh, created or not, in canonical
        order (see :func:`canonical_link_keys`)."""
        return canonical_link_keys(self.cols, self.rows,
                                   tuple(self.planes))

    def built_links(self) -> Tuple[Tuple[LinkKey, Link], ...]:
        """The links traffic built, with their keys, in canonical
        order (an idle link is absent)."""
        if self._built is None:
            links = self.links
            self._built = tuple((key, links[key]) for key in
                                self.link_keys() if key in links)
        return self._built

    def flit_bits(self, plane: str) -> int:
        return self.planes[plane].flit_bits

    def _check(self, coord: Coord, plane: str) -> None:
        if (coord, plane) in self._checked:
            return
        validate_coord(coord, self.cols, self.rows)
        if plane not in self.planes:
            raise ValueError(
                f"unknown plane {plane!r}; options: {sorted(self.planes)}")
        self._checked.add((coord, plane))

    def route_links(self, src: Coord, dst: Coord,
                    plane: str) -> Tuple[Link, ...]:
        """The links of the XY route from ``src`` to ``dst`` on ``plane``,
        created on the route's first resolution.

        Memoized per mesh; the tuple is shared, callers must not
        mutate link state except through the link API.
        """
        key = (src, dst, plane)
        links = self._route_links.get(key)
        if links is None:
            route = []
            for a, b in route_hops_cached(src, dst):
                link = self.links.get((a, b, plane))
                if link is None:
                    link = self._add_link((a, b, plane))
                route.append(link)
            links = self._route_links[key] = tuple(route)
        return links

    # The two creating helpers: the only places a link or an ejection
    # queue is built.

    def _add_link(self, key: LinkKey) -> Link:
        link = self.links[key] = Link(self.env, *key)
        self._built = None
        return link

    def _add_inbox(self, coord: Coord, plane: str) -> Fifo:
        inbox = self._inboxes[(coord, plane)] = Fifo(
            self.env, name=f"inbox{coord}@{plane}")
        return inbox

    # -- transmission -------------------------------------------------------

    def send(self, packet: Packet) -> Event:
        """Inject ``packet``; the returned event succeeds with the
        packet at delivery (or, for a packet lost at ejection, once its
        links are released)."""
        checked = self._checked
        plane = packet.plane
        if (packet.src, plane) not in checked:
            self._check(packet.src, plane)
        if (packet.dst, plane) not in checked:
            self._check(packet.dst, plane)
        return _Transit(self, packet)

    def _retire(self, packet: Packet, outcome: str, tracer,
                sid: Optional[int]) -> None:
        """Count one packet outcome and close its span: the mesh's one
        bookkeeping site per packet."""
        counts = self.outcomes[outcome]
        counts[packet.plane] = counts.get(packet.plane, 0) + 1
        if sid is not None:
            tracer.end(sid, outcome=outcome)

    # -- statistics ----------------------------------------------------------

    @property
    def packets_delivered(self) -> int:
        return sum(self.outcomes["delivered"].values())

    @property
    def packets_dropped(self) -> int:
        return sum(self.outcomes["dropped"].values())

    @property
    def packets_corrupted(self) -> int:
        return sum(self.outcomes["corrupted"].values())

    @property
    def flit_hops(self) -> int:
        return sum(link.flits_carried for link in self.links.values())

    def busiest_links(self, top: int = 5) -> List[Link]:
        """The ``top`` links by flits carried, ties in canonical order.

        Idle links rank as carrying nothing; one that makes the cut
        without having been created is created here.
        """
        links = self.links

        def flits(key: LinkKey) -> int:
            link = links.get(key)
            return 0 if link is None else link.flits_carried

        ranked = sorted(self.link_keys(), key=flits, reverse=True)[:top]
        return [links[key] if key in links else self._add_link(key)
                for key in ranked]

    def plane_flits(self) -> Dict[str, int]:
        """Flit-hops per plane (shows DMA planes carrying p2p traffic)."""
        out = {name: 0 for name in self.planes}
        for link in self.links.values():
            out[link.plane] += link.flits_carried
        return out
