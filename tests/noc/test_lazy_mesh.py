"""The lazy mesh against an eager oracle.

``Mesh2D`` creates a link, with its channel, when the first route over
it is resolved, and an ejection queue on its first use. The test keeps
an eager reference: the same mesh with every canonical link and every
inbox created before any traffic, as the mesh was once built. Both are
driven through the same seeded traffic: meshes from 1x1 to 5x4, local
and multi-hop packets, mixed planes and sizes, packets contending for
shared links, with per-link history on and off. Every observable must
match: the clock and the events dispatched, each packet's delivery
cycle, flit-hops per plane, the busiest links, the VCD text and the
metrics exposition of a collector scraped mid-run and at the end. Both
meshes' ``built_links()`` walk their links in canonical order.

It also pins the contract: a fresh mesh holds no link and no queue,
and a packet over ``h`` hops creates exactly its ``h`` links and its
destination queue; and SoCs of one geometry share its read-only
routing tables.
"""

from dataclasses import dataclass
from types import SimpleNamespace
from typing import List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics import (
    attach_metrics,
    register_soc_collectors,
    to_prometheus,
)
from repro.noc import (
    DMA_REQUEST_PLANE,
    Mesh2D,
    MessageKind,
    NocPlane,
    Packet,
)
from repro.noc.routing import route_hops_cached
from repro.runtime import EspRuntime, chain
from repro.sim import Environment
from repro.soc import SoCConfig, build_soc, emit_vcd, soc_builder
from tests.conftest import make_spec
from tests.noc.routing import build_routing_table, routing_tables


class EagerMesh(Mesh2D):
    """The mesh with every link and inbox created at construction."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        for key in self.link_keys():
            self._add_link(key)
        for coord in self.coords():
            for plane in self.planes:
                self._add_inbox(coord, plane)


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


@dataclass(frozen=True)
class Scenario:
    cols: int
    rows: int
    planes: Tuple[NocPlane, ...]
    router_latency: int
    trace_links: bool
    scrape_at: int
    flows: Tuple[Flow, ...]


@st.composite
def scenarios(draw):
    cols = draw(st.integers(1, 5))
    rows = draw(st.integers(1, 4))
    planes = tuple(NocPlane(f"p{index}",
                            flit_bits=draw(st.sampled_from((32, 64))))
                   for index in range(draw(st.integers(1, 3))))
    coord = st.tuples(st.integers(0, cols - 1), st.integers(0, rows - 1))
    # A few hot sources make packets share links.
    sources = draw(st.lists(coord, min_size=1, max_size=3))
    flows = []
    for _ in range(draw(st.integers(1, 16))):
        src = draw(st.sampled_from(sources) | coord)
        dst = src if draw(st.integers(0, 3)) == 0 else draw(coord)
        flows.append(Flow(src=src, dst=dst,
                          plane=draw(st.integers(0, len(planes) - 1)),
                          payload_flits=draw(st.integers(0, 8)),
                          inject_at=draw(st.integers(0, 10))))
    return Scenario(cols=cols, rows=rows, planes=planes,
                    router_latency=draw(st.integers(1, 3)),
                    trace_links=draw(st.booleans()),
                    scrape_at=draw(st.integers(0, 40)),
                    flows=tuple(flows))


def link_rows(links) -> List[tuple]:
    return [(link.src, link.dst, link.plane, link.flits_carried,
             link.packets_carried, link.channel.busy_cycles)
            for link in links]


def reports(mesh, soc, registry) -> dict:
    """Every reader of the mesh's links, as comparable values."""
    # The built links, in canonical order, even after a mid-run scrape
    # walked them before the rest were built.
    assert [key for key, _ in mesh.built_links()] == [
        key for key in mesh.link_keys() if key in mesh.links]
    return {
        "now": mesh.env.now,
        "events": mesh.env.events_processed,
        "flit_hops": mesh.flit_hops,
        "plane_flits": mesh.plane_flits(),
        "vcd": emit_vcd(soc),
        "exposition": to_prometheus(registry),
        "busiest": link_rows(mesh.busiest_links(top=3)),
        "ranking": link_rows(mesh.busiest_links(
            top=len(mesh.link_keys()))),
    }


def simulate(mesh_class, scenario: Scenario) -> dict:
    """Run ``scenario`` on a fresh mesh; return every observable."""
    env = Environment()
    mesh = mesh_class(env, scenario.cols, scenario.rows,
                      planes=scenario.planes,
                      router_latency=scenario.router_latency,
                      trace_links=scenario.trace_links)
    # The bare mesh stands in for a SoC with no accelerators.
    soc = SimpleNamespace(
        name="mesh", env=env, mesh=mesh, accelerators={}, clock_mhz=78.0,
        memory_map=SimpleNamespace(words_read=0, words_written=0))
    registry = attach_metrics(env)
    register_soc_collectors(registry, soc)
    packets = [Packet(src=flow.src, dst=flow.dst,
                      plane=scenario.planes[flow.plane].name,
                      kind=MessageKind.DMA_REQ,
                      payload_flits=flow.payload_flits, tag=f"f{index}")
               for index, flow in enumerate(scenario.flows)]

    def inject():
        for packet, flow in sorted(zip(packets, scenario.flows),
                                   key=lambda pair: pair[1].inject_at):
            if flow.inject_at > env.now:
                yield env.timeout(flow.inject_at - env.now)
            mesh.send(packet)

    env.process(inject())
    env.run(until=scenario.scrape_at)
    mid_run = to_prometheus(registry)
    env.run()
    created = (set(mesh.links), set(mesh._inboxes))
    return {
        "times": [(p.tag, p.injected_at, p.delivered_at) for p in packets],
        "inboxes": {key: [p.tag for p in inbox.items]
                    for key, inbox in mesh._inboxes.items() if inbox.items},
        "mid_run": mid_run,
        "created": created,
        **reports(mesh, soc, registry),
    }


@given(scenario=scenarios())
@settings(max_examples=150, deadline=None)
def test_lazy_mesh_matches_the_eager_oracle(scenario):
    lazy = simulate(Mesh2D, scenario)
    eager = simulate(EagerMesh, scenario)
    links, inboxes = lazy.pop("created")
    eager.pop("created")
    assert lazy == eager
    # The lazy mesh built exactly what the traffic reached.
    assert links == {(a, b, scenario.planes[flow.plane].name)
                     for flow in scenario.flows
                     for a, b in route_hops_cached(flow.src, flow.dst)}
    assert inboxes == {(flow.dst, scenario.planes[flow.plane].name)
                       for flow in scenario.flows}


def test_contended_traffic_matches_the_eager_oracle():
    """Three packets share the (0, 0)->(1, 0) link on ``p0`` from
    cycle 0, one is local, and links tie on flits across planes."""
    planes = (NocPlane("p0"), NocPlane("p1", flit_bits=32))
    flows = (
        Flow((0, 0), (2, 0), 0, 4, 0),
        Flow((0, 0), (1, 1), 0, 2, 0),
        Flow((0, 0), (2, 1), 1, 4, 0),
        Flow((0, 0), (1, 0), 0, 6, 1),
        Flow((1, 1), (1, 1), 0, 3, 2),
        Flow((2, 1), (0, 0), 1, 4, 3),
    )
    scenario = Scenario(cols=3, rows=2, planes=planes, router_latency=2,
                        trace_links=True, scrape_at=9, flows=flows)
    lazy = simulate(Mesh2D, scenario)
    eager = simulate(EagerMesh, scenario)
    assert lazy.pop("created") != eager.pop("created")
    assert lazy == eager
    assert lazy["ranking"][0][:3] == ((0, 0), (1, 0), "p0")


# ---------------------------------------------------------------------------
# Contract
# ---------------------------------------------------------------------------

def test_fresh_mesh_holds_no_link_and_no_queue():
    for cols, rows in ((1, 1), (3, 2), (5, 4)):
        mesh = Mesh2D(Environment(), cols, rows)
        assert mesh.links == {}
        assert mesh._inboxes == {}
        assert list(mesh.built_links()) == []


def test_a_packet_creates_its_route_and_its_destination_queue():
    env = Environment()
    mesh = Mesh2D(env, 5, 4)
    packet = Packet(src=(4, 0), dst=(1, 3), plane=DMA_REQUEST_PLANE,
                    kind=MessageKind.DMA_REQ, payload_flits=2)
    mesh.send(packet)
    env.run()
    hops = route_hops_cached(packet.src, packet.dst)
    assert len(hops) == 6
    assert list(mesh.links) == [(a, b, DMA_REQUEST_PLANE) for a, b in hops]
    assert list(mesh._inboxes) == [((1, 3), DMA_REQUEST_PLANE)]
    inbox = mesh._inboxes[((1, 3), DMA_REQUEST_PLANE)]
    assert inbox.name == f"inbox{(1, 3)}@{DMA_REQUEST_PLANE}"
    assert mesh.inbox((1, 3), DMA_REQUEST_PLANE) is inbox
    # A local packet creates its queue and no link.
    mesh.send(Packet(src=(0, 0), dst=(0, 0), plane="io-irq",
                     kind=MessageKind.IRQ, payload_flits=0))
    env.run()
    assert len(mesh.links) == 6
    assert ((0, 0), "io-irq") in mesh._inboxes


# ---------------------------------------------------------------------------
# A whole SoC
# ---------------------------------------------------------------------------

def soc_config(name="test-soc"):
    """A 4x2 SoC: CPU, memory and two 64-word accelerators."""
    config = SoCConfig(cols=4, rows=2, name=name)
    config.add_cpu((0, 0))
    config.add_memory((1, 0), size_words=1 << 16)
    spec = make_spec(input_words=64, output_words=64)
    for device in ("a0", "a1"):
        config.add_accelerator(config.next_free(), device, spec)
    return config


def run_soc(mesh_class, monkeypatch) -> dict:
    """A 2-stage pipe run on a 4x2 test SoC with link history."""
    monkeypatch.setattr(soc_builder, "Mesh2D", mesh_class)
    soc = build_soc(soc_config(), trace_links=True)
    monkeypatch.undo()
    assert type(soc.mesh) is mesh_class
    registry = attach_metrics(soc)
    register_soc_collectors(registry, soc)
    frames = [[float(i + j) for i in range(64)] for j in range(3)]
    result = EspRuntime(soc).esp_run(chain("a0_a1", ["a0", "a1"]),
                                     frames, mode="pipe")
    return {"cycles": result.cycles,
            "outputs": [list(out) for out in result.outputs],
            **reports(soc.mesh, soc, registry)}


def test_soc_run_matches_the_eager_oracle(monkeypatch):
    lazy = run_soc(Mesh2D, monkeypatch)
    eager = run_soc(EagerMesh, monkeypatch)
    assert lazy == eager
    assert "noc_link_busy_cycles" in lazy["exposition"]
    assert "__to__" in lazy["vcd"]


def test_routing_tables_are_built_once_per_geometry():
    first = build_soc(soc_config("one"))
    second = build_soc(soc_config("two"))
    tables = routing_tables(4, 2)
    assert routing_tables(first.config.cols, first.config.rows) is tables
    assert routing_tables(second.config.cols, second.config.rows) is tables
    assert list(tables) == first.mesh.coords()
    for coord, table in tables.items():
        assert table == build_routing_table(coord, 4, 2)
    with pytest.raises(TypeError):
        tables[(0, 0)][(1, 0)] = (0, 0)
