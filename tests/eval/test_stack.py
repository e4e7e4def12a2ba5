"""The stack spec: JSON round trip, one assembly, fresh fault copies.

A :class:`StackSpec` is plain data: it must come back from its JSON
text (:func:`to_json`, :func:`from_json`) equal, with
every tuple still a tuple, and the spec and its round trip must build
stacks that run the serve trace identically. Building and running a
stack must not change the spec: the fault injector counts firings on
copies of the spec's :class:`FaultSpec` objects.
"""

import hashlib
import json
from dataclasses import fields, is_dataclass, replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.control import ControlConfig
from repro.eval.stack import StackSpec, TenantSpec, build_stack, soc1_tenants
from repro.faults import FaultSpec, RecoveryPolicy
from repro.serve import ServerConfig
from tests.metrics.test_identity import SPEC
from tests.specs import build_trace


def to_json(spec: StackSpec) -> str:
    """The spec as JSON; init fields only (no ``FaultSpec.fired``)."""
    return json.dumps(_plain(spec), sort_keys=True)


def from_json(text: str) -> StackSpec:
    data = _tuples(json.loads(text))

    def load(kind, value):
        return None if value is None else kind(**value)

    return StackSpec(**{
        **data,
        "tenants": tuple(TenantSpec(*t) for t in data["tenants"]),
        "server": ServerConfig(**data["server"]),
        "recovery": load(RecoveryPolicy, data["recovery"]),
        "control": load(ControlConfig, data["control"]),
        "faults": tuple(FaultSpec(**f) for f in data["faults"]),
    })


def _plain(value):
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name))
                for f in fields(value) if f.init}
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


def _tuples(value):
    if isinstance(value, dict):
        return {key: _tuples(item) for key, item in value.items()}
    if isinstance(value, list):
        return tuple(_tuples(item) for item in value)
    return value


#: Tiles no SoC-1 tenant maps to: the controller's reserve pool.
SPARES = ("cl2", "cl3", "nv1", "nv2")
NAMES = ("night-vision", "classifier", "denoiser")

tenant_sets = st.builds(
    soc1_tenants, st.sampled_from(("id", "serve", "hyp")),
    st.tuples(*[st.integers(1, 32)] * 3),
).flatmap(lambda tenants: st.lists(
    st.sampled_from(tenants), min_size=1, max_size=3,
    unique_by=lambda t: t.name).map(tuple))

servers = st.builds(
    ServerConfig, max_queue_depth=st.integers(8, 64),
    probation_cycles=st.none() | st.integers(10_000, 100_000))

recoveries = st.none() | st.builds(
    RecoveryPolicy, watchdog_cycles=st.integers(50_000, 200_000),
    max_retries=st.integers(0, 2),
    backoff_factor=st.sampled_from((1.0, 1.5, 2.0)),
    software_fallback=st.just(True))

controls = st.builds(
    ControlConfig,
    reserve_pool=st.lists(st.sampled_from(SPARES), unique=True,
                          max_size=4).map(tuple),
    cooldown_cycles=st.integers(0, 50_000))

faults = st.builds(
    FaultSpec, kind=st.sampled_from(("acc_hang", "acc_crash", "acc_slow")),
    target=st.sampled_from(("nv0", "cl0", "cl1", "de0")),
    at_cycle=st.integers(0, 20_000),
    count=st.none() | st.integers(1, 2),
    factor=st.sampled_from((1.0, 2.5, 10.0)))

latency_targets = st.lists(
    st.tuples(st.sampled_from(NAMES), st.integers(1_000, 100_000)),
    unique_by=lambda pair: pair[0], max_size=3).map(tuple)


@st.composite
def specs(draw):
    metrics = draw(st.booleans())
    tracing = draw(st.booleans())
    recovery = draw(recoveries)
    return StackSpec(
        tenants=draw(tenant_sets),
        server=draw(servers),
        recovery=recovery,
        control=draw(st.none() | controls) if metrics else None,
        metrics=metrics,
        latency_targets=draw(latency_targets) if metrics else (),
        tracing=tracing,
        trace_capacity=(draw(st.none() | st.integers(64, 4096))
                        if tracing else None),
        namespace=draw(st.none() | st.sampled_from(("i0", "i1"))),
        sampler_interval=(draw(st.none() | st.integers(1_000, 20_000))
                          if metrics else None),
        # Faults only under a software-fallback policy, so every
        # request completes.
        faults=(tuple(draw(st.lists(faults, max_size=2)))
                if recovery is not None else ()),
        fault_seed=draw(st.integers(0, 2**16)))


def run(spec):
    """(cycles, events, output digest) of the serve trace on ``spec``."""
    stack = build_stack(spec)
    names = {tenant.name for tenant in spec.tenants}
    report = stack.server.run_trace(
        [r for r in build_trace() if r.tenant in names])
    if stack.sampler is not None:
        stack.sampler.stop()
    digest = hashlib.sha256()
    for c in sorted(report.completions, key=lambda c: c.tenant):
        digest.update(repr((c.tenant, c.submitted_at, c.completed_at,
                            c.degraded)).encode())
        digest.update(c.outputs.tobytes())
    env = stack.soc.env
    return env.now, env.events_processed, digest.hexdigest()


def assert_tuples(spec):
    assert isinstance(spec.tenants, tuple)
    for tenant in spec.tenants:
        assert type(tenant) is TenantSpec
        assert isinstance(tenant.devices, tuple)
    assert isinstance(spec.latency_targets, tuple)
    assert all(isinstance(pair, tuple) for pair in spec.latency_targets)
    assert isinstance(spec.faults, tuple)
    if spec.control is not None:
        assert isinstance(spec.control.reserve_pool, tuple)


@given(spec=specs())
@settings(max_examples=25, deadline=None)
def test_round_trip_builds_the_same_run(spec):
    text = to_json(spec)
    back = from_json(text)
    assert back == spec
    assert_tuples(back)
    assert to_json(back) == text
    assert run(spec) == run(back)
    # Building and running (faults included) leave the spec as it was.
    assert spec == from_json(text)
    assert to_json(spec) == text


def test_faulted_run_leaves_spec_unchanged():
    spec = replace(
        SPEC, recovery=RecoveryPolicy(watchdog_cycles=50_000,
                                      software_fallback=True),
        faults=(FaultSpec(kind="acc_hang", target="cl1", at_cycle=1,
                          count=1),))
    before = to_json(spec)
    stack = build_stack(spec)
    stack.server.run_trace(build_trace())
    assert stack.injector.plan.fired == 1
    assert spec.faults[0].fired == 0
    assert spec == from_json(before)
    # A second build starts from an unfired copy and fires again.
    again = build_stack(spec)
    again.server.run_trace(build_trace())
    assert again.injector.plan.fired == 1


def test_fired_is_not_serialised():
    fault = FaultSpec(kind="acc_hang", target="cl1", at_cycle=1)
    fault.fired = 3
    data = json.loads(to_json(replace(SPEC, recovery=RecoveryPolicy(),
                                      faults=(fault,))))
    assert "fired" not in data["faults"][0]


@pytest.mark.parametrize("knob", [
    {"latency_targets": (("classifier", 1_000),)},
    {"control": ControlConfig()},
    {"sampler_interval": 1_000},
])
def test_observability_switches_need_metrics(knob):
    with pytest.raises(ValueError):
        StackSpec(**knob)
    StackSpec(metrics=True, **knob)
