"""One stack spec: every SoC-1 serving stack as one piece of plain data.

ESP drives every step of its flow from one SoC configuration. Above
the SoC, the serving stack is described the same way: one frozen
:class:`StackSpec` names the tenants, the server, recovery and control
knobs, the observability switches and the faults, and one
:func:`build_stack` assembles it, always in this order:

1. ``build_soc1()`` with its defaults (every serving stack runs on
   SoC-1, so the spec has no SoC field);
2. the tracer (``tracing``, ``trace_capacity``, ``namespace``);
3. the runtime (``recovery``);
4. the server (``server``) and its tenants, in spec order;
5. the metrics registry (``metrics``, ``namespace``) with the SoC and
   server collectors, and a health monitor over it: the default rules,
   then one latency-burn rule per ``latency_targets`` entry;
6. the control plane (``control``);
7. the fault injector, over fresh copies of ``faults`` seeded by
   ``fault_seed``;
8. the sampler (``sampler_interval``): one monitor evaluation, and
   so one scrape, per tick; the control plane subscribed in step 6.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, NamedTuple, Optional, Tuple

from ..faults import FaultInjector, FaultPlan, FaultSpec, RecoveryPolicy
from ..metrics import (
    HealthMonitor,
    MetricsRegistry,
    MetricsSampler,
    attach_metrics,
    default_rules,
    instrument_server,
    latency_burn_rule,
)
from ..runtime import EspRuntime, chain
from ..serve import InferenceServer, ServerConfig, TenantConfig
from ..trace.tracer import Tracer, attach_tracer
from .apps import build_soc1

if TYPE_CHECKING:
    from ..control import ControlConfig, ControlPlane


class TenantSpec(NamedTuple):
    """One tenant: a ``chain`` dataflow over ``devices`` and its mode."""

    name: str
    dataflow: str
    devices: Tuple[str, ...]
    mode: str
    max_batch_frames: int = 32      # TenantConfig's default

    def config(self) -> TenantConfig:
        return TenantConfig(name=self.name,
                            dataflow=chain(self.dataflow, self.devices),
                            mode=self.mode,
                            max_batch_frames=self.max_batch_frames)


def soc1_tenants(suffix: str,
                 max_batch_frames: Tuple[int, int, int] = (32, 32, 32)
                 ) -> Tuple[TenantSpec, ...]:
    """The three SoC-1 applications, in registration order.

    Night-vision over p2p on ``nv0 -> cl0``, a classifier on ``cl1``
    and the denoiser on ``de0``. ``suffix`` names the classifier and
    denoiser dataflows (``1cl-<suffix>``, ``1de-<suffix>``), which
    trace records carry.
    """
    nv, cl, de = max_batch_frames
    return (
        TenantSpec("night-vision", "1nv_1cl", ("nv0", "cl0"), "p2p", nv),
        TenantSpec("classifier", f"1cl-{suffix}", ("cl1",), "pipe", cl),
        TenantSpec("denoiser", f"1de-{suffix}", ("de0",), "pipe", de),
    )


@dataclass(frozen=True)
class StackSpec:
    """Everything :func:`build_stack` needs, as frozen plain data."""

    tenants: Tuple[TenantSpec, ...] = ()
    server: ServerConfig = ServerConfig()
    recovery: Optional[RecoveryPolicy] = None
    control: Optional[ControlConfig] = None
    metrics: bool = False
    #: ``(tenant, request-latency target in cycles)`` pairs.
    latency_targets: Tuple[Tuple[str, int], ...] = ()
    tracing: bool = False
    #: Ring bound of the tracer; ``None`` keeps every record.
    trace_capacity: Optional[int] = None
    #: Prefix of the metric families and the trace tracks.
    namespace: Optional[str] = None
    sampler_interval: Optional[int] = None
    faults: Tuple[FaultSpec, ...] = ()
    fault_seed: int = 0

    def __post_init__(self) -> None:
        needs = [name for name, used in (
            ("latency_targets", self.latency_targets),
            ("control", self.control is not None),
            ("sampler_interval", self.sampler_interval is not None))
            if used]
        if needs and not self.metrics:
            raise ValueError(f"{', '.join(needs)} need metrics=True")
        if self.trace_capacity is not None and not self.tracing:
            raise ValueError("trace_capacity needs tracing=True")


@dataclass
class Stack:
    """One built serving stack; parts the spec leaves off are ``None``."""

    server: InferenceServer
    tracer: Optional[Tracer]
    registry: Optional[MetricsRegistry]
    monitor: Optional[HealthMonitor]
    controller: Optional[ControlPlane]
    injector: Optional[FaultInjector]
    sampler: Optional[MetricsSampler]

    @property
    def runtime(self) -> EspRuntime:
        return self.server.runtime

    @property
    def soc(self):
        return self.server.soc


def build_stack(spec: StackSpec) -> Stack:
    """Assemble ``spec`` on a fresh SoC-1, in the one fixed order."""
    soc = build_soc1()
    tracer = None
    if spec.tracing:
        tracer = attach_tracer(soc.env, namespace=spec.namespace,
                               capacity=spec.trace_capacity)
    server = InferenceServer(EspRuntime(soc, recovery=spec.recovery),
                             spec.server)
    for tenant in spec.tenants:
        server.register(tenant.config())
    registry = monitor = controller = injector = sampler = None
    if spec.metrics:
        registry = attach_metrics(soc.env, namespace=spec.namespace)
        instrument_server(server)
        monitor = HealthMonitor(registry, default_rules(server) + [
            latency_burn_rule(tenant, target)
            for tenant, target in spec.latency_targets])
    if spec.control is not None:
        # Imported on use: a stack without a control plane (a fleet
        # replica) does not load it.
        from ..control import ControlPlane
        controller = ControlPlane(server, monitor, spec.control).attach()
    if spec.faults:
        # Fresh copies: a plan counts firings on its specs, and the
        # spec must stay equal to itself across builds.
        plan = FaultPlan([replace(fault) for fault in spec.faults],
                         seed=spec.fault_seed)
        injector = FaultInjector(plan).attach(soc)
    if spec.sampler_interval is not None:
        sampler = MetricsSampler(monitor, spec.sampler_interval).start()
    return Stack(server=server, tracer=tracer, registry=registry,
                 monitor=monitor, controller=controller,
                 injector=injector, sampler=sampler)
