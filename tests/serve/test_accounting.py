"""Seeded property test of the serve layer's request accounting.

Every offered request is admitted or rejected at submit, and every
admitted one ends completed, failed, or rejected after admission
(``tile-unavailable``). A report counts one window, so both identities
hold per ``run_trace``, however many ran before on the same server,
while the ``serve_*`` families, filled at scrape time, count every
record since boot. Each example is built from one integer seed, so a
failure shrinks to a seed that reproduces it.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.faults import FaultInjector, FaultPlan, FaultSpec, RecoveryPolicy
from repro.metrics import HealthMonitor, MetricsSampler, instrument_server
from repro.runtime import chain
from repro.serve import REJECT_TILE_UNAVAILABLE, TenantConfig, TracedRequest
from tests.serve.test_server import make_server

TENANTS = ("x", "y", "ghost")   # "ghost" is never registered


def random_trace(rng):
    trace, at = [], 0
    for _ in range(int(rng.integers(1, 9))):
        at += int(rng.choice([0, 0, rng.integers(1, 3_000)]))
        frames = rng.uniform(0, 1, (int(rng.integers(1, 4)), 16))
        trace.append(TracedRequest(at, str(rng.choice(TENANTS)), frames))
    return trace


def build(seed):
    """A server, its registry and two traces, all drawn from ``seed``:
    a queue bound small enough to reject, and on odd seeds a hang
    that fails tenant x's tile with no software fallback."""
    rng = np.random.default_rng(seed)
    runtime, server = make_server(
        recovery=RecoveryPolicy(watchdog_cycles=20_000, max_retries=0,
                                software_fallback=False),
        max_queue_depth=int(rng.integers(1, 4)))
    if seed % 2:
        FaultInjector(FaultPlan([FaultSpec(
            kind="acc_hang", target="a0", at_cycle=0, count=1)])
        ).attach(runtime.soc)
    server.register(TenantConfig(name="x", dataflow=chain("x", ["a0"]),
                                 mode="pipe"))
    server.register(TenantConfig(name="y",
                                 dataflow=chain("y", ["b0", "c0"]),
                                 mode=str(rng.choice(["pipe", "p2p"])),
                                 max_batch_frames=int(rng.integers(1, 5))))
    registry = instrument_server(server)
    MetricsSampler(HealthMonitor(registry),
                   interval=int(rng.integers(500, 5_000)),
                   max_samples=50).start()
    return server, registry, [random_trace(rng), random_trace(rng)]


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_request_accounting_per_window_and_since_boot(seed):
    server, registry, traces = build(seed)
    for trace in traces:
        report = server.run_trace(trace)
        after = [r for r in report.rejections
                 if r.reason == REJECT_TILE_UNAVAILABLE]
        at_submit = len(report.rejections) - len(after)
        assert len(trace) == report.admitted + at_submit
        assert report.admitted == (len(report.completions)
                                   + len(report.failures) + len(after))
        assert server.queue.depth == 0
        assert server.load().in_flight_batches == 0

        registry.run_collectors()
        registry.run_collectors()    # a second scrape counts nothing twice
        assert registry.serve_admitted.total == len(server.queue.admissions)
        assert registry.serve_completed.total == len(server.completions)
        assert registry.serve_failed.total == len(server.failures)
        assert registry.serve_rejected.total == len(server.rejections)
        assert registry.serve_frames.total == sum(
            c.n_frames for c in server.completions)
        assert registry.serve_batches.total == len(server.dispatches) \
            == server.arbiter.grants
        latency = registry.serve_request_cycles
        assert sum(s.count for _, s in latency.series()) \
            == len(server.completions)
