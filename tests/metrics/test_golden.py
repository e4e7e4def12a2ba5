"""Golden observability outputs: exposition, Chrome trace, monitors.

Six instrumented runs — the 8-frame ``4nv_4cl`` pipeline in ``p2p``
and ``pipe`` mode, the serve trace of ``test_identity``, and three
fault runs of the 3-stage chain of ``tests/faults/test_recovery.py``
with a hung middle stage (in ``pipe`` mode one retry recovers it, and
with no retries the work is served in software; in ``p2p`` mode the
stream fails and the whole run degrades to a ``pipe`` re-run) — each
with a tracer and a metrics
registry wired to the SoC collectors. The sha256 of the Prometheus
exposition, the key-sorted Chrome trace JSON and the monitor report
text are pinned: any refactor of how the hardware, runtime or serve
layers count or trace their operations must leave all three
byte-identical. Request IDs come from a process-wide counter, so the
serve run restarts it to stay independent of test order.

The serve trace, at two requests of two frames per tenant, is also
pinned through a 256-record ring tracer: the sha256 of the flight
recorder's postmortem capture at the end of the run. That ring evicts
records, so the pin covers ring eviction and the read-time trace-ID
resolution of the spans it keeps.
"""

import hashlib
import itertools
import json
from dataclasses import replace

import pytest

from repro.eval.apps import APP_CONFIGS, fresh_runtime
from repro.eval.stack import build_stack
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.metrics import (
    attach_metrics,
    register_soc_collectors,
    to_prometheus,
)
from repro.serve import request as serve_request
from repro.soc import read_monitors
from repro.trace import FlightRecorder, attach_tracer, to_chrome_trace
from tests.faults.test_recovery import policy, run_chain, three_stage_soc
from tests.metrics.test_identity import SPEC
from tests.specs import SMOKE_PIPE_FRAMES, build_trace

GOLDEN = {
    "p2p": (
        "f11d6a956c124d543c3e2d41c59c3c636c2882518e3ac8ae3bdae344c57bb821",
        "eb3f71efc1c42158ff4395c75905f9b4aeed7f5d42ca1e0b121c607177a81eb2",
        "fa466501580e1b638ff1eb9d6e51fa3092081a528d068e34dfd922368c17a0c3",
    ),
    "pipe": (
        "472a877c340e9ec1bdd6dd1fd565eb8c83594fa84bd263cb80619b809dddc81c",
        "68c04185731e235cd40f422336586e00a46abfd837675f8c3c134c702bb27ffe",
        "f346617c5c7527a1eb9bfc2bdc3ef617418c24219c61dd7b59f18142995bfabb",
    ),
    "serve": (
        "159062dc0bc12a900de78146bac472e8e01a212896bd455b091c77c3cf34e302",
        "96f952c2a76a0252e08fa459020e990c5c4b71c338d26ccfdb705a7335c1ed4d",
        "2f51e761f2226f89d05c4df44714f94d1e58eaa8256d2f1a7e562c0f76010ed0",
    ),
    "degrade": (
        "ac8c9c25e09aebb5006cdba62c5ee871c840c4e5a2363236e7491f396697a33c",
        "bc72a1d9febc406714b0d470f344b48ecd1628046c97cbae28f1f52977bb6cc8",
        "e2ce886294c8b85694cf77fcb6678bf6f2d81024415944c9708aba4f5c970c2f",
    ),
    "retry": (
        "e8ddebdbd8a1368f60e657d0c1d63ce467e73a9b8ce7dc5c35aa85c59ad35dbb",
        "b732fddbf7d7ee79a8df0b85ffaa9124f57f851f08be4be7aa55b3245e2e3c9f",
        "e2583b30b7e0a37e86a058cdbff3c77b42fa90aa238d339723f50ec6ffb6a7d5",
    ),
    "software": (
        "5658d75bedd8975ac3ca2c8479181cbe544b467477c6465a1650b9a3c8542ac7",
        "bbf9998e5e36acb781d632e2fbab538a639424b0614a734b002cbbf05154bdb6",
        "18228a541eb7ed364fdbfcc4099ad4e4f740b41ba1aa3d32005d37421fe0c620",
    ),
}

#: sha256 of the key-sorted postmortem capture of the ring-traced serve
#: run (see :func:`test_ring_postmortem_byte_identical`).
RING_POSTMORTEM = (
    "abadf136e806ff56e9c333a2a7a4b1dac22ac7f9ab2e2ac6e56062eaab2592a9")
RING_CAPACITY = 256


def run_pipeline(mode):
    config = APP_CONFIGS["4nv_4cl"]
    frames, _ = config.make_inputs(SMOKE_PIPE_FRAMES, seed=0)
    runtime = fresh_runtime(config)
    soc = runtime.soc
    tracer = attach_tracer(soc)
    registry = attach_metrics(soc.env)
    register_soc_collectors(registry, soc)
    runtime.esp_run(config.build_dataflow(), frames, mode=mode)
    return soc, tracer, registry


def run_serve():
    stack = build_stack(replace(SPEC, metrics=True, tracing=True))
    stack.server.run_trace(build_trace())
    return stack.soc, stack.tracer, stack.registry


def run_recovery(max_retries, mode="pipe"):
    soc = three_stage_soc()
    FaultInjector(FaultPlan([FaultSpec(kind="acc_hang", target="s1",
                                       at_cycle=0, count=1)])).attach(soc)
    tracer = attach_tracer(soc)
    registry = attach_metrics(soc.env)
    register_soc_collectors(registry, soc)
    _, result, expected = run_chain(
        soc, mode=mode, recovery=policy(max_retries=max_retries))
    assert (result.outputs == expected).all()
    assert result.degraded == (mode == "p2p")
    if mode == "pipe":   # the aborted stream's hardware spans stay open
        assert not tracer.open_spans
    return soc, tracer, registry


RUNS = {
    "p2p": lambda: run_pipeline("p2p"),
    "pipe": lambda: run_pipeline("pipe"),
    "serve": run_serve,
    "retry": lambda: run_recovery(max_retries=2),
    "degrade": lambda: run_recovery(max_retries=2, mode="p2p"),
    "software": lambda: run_recovery(max_retries=0),
}


def digests(soc, tracer, registry):
    outputs = (to_prometheus(registry),
               json.dumps(to_chrome_trace(tracer), sort_keys=True),
               read_monitors(soc).to_text())
    return tuple(hashlib.sha256(text.encode()).hexdigest()
                 for text in outputs)


@pytest.mark.parametrize("run", sorted(RUNS))
def test_observability_outputs_byte_identical(run, monkeypatch):
    monkeypatch.setattr(serve_request, "_request_ids", itertools.count())
    assert digests(*RUNS[run]()) == GOLDEN[run]


def test_ring_postmortem_byte_identical(tmp_path, monkeypatch):
    monkeypatch.setattr(serve_request, "_request_ids", itertools.count())
    stack = build_stack(replace(SPEC, metrics=True, tracing=True,
                                trace_capacity=RING_CAPACITY))
    stack.server.run_trace(build_trace(n_requests=2, frames_per_request=2))
    assert stack.tracer.dropped > 0   # the ring evicted: the point of the pin
    artifact = FlightRecorder(tmp_path, stack.tracer).capture(
        stack.soc.env.now, registry=stack.registry)
    text = json.dumps(artifact, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == RING_POSTMORTEM
