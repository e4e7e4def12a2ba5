"""Golden observability outputs: exposition, Chrome trace, monitors.

Three instrumented runs — the 8-frame ``4nv_4cl`` pipeline in ``p2p``
and ``pipe`` mode, and the serve trace of ``test_identity`` — each
with a tracer and a metrics registry wired to the SoC collectors. The
sha256 of the Prometheus exposition, the key-sorted Chrome trace JSON
and the monitor report text are pinned: any refactor of how the
hardware layers count or trace their operations must leave all three
byte-identical. Request IDs come from a process-wide counter, so the
serve run restarts it to stay independent of test order.
"""

import hashlib
import itertools
import json

import pytest

from repro.eval.apps import APP_CONFIGS, fresh_runtime
from repro.metrics import (
    attach_metrics,
    instrument_server,
    register_soc_collectors,
    to_prometheus,
)
from repro.serve import request as serve_request
from repro.soc import read_monitors
from repro.trace import attach_tracer, to_chrome_trace
from tests.metrics.test_identity import PIPE_FRAMES, build_server, build_trace

GOLDEN = {
    "p2p": (
        "f11d6a956c124d543c3e2d41c59c3c636c2882518e3ac8ae3bdae344c57bb821",
        "27c772e8db034a9a04f76932cd53abdee06e22b190b9c64f658da82200a07f7a",
        "fa466501580e1b638ff1eb9d6e51fa3092081a528d068e34dfd922368c17a0c3",
    ),
    "pipe": (
        "472a877c340e9ec1bdd6dd1fd565eb8c83594fa84bd263cb80619b809dddc81c",
        "8ca08ab51f843170e24b887cfde5ef08d247d4fdbbe12d981dd98663d008045b",
        "f346617c5c7527a1eb9bfc2bdc3ef617418c24219c61dd7b59f18142995bfabb",
    ),
    "serve": (
        "159062dc0bc12a900de78146bac472e8e01a212896bd455b091c77c3cf34e302",
        "eba15167837f3bb50baeb53913b2fd41fe2f3ac524efabd13be15d3790dab70e",
        "2f51e761f2226f89d05c4df44714f94d1e58eaa8256d2f1a7e562c0f76010ed0",
    ),
}


def run_pipeline(mode):
    config = APP_CONFIGS["4nv_4cl"]
    frames, _ = config.make_inputs(PIPE_FRAMES, seed=0)
    runtime = fresh_runtime(config)
    soc = runtime.soc
    tracer = attach_tracer(soc)
    registry = attach_metrics(soc.env)
    register_soc_collectors(registry, soc)
    runtime.esp_run(config.build_dataflow(), frames, mode=mode)
    return soc, tracer, registry


def run_serve():
    runtime, server = build_server()
    tracer = attach_tracer(runtime.soc)
    registry = instrument_server(server)
    server.run_trace(build_trace())
    return runtime.soc, tracer, registry


def digests(soc, tracer, registry):
    outputs = (to_prometheus(registry),
               json.dumps(to_chrome_trace(tracer), sort_keys=True),
               read_monitors(soc).to_text())
    return tuple(hashlib.sha256(text.encode()).hexdigest()
                 for text in outputs)


@pytest.mark.parametrize("run", ["p2p", "pipe", "serve"])
def test_observability_outputs_byte_identical(run, monkeypatch):
    monkeypatch.setattr(serve_request, "_request_ids", itertools.count())
    stack = run_serve() if run == "serve" else run_pipeline(run)
    assert digests(*stack) == GOLDEN[run]
