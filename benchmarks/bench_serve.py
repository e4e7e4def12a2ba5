"""Serving benchmark: concurrent multi-tenant inference on SoC-1.

Three applications share one SoC — the Night-Vision pipeline
(nv0 -> cl0), a standalone classifier (cl1) and the denoiser (de0) —
the explicit version of the paper's Sec. V claim that multiple
applications invoke different accelerator pipelines concurrently on
the same chip. The benchmark reports per-tenant p50/p99 latency plus
aggregate throughput, and checks the serving layer's contract:

- single-request serving is bit-exact with the seed executor path;
- no request is rejected at the benchmark's offered load;
- batched, concurrent serving beats running the same requests
  sequentially through ``Executor.execute`` (strictly), and beats
  single-request serving (monotone non-decreasing);
- requests coalesce into batches, and each tenant's hardware activity
  lands on its own tiles only.

The run writes ``BENCH_serve.json``.

Run:  PYTHONPATH=src:. python benchmarks/bench_serve.py
"""

import numpy as np

from benchmarks import write_report
from repro.eval import build_soc1
from repro.eval.fleet import standard_inputs
from repro.eval.stack import build_stack
from repro.runtime import EspRuntime
from tests.specs import SERVE_SPEC, build_trace

#: Requests per tenant / frames per request of the batched trace.
BENCH_REQUESTS = 3
BENCH_FRAMES = 2


def sequential_fps(trace):
    """The same requests, one at a time through ``Executor.execute``."""
    runtime = EspRuntime(build_soc1())
    tenants = {t.name: t.config() for t in SERVE_SPEC.tenants}
    env = runtime.soc.env
    start = env.now
    total_frames = 0
    for entry in trace:
        tenant = tenants[entry.tenant]
        runtime.esp_run(tenant.dataflow, entry.frames, mode=tenant.mode)
        total_frames += np.atleast_2d(entry.frames).shape[0]
    elapsed = env.now - start
    return total_frames / (elapsed / (runtime.soc.clock_mhz * 1e6))


def measure():
    """The three serving measurements plus the bit-exactness probe."""
    # Single-request serving: one request per tenant.
    single_report = build_stack(SERVE_SPEC).server.run_trace(
        build_trace(1, BENCH_FRAMES))

    # Batched serving: the full trace, coalesced per tenant.
    report = build_stack(SERVE_SPEC).server.run_trace(
        build_trace(BENCH_REQUESTS, BENCH_FRAMES))

    # Bit-exactness: the served single requests against esp_run.
    reference = EspRuntime(build_soc1())
    inputs = standard_inputs(BENCH_FRAMES)
    exact = {}
    for tenant in SERVE_SPEC.tenants:
        config = tenant.config()
        completion = next(c for c in single_report.completions
                          if c.tenant == tenant.name)
        golden = reference.esp_run(config.dataflow, inputs[tenant.name],
                                   mode=config.mode)
        exact[tenant.name] = bool(
            (completion.outputs == golden.outputs).all())

    return {
        "sequential_fps": sequential_fps(
            build_trace(BENCH_REQUESTS, BENCH_FRAMES)),
        "single_report": single_report,
        "report": report,
        "bit_exact": exact,
    }


def check(results):
    report = results["report"]
    single = results["single_report"]
    assert all(results["bit_exact"].values()), results["bit_exact"]
    assert report.rejections == [] and report.failures == []
    assert single.rejections == [] and single.failures == []
    # Strict win over the sequential executor path (concurrency +
    # batching), and no regression against single-request serving.
    assert report.throughput_fps > results["sequential_fps"]
    assert report.throughput_fps >= single.throughput_fps
    # Coalescing actually happened: fewer batches than requests.
    assert sum(report.batches_by_tenant.values()) < len(report.completions)
    # Every tenant's hardware activity is attributed exclusively.
    assert set(report.activity_by_tenant["night-vision"]) == {"nv0", "cl0"}
    assert set(report.activity_by_tenant["denoiser"]) == {"de0"}


def render(results):
    report = results["report"]
    lines = [report.render(), ""]
    us = 1.0 / report.clock_mhz
    lines.append(f"{'tenant':<14}{'p50 us':>10}{'p99 us':>10}")
    for tenant, summary in sorted(report.latency_by_tenant.items()):
        scaled = summary.scaled(us)
        lines.append(f"{tenant:<14}{scaled.p50:>10.1f}"
                     f"{scaled.p99:>10.1f}")
    lines.append("")
    lines.append(
        f"throughput: sequential executor "
        f"{results['sequential_fps']:.1f} fps, single-request serving "
        f"{results['single_report'].throughput_fps:.1f} fps, batched "
        f"serving {report.throughput_fps:.1f} fps")
    lines.append(f"bit-exact vs seed executor: {results['bit_exact']}")
    return "\n".join(lines)


def payload():
    """The measurements, printed and checked; the ``BENCH_serve.json``
    payload: one entry per measurement."""
    results = measure()
    print(render(results))
    check(results)
    report = results["report"]
    single = results["single_report"]

    def summaries(r):
        return {tenant: {"count": s.count,
                         "p50_cycles": round(s.p50, 1),
                         "p95_cycles": round(s.p95, 1),
                         "p99_cycles": round(s.p99, 1),
                         "max_cycles": round(s.max, 1)}
                for tenant, s in sorted(r.latency_by_tenant.items())}

    return {
        "benchmark": "bench_serve",
        "workloads": {
            "sequential": {
                "throughput_fps": round(results["sequential_fps"], 2),
            },
            "single_request": {
                "throughput_fps": round(single.throughput_fps, 2),
                "makespan_cycles": single.makespan_cycles,
                "latency_by_tenant": summaries(single),
            },
            "batched": {
                "throughput_fps": round(report.throughput_fps, 2),
                "makespan_cycles": report.makespan_cycles,
                "admitted": report.admitted,
                "peak_queue_depth": report.peak_queue_depth,
                "rejected": len(report.rejections),
                "failed": len(report.failures),
                "latency_by_tenant": summaries(report),
            },
        },
        "bit_exact": results["bit_exact"],
    }


def main():
    write_report("BENCH_serve.json", payload())
    print("serving benchmark: all assertions passed")


if __name__ == "__main__":
    main()
