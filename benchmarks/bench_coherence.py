"""Ablation: cache-coherence models vs the p2p service, plus the tuner.

The paper's introduction positions p2p against "the corresponding
versions that use off-chip memory for inter-accelerator communication,
which is normally the most efficient accelerator cache-coherence model
for non-trivial workloads with regular memory access pattern" (citing
Giri et al. [12]). This bench makes that comparison explicit on one
SoC — non-coherent DMA vs LLC-coherent DMA vs fully-coherent private
caches vs p2p for the same two-stage pipeline — and then sweeps the
:mod:`repro.tune` ablation workloads through the auto-tuner, gating
its contract: the tuned assignment is **never worse than the best
uniform coherence mode** on any workload. The standalone run writes
the sweep's numbers to ``BENCH_coherence.json`` at the repo root; the
pytest entries make the same checks and write nothing.

Run:  pytest benchmarks/bench_coherence.py --benchmark-only -s
or:   PYTHONPATH=src python benchmarks/bench_coherence.py
"""

import json
from pathlib import Path

import numpy as np

from repro.runtime import EspRuntime, chain
from repro.soc import SoCConfig, build_soc
from repro.tune import UNIFORM_MODES, ablation_workloads, autotune

FRAMES = 24


def build_runtime(llc_words=1 << 15):
    # Lazy: ``tests`` is importable under pytest (rootdir on sys.path)
    # but not when this file runs standalone for the tuner sweep.
    from tests.conftest import make_spec
    config = SoCConfig(cols=4, rows=2, name="coherence")
    config.add_cpu((0, 0))
    config.add_memory((1, 0), size_words=1 << 17, llc_words=llc_words)
    config.add_aux((2, 0))
    spec = make_spec(input_words=1024, output_words=1024, latency=800)
    config.add_accelerator((3, 0), "a0", spec)
    config.add_accelerator((0, 1), "b0", spec)
    return EspRuntime(build_soc(config))


def test_coherence_models(once):
    def sweep():
        frames = np.random.default_rng(0).uniform(0, 1, (FRAMES, 1024))
        results = {}
        for key, mode, coherence in (
                ("non-coherent", "pipe", None),
                ("llc-coherent", "pipe", "llc-coherent"),
                ("fully-coherent", "pipe", "fully-coherent"),
                ("p2p", "p2p", None)):
            rt = build_runtime()
            results[key] = rt.esp_run(chain("ab", ["a0", "b0"]), frames,
                                      mode=mode, coherence=coherence)
        return results

    results = once(sweep)
    print(f"\n{'model':<16}{'frames/s':>12}{'DRAM words':>12}")
    for key, result in results.items():
        print(f"{key:<16}{result.frames_per_second:>12,.0f}"
              f"{result.dram_accesses:>12,}")

    dram = {k: r.dram_accesses for k, r in results.items()}
    fps = {k: r.frames_per_second for k, r in results.items()}
    # The LLC absorbs the intermediate frames (its job: [12] calls it
    # the most efficient DMA model), matching p2p's DRAM reduction...
    assert dram["llc-coherent"] < dram["non-coherent"]
    assert dram["p2p"] <= dram["llc-coherent"]
    assert fps["llc-coherent"] > fps["non-coherent"]
    # Private caches also keep the intermediate frames on chip; the
    # outputs stay bit-identical because caches only shape timing.
    assert dram["fully-coherent"] < dram["non-coherent"]
    assert (results["fully-coherent"].outputs ==
            results["non-coherent"].outputs).all()
    # ...but p2p also removes the memory-tile round trip and the
    # per-frame software synchronization, winning on throughput — the
    # paper's argument for the new service.
    assert fps["p2p"] > 1.2 * fps["llc-coherent"]


def test_llc_capacity_sweep(once):
    """DRAM traffic vs LLC size: thrash -> fit transition."""
    def sweep():
        frames = np.random.default_rng(0).uniform(0, 1, (FRAMES, 1024))
        out = {}
        for llc_words in (2048, 8192, 1 << 15):
            rt = build_runtime(llc_words=llc_words)
            out[llc_words] = rt.esp_run(
                chain("ab", ["a0", "b0"]), frames, mode="pipe",
                coherence="llc-coherent").dram_accesses
        return out

    dram = once(sweep)
    print(f"\nDRAM words by LLC capacity: { {k: f'{v:,}' for k, v in dram.items()} }")
    sizes = sorted(dram)
    assert dram[sizes[-1]] < dram[sizes[0]]


def run_tuner_sweep():
    """Autotune every ablation workload; returns name -> TuneResult."""
    return {wl.name: autotune(wl.build, wl.dataflow, wl.frames,
                              mode=wl.mode)
            for wl in ablation_workloads()}


def check_tuner(results):
    """The gated contract: tuned never worse than the best uniform,
    on an ablation suite whose three uniform winners all differ."""
    for name, result in results.items():
        assert result.cycles <= result.best_uniform_cycles, (
            f"{name}: tuned assignment ({result.cycles} cycles) lost "
            f"to the best uniform mode "
            f"({result.best_uniform_cycles} cycles)")
    winners = {min(UNIFORM_MODES,
                   key=lambda m: result.measured[m.value]).value
               for result in results.values()}
    assert len(winners) == 3, f"expected 3 distinct winners: {winners}"


def render_tuner(results):
    lines = [f"{'workload':<16}" +
             "".join(f"{m.value:>16}" for m in UNIFORM_MODES) +
             f"{'tuned':>12}  chosen"]
    for name, result in results.items():
        row = f"{name:<16}"
        for mode in UNIFORM_MODES:
            row += f"{result.measured[mode.value]:>16,}"
        row += f"{result.measured['tuned']:>12,}  {result.chosen}"
        lines.append(row)
    return "\n".join(lines)


def build_payload(results):
    """``BENCH_coherence.json``: one entry per ablation workload."""
    return {
        "benchmark": "bench_coherence",
        "workloads": {
            name: {
                "measured_cycles": dict(result.measured),
                "chosen": result.chosen,
                "assignment": {dev: mode.value for dev, mode
                               in sorted(result.assignment.items())},
                "cycles": result.cycles,
                "best_uniform_cycles": result.best_uniform_cycles,
                "dma_fraction": round(result.profile.dma_fraction, 4),
            }
            for name, result in results.items()
        },
        "never_worse": all(r.cycles <= r.best_uniform_cycles
                           for r in results.values()),
    }


def write_report(payload):
    out = (Path(__file__).resolve().parent.parent /
           "BENCH_coherence.json")
    out.write_text(json.dumps(payload, indent=2) + "\n")
    return out


def test_autotuned_coherence(once):
    results = once(run_tuner_sweep)
    print("\n" + render_tuner(results))
    check_tuner(results)


def main():
    results = run_tuner_sweep()
    print(render_tuner(results))
    check_tuner(results)
    path = write_report(build_payload(results))
    print(f"report: {path}")
    print("coherence benchmark: tuned never worse than best uniform")


if __name__ == "__main__":
    main()
