"""Ablations: six design choices the paper makes or cites, quantified.

Each sweep probes one choice on the simulated platform and returns its
deterministic numbers; ``check`` asserts the claim each one supports:

- reuse factor (Sec. II): the classifier's II grows and its DSPs
  shrink with the HLS4ML reuse factor; a 1NV+1Cl pipeline is flat
  while the classifier outruns Night-Vision, then drops (Sec. V);
- NoC: 15-into-1 DMA fan-in congests the sink's links, a central
  memory tile beats a corner one, and adjacent p2p halves DRAM words;
- NoC load-latency: uniform random traffic on a 4x4 mesh stays near
  zero-load latency at light load and blows up past the analytic
  saturation rate;
- per-tile DVFS ([21]): slowing the classifier of 1NV+1Cl saves power
  and, past the stage's slack, stalls the pipeline;
- double buffering: ping-pong PLM banks beat the sequential Fig. 4
  wrapper, with bit-identical outputs;
- placement (Sec. IV): the floorplanning optimizer beats row-major and
  adversarial placements of a six-stage chain on flit-hops.

The run writes every number to ``BENCH_ablations.json``, one section
per ablation. EXPERIMENTS.md quotes the file;
``tests/test_experiments_doc.py`` keeps the two equal.

Run:  PYTHONPATH=src:. python benchmarks/bench_ablations.py
"""

import dataclasses
import json

import numpy as np

from benchmarks import write_report
from repro.accelerators import classifier_spec, night_vision_spec
from repro.datasets import darken, flatten_frames, generate
from repro.eval import APP_CONFIGS, fresh_runtime
from repro.flow import placed_soc_config
from repro.noc import (
    DMA_REQUEST_PLANE,
    Mesh2D,
    MessageKind,
    Packet,
    saturation_injection_rate,
    zero_load_latency,
)
from repro.platforms import soc_power_watts_dvfs
from repro.runtime import Dataflow, EspRuntime, chain, replicated_stage
from repro.sim import Environment
from repro.soc import SoCConfig, build_soc
from tests.specs import make_spec


def _frames(n, words):
    return np.random.default_rng(0).uniform(0, 1, (n, words))


# -- reuse factor ------------------------------------------------------------

def nv_cl_fps(reuse):
    config = SoCConfig(cols=3, rows=2, name=f"dse-{reuse}")
    config.add_cpu((0, 0))
    config.add_memory((1, 0))
    config.add_aux((2, 0))
    config.add_accelerator((0, 1), "nv0", night_vision_spec())
    config.add_accelerator((1, 1), "cl0",
                           classifier_spec(reuse_factor=reuse))
    frames, _ = generate(16, seed=0)
    return EspRuntime(build_soc(config)).esp_run(
        replicated_stage("nv_cl", ["nv0"], ["cl0"]),
        flatten_frames(darken(frames)), mode="p2p").frames_per_second


def reuse_factor():
    kernel = {}
    for reuse in (128, 256, 512, 1024, 2048):
        spec = classifier_spec(reuse_factor=reuse)
        kernel[reuse] = {"interval": spec.interval_cycles,
                         "latency": spec.latency_cycles,
                         "dsps": spec.resources.dsps,
                         "brams": spec.resources.brams}
    return {"kernel": kernel,
            "system_fps": {reuse: round(nv_cl_fps(reuse), 1)
                           for reuse in (256, 1024, 4096)}}


# -- NoC under accelerator traffic -------------------------------------------

def fan_in():
    """Four 256-flit DMA packets from each of 15 tiles into one corner."""
    env = Environment()
    mesh = Mesh2D(env, 4, 4)
    packets = [Packet(src=(x, y), dst=(3, 3), plane=DMA_REQUEST_PLANE,
                      kind=MessageKind.DMA_REQ, payload_flits=255)
               for x in range(4) for y in range(4) if (x, y) != (3, 3)
               for _ in range(4)]
    for packet in packets:
        mesh.send(packet)
    env.run()
    latencies = [packet.latency for packet in packets]
    return {"min_latency": min(latencies),
            "mean_latency": round(float(np.mean(latencies)), 1),
            "max_latency": max(latencies),
            "uncontended_bound": zero_load_latency((0, 0), (3, 3), 255),
            "busiest_link_dst": list(mesh.busiest_links(top=1)[0].dst)}


def two_stage_run(config, a_coord, b_coord, mode):
    spec = make_spec(input_words=256, output_words=256, latency=10)
    config.add_accelerator(a_coord, "a0", spec)
    config.add_accelerator(b_coord, "b0", spec)
    return EspRuntime(build_soc(config)).esp_run(
        chain("ab", ["a0", "b0"]), _frames(16, 256), mode=mode)


def memory_placement_cycles(mem_coord):
    """Accelerators on the middle row of a 3x3 mesh; the memory tile
    between them (1 hop to each) or at the far corner (3 from a0)."""
    config = SoCConfig(cols=3, rows=3, name="placement")
    config.add_cpu((0, 0))
    config.add_memory(mem_coord)
    config.add_aux((1, 0))
    return two_stage_run(config, (0, 1), (2, 1), "pipe").cycles


def p2p_locality(mode):
    """Adjacent stages on a 4x1 row, the memory tile at the far end."""
    config = SoCConfig(cols=4, rows=1, name="dist")
    config.add_cpu((0, 0))
    config.add_memory((3, 0))
    result = two_stage_run(config, (1, 0), (2, 0), mode)
    return {"cycles": result.cycles, "dram_words": result.dram_accesses}


def noc():
    return {"fan_in": fan_in(),
            "memory_placement": {
                "corner": memory_placement_cycles((2, 2)),
                "center": memory_placement_cycles((1, 1))},
            "p2p_locality": {mode: p2p_locality(mode)
                             for mode in ("pipe", "p2p")}}


# -- NoC load-latency curve --------------------------------------------------

MESH_SIDE = 4
PAYLOAD_FLITS = 7
WINDOW_CYCLES = 4000


def uniform_traffic(rate_flits_per_cycle):
    """Uniform random traffic for WINDOW_CYCLES at one injection rate."""
    env = Environment()
    mesh = Mesh2D(env, MESH_SIDE, MESH_SIDE)
    rng = np.random.default_rng(0)
    period = (PAYLOAD_FLITS + 1) / rate_flits_per_cycle
    packets = []

    def injector(src):
        # Bernoulli-ish injection: geometric gaps around the period.
        while env.now < WINDOW_CYCLES:
            yield env.timeout(max(1, int(rng.exponential(period))))
            dst = src
            while dst == src:
                dst = (int(rng.integers(MESH_SIDE)),
                       int(rng.integers(MESH_SIDE)))
            packet = Packet(src=src, dst=dst, plane=DMA_REQUEST_PLANE,
                            kind=MessageKind.DMA_REQ,
                            payload_flits=PAYLOAD_FLITS)
            packets.append(packet)
            mesh.send(packet)

    for x in range(MESH_SIDE):
        for y in range(MESH_SIDE):
            env.process(injector((x, y)))
    env.run()
    latencies = [p.latency for p in packets if p.latency is not None]
    return {"rate": rate_flits_per_cycle,
            "mean_latency": round(float(np.mean(latencies)), 1),
            "packets": len(latencies)}


def noc_saturation():
    zero_load = np.mean([
        zero_load_latency((0, 0), (x, y), PAYLOAD_FLITS)
        for x in range(MESH_SIDE) for y in range(MESH_SIDE)
        if (x, y) != (0, 0)])
    return {"saturation_rate": saturation_injection_rate(MESH_SIDE,
                                                         MESH_SIDE),
            "zero_load_latency": round(float(zero_load), 1),
            "curve": [uniform_traffic(rate)
                      for rate in (0.05, 0.15, 0.3, 0.5, 0.8, 1.1)]}


# -- per-tile DVFS -----------------------------------------------------------

def dvfs():
    """The classifier's clock divider inside the 1NV+1Cl pipeline."""
    config = APP_CONFIGS["1nv_1cl"]
    out = {}
    for divider in (1, 2, 4, 8):
        runtime = fresh_runtime(config)
        frames, _ = config.make_inputs(32)
        setting = {"cl0": divider} if divider > 1 else None
        result = runtime.esp_run(config.build_dataflow(), frames,
                                 mode="p2p", dvfs=setting)
        out[divider] = {
            "fps": round(result.frames_per_second, 1),
            "watts": round(soc_power_watts_dvfs(runtime.soc, setting or {}),
                           4)}
    return out


# -- double buffering --------------------------------------------------------

def run_classifier(spec):
    config = SoCConfig(cols=2, rows=2, name="db")
    config.add_cpu((0, 0))
    config.add_memory((1, 0))
    config.add_accelerator((0, 1), "cl0", spec)
    frames, _ = generate(24, seed=0)
    return EspRuntime(build_soc(config)).esp_run(
        Dataflow(name="cl", devices=["cl0"]), flatten_frames(frames),
        mode="p2p")


def double_buffering():
    out = {}
    for reuse in (256, 1024, 4096):
        sequential = classifier_spec(reuse_factor=reuse)
        seq = run_classifier(sequential)
        pp = run_classifier(dataclasses.replace(sequential,
                                                double_buffered=True))
        out[reuse] = {"sequential_fps": round(seq.frames_per_second, 1),
                      "ping_pong_fps": round(pp.frames_per_second, 1),
                      "outputs_identical": bool(np.array_equal(
                          seq.outputs, pp.outputs))}
    return out


# -- placement ---------------------------------------------------------------

N_STAGES = 6
STAGE_WORDS = 512


def stage_devices():
    return [(f"s{i}", make_spec(name=f"s{i}", input_words=STAGE_WORDS,
                                output_words=STAGE_WORDS, latency=40))
            for i in range(N_STAGES)]


def row_major_config(order):
    config = SoCConfig(cols=3, rows=3, name="manual")
    config.add_cpu(config.next_free())
    config.add_memory(config.next_free())
    config.add_aux(config.next_free())
    specs = dict(stage_devices())
    for name in order:
        config.add_accelerator(config.next_free(), name, specs[name])
    return config


def placement():
    dataflow = chain("c", [f"s{i}" for i in range(N_STAGES)])
    configs = {
        "adversarial": row_major_config(["s0", "s3", "s1", "s4", "s2",
                                         "s5"]),
        "naive": row_major_config([f"s{i}" for i in range(N_STAGES)]),
        "optimized": placed_soc_config(3, 3, "opt", stage_devices(),
                                       dataflow)}
    out = {}
    for label, config in configs.items():
        runtime = EspRuntime(build_soc(config))
        result = runtime.esp_run(dataflow, _frames(16, STAGE_WORDS),
                                 mode="p2p")
        out[label] = {"cycles": result.cycles,
                      "flit_hops": runtime.soc.mesh.flit_hops}
    return out


SWEEPS = {"reuse_factor": reuse_factor, "noc": noc,
          "noc_saturation": noc_saturation, "dvfs": dvfs,
          "double_buffering": double_buffering, "placement": placement}


def check(results):
    kernel = results["reuse_factor"]["kernel"]
    intervals = [row["interval"] for row in kernel.values()]
    dsps = [row["dsps"] for row in kernel.values()]
    assert intervals == sorted(intervals)
    assert dsps == sorted(dsps, reverse=True)
    # Quadrupling reuse cuts the dominant layer's multipliers.
    assert kernel[128]["dsps"] > 3 * kernel[512]["dsps"]
    # Reuse 256 and 1024 both outrun NV: nearly identical system fps;
    # at 4096 the classifier is the bottleneck.
    fps = results["reuse_factor"]["system_fps"]
    assert abs(fps[256] - fps[1024]) / fps[256] < 0.1
    assert fps[4096] < 0.8 * fps[1024]

    fan = results["noc"]["fan_in"]
    assert fan["min_latency"] >= 2 + 256                       # one hop
    assert fan["max_latency"] > 3 * fan["uncontended_bound"]   # congestion
    assert fan["busiest_link_dst"] == [3, 3]
    placed = results["noc"]["memory_placement"]
    assert placed["center"] < placed["corner"]
    pipe, p2p = (results["noc"]["p2p_locality"][mode]
                 for mode in ("pipe", "p2p"))
    assert p2p["cycles"] < pipe["cycles"]
    assert p2p["dram_words"] == pipe["dram_words"] // 2

    saturation = results["noc_saturation"]
    curve = sorted(saturation["curve"], key=lambda row: row["rate"])
    latencies = [row["mean_latency"] for row in curve]
    # Latency grows monotonically with load, stays near zero-load at
    # light load and blows up beyond the analytic saturation point.
    assert all(a <= b * 1.05 for a, b in zip(latencies, latencies[1:]))
    assert latencies[0] < 2.0 * saturation["zero_load_latency"]
    past = [row["mean_latency"] for row in curve
            if row["rate"] > saturation["saturation_rate"]]
    below = [row["mean_latency"] for row in curve if row["rate"] <= 0.31]
    assert min(past) > 3.0 * max(below)

    fps = {d: row["fps"] for d, row in results["dvfs"].items()}
    watts = {d: row["watts"] for d, row in results["dvfs"].items()}
    assert watts[1] > watts[2] > watts[4] > watts[8]
    # At divider 8 the slowed classifier far exceeds the NV stage;
    # divider 2 sits near the slack boundary.
    assert fps[8] < 0.6 * fps[1]
    assert fps[2] > 0.85 * fps[1]

    speedups = {}
    for reuse, row in results["double_buffering"].items():
        assert row["ping_pong_fps"] > 2.5 * row["sequential_fps"]
        assert row["outputs_identical"], reuse
        speedups[reuse] = row["ping_pong_fps"] / row["sequential_fps"]
    # Kernels whose latency far exceeds their II gain the most; at the
    # smallest reuse the overlapped tile is DMA-bound.
    assert speedups[1024] > speedups[4096]

    hops = {label: row["flit_hops"]
            for label, row in results["placement"].items()}
    cycles = {label: row["cycles"]
              for label, row in results["placement"].items()}
    assert hops["optimized"] <= hops["naive"] < hops["adversarial"]
    assert cycles["optimized"] <= cycles["adversarial"]


def payload():
    """Every sweep, printed and checked; the ``BENCH_ablations.json``
    payload: one section per ablation."""
    results = {name: sweep() for name, sweep in SWEEPS.items()}
    for name, section in results.items():
        print(f"== {name} ==\n{json.dumps(section, indent=1)}")
    check(results)
    return {"benchmark": "bench_ablations", **results}


def main():
    write_report("BENCH_ablations.json", payload())
    print("ablation benchmark: all assertions passed")


if __name__ == "__main__":
    main()
