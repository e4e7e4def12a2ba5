"""Metrics recording must not change simulated time — ever.

The registry's contract (``Environment.metrics``) is that recording
only mutates Python ints and never yields, schedules, or touches the
event queue: a metrics-enabled run is *bit-identical* — same final
cycle, same number of dispatched kernel events — to the same run with
``env.metrics is None``. These tests enforce that contract on the
smoke-size seed workloads of ``tests/specs.py`` (the 8-frame p2p and
pipe runs of the 4nv_4cl pipeline, and the 1x1 multi-tenant serve
trace): each bare run lands on its ``SMOKE_CYCLES``/``SMOKE_EVENTS``
pin, and so does its instrumented twin.

The one deliberate exception is the opt-in :class:`MetricsSampler`,
which schedules its own periodic timeout events. Pure timeouts never
perturb *other* processes' timing, so a sampled run keeps the exact
cycle count while dispatching a few extra events — asserted here too,
with the sampler's cost: one scrape per sample.
"""

from dataclasses import replace

from repro.control import ControlConfig
from repro.eval.apps import APP_CONFIGS, fresh_runtime
from repro.eval.stack import StackSpec, build_stack, soc1_tenants
from repro.metrics import attach_metrics, register_soc_collectors
from repro.soc import read_monitors
from tests.specs import (
    SMOKE_CYCLES,
    SMOKE_EVENTS,
    SMOKE_PIPE_FRAMES,
    build_trace,
)

#: (cycles, events) per smoke workload: the seed behaviour the bare
#: and the instrumented runs must land on exactly.
PINS = {name: (SMOKE_CYCLES[name], SMOKE_EVENTS[name])
        for name in SMOKE_CYCLES}


def run_pipeline(mode, instrumented):
    config = APP_CONFIGS["4nv_4cl"]
    frames, _ = config.make_inputs(SMOKE_PIPE_FRAMES, seed=0)
    runtime = fresh_runtime(config)
    registry = attach_metrics(runtime.soc.env) if instrumented else None
    runtime.esp_run(config.build_dataflow(), frames, mode=mode)
    env = runtime.soc.env
    return env.now, env.events_processed, registry


#: The serve trace's stack: the three SoC-1 tenants, nothing attached.
SPEC = StackSpec(tenants=soc1_tenants("id"))


def run_serve(instrumented, sampler_interval=None):
    stack = build_stack(replace(SPEC, metrics=instrumented,
                                sampler_interval=sampler_interval))
    stack.server.run_trace(build_trace())
    env = stack.soc.env
    return env.now, env.events_processed, stack.registry


class TestPassiveIdentity:
    def test_p2p_pipeline_bit_identical(self):
        bare = run_pipeline("p2p", instrumented=False)
        instrumented = run_pipeline("p2p", instrumented=True)
        assert bare[:2] == instrumented[:2] == PINS["p2p"]

    def test_dma_pipeline_bit_identical(self):
        bare = run_pipeline("pipe", instrumented=False)
        instrumented = run_pipeline("pipe", instrumented=True)
        assert bare[:2] == instrumented[:2] == PINS["dma"]

    def test_serve_trace_bit_identical(self):
        bare = run_serve(instrumented=False)
        instrumented = run_serve(instrumented=True)
        assert bare[:2] == instrumented[:2] == PINS["serve"]

    def test_instrumented_run_actually_recorded(self):
        """Identity is vacuous if nothing was recorded — prove the
        counters moved while the timing did not."""
        _, _, registry = run_serve(instrumented=True)
        registry.collect()
        assert registry.noc_packets.total > 0
        assert registry.dma_transactions.total > 0
        assert registry.serve_completed.total == 3
        assert registry.acc_invocations.total > 0
        for tenant in ("night-vision", "classifier", "denoiser"):
            series = registry.serve_request_cycles.labels(tenant)
            assert series.count == 1 and series.sum > 0


def scraped_vs_monitors(registry, soc):
    """(scraped totals, MonitorReport totals) of the hardware families."""
    registry.collect()
    report = read_monitors(soc)
    scraped = (registry.dma_transactions.total, registry.noc_packets.total,
               registry.noc_flits.total, registry.acc_invocations.total)
    monitors = (sum(a.dma_loads + a.dma_stores + a.p2p_loads + a.p2p_stores
                    for a in report.accelerators),
                report.noc_packets, report.noc_flit_hops,
                sum(a.invocations for a in report.accelerators))
    return scraped, monitors


class TestHardwareViews:
    """The DMA/NoC/accelerator families are scrape-time views of the
    hardware counters the monitors read — one count, two read-outs."""

    def test_scraped_families_equal_monitor_totals(self):
        stack = build_stack(replace(SPEC, metrics=True))
        stack.server.run_trace(build_trace())
        scraped, monitors = scraped_vs_monitors(stack.registry, stack.soc)
        assert scraped == monitors
        assert all(total > 0 for total in scraped)

    def test_late_attach_reports_since_boot(self):
        """A registry attached after a run still reports every
        operation since boot, like the ``mem_words_read`` gauge."""
        config = APP_CONFIGS["4nv_4cl"]
        frames, _ = config.make_inputs(SMOKE_PIPE_FRAMES, seed=0)
        runtime = fresh_runtime(config)
        runtime.esp_run(config.build_dataflow(), frames, mode="pipe")
        soc = runtime.soc
        registry = attach_metrics(soc.env)
        register_soc_collectors(registry, soc)
        scraped, monitors = scraped_vs_monitors(registry, soc)
        assert scraped == monitors
        assert all(total > 0 for total in scraped)
        assert registry.get("mem_words_read").value \
            == soc.memory_map.words_read


class TestSamplerIdentity:
    def test_sampler_keeps_cycles_exact(self):
        """Scraping adds sampler timeout events but zero cycles."""
        passive = run_serve(instrumented=True)
        sampled = run_serve(instrumented=True, sampler_interval=1000)
        assert sampled[0] == passive[0]          # cycles identical
        assert sampled[1] > passive[1]           # its own ticks only
        extra = sampled[1] - passive[1]
        assert extra <= passive[0] // 1000 + 1

    def test_one_scrape_per_sample(self):
        """A tick is one monitor evaluation, and an evaluation is one
        scrape: the control plane's and any other subscriber's reads
        scrape nothing more."""
        stack = build_stack(replace(SPEC, metrics=True,
                                    control=ControlConfig(),
                                    sampler_interval=1000))
        scrapes = []
        stack.registry.register_collector(
            lambda registry: scrapes.append(registry.env.now))
        stack.server.run_trace(build_trace())
        stack.monitor.evaluate()
        ticks = stack.sampler.samples_taken
        assert ticks > 0
        assert len(scrapes) == ticks + 1 == stack.monitor.evaluations
        assert scrapes[:ticks] == [1000 * n for n in range(1, ticks + 1)]

    def test_sampler_callbacks_see_live_state(self):
        depths = []
        stack = build_stack(replace(SPEC, metrics=True,
                                    sampler_interval=2000))
        stack.monitor.subscribe(lambda monitor, _: depths.append(
            monitor.registry.serve_completed.total))
        stack.server.run_trace(build_trace())
        assert depths, "sampler never ticked"
        assert depths == sorted(depths)          # monotone counter
        assert depths[-1] <= 3
