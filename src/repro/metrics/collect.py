"""Scrape-time collectors: hardware counters -> registry series.

The hot-path instrumentation in :mod:`repro.metrics.registry` covers
request-level *events* (a request admitted, a watchdog expired) that
no hardware counter tracks. Everything the simulated hardware already
counts — DMA transactions and words, accelerator invocations and
wrapper phases, NoC packets and flit-hops, link and tile occupancy,
memory traffic — is counted exactly once, by the owning component,
and re-recording it per operation would duplicate that work.
Collectors bridge the two worlds: callables registered on the
:class:`MetricsRegistry` that copy those counters into the standard
series whenever somebody scrapes (an exporter, the health monitor,
the dashboard, a :class:`MetricsSampler` tick). Hardware families
therefore report since-boot totals, however late the registry was
attached.

Collectors read simulation state and write registry series; they must
never schedule events or advance the clock — they run outside the
timing model entirely, like reading ESP's status registers over the
slow IO plane after the fact.
"""

from __future__ import annotations

from .registry import MetricsRegistry, attach_metrics


def register_soc_collectors(registry: MetricsRegistry, soc) -> None:
    """Wire a built SoC's hardware counters into scrape-time series.

    Fills the registry's standard NoC, DMA and accelerator families
    (packets and flit-hops per plane, losses, DMA transactions/words
    per device and op, injected stalls, invocations and their latency
    histogram, per-phase wrapper cycles, crashes, resets, the progress
    heartbeat) and adds gauges for per-link occupancy (busy cycles +
    utilization, labeled by link endpoints and plane), per-accelerator
    occupancy (busy cycles, utilization, live ``STATUS_REG`` value),
    and memory traffic (words read/written per run so far). Series a
    counter never moved stay absent, as they would on the hot path.
    """
    link_busy = registry.gauge(
        "noc_link_busy_cycles", "Cycles each link channel was held",
        ("link", "plane"))
    link_util = registry.gauge(
        "noc_link_utilization",
        "Busy fraction of each link channel since boot (0..1)",
        ("link", "plane"))
    acc_busy = registry.gauge(
        "acc_busy_cycles", "Cycles each accelerator spent in the "
        "wrapper (completed invocations)", ("device",))
    acc_util = registry.gauge(
        "acc_utilization",
        "Busy fraction of each accelerator since boot (0..1)",
        ("device",))
    acc_status = registry.gauge(
        "acc_status", "Live STATUS_REG value (0 idle, 1 running, "
        "2 done, 3 error)", ("device",))
    mem_read = registry.gauge(
        "mem_words_read", "Words read from the memory tiles")
    mem_written = registry.gauge(
        "mem_words_written", "Words written to the memory tiles")

    def put(family, labels, value) -> None:
        if value:
            family.labels(*labels).value = value

    def scrape(reg: MetricsRegistry) -> None:
        mesh = soc.mesh
        for outcome, family in (("delivered", reg.noc_packets),
                                ("dropped", reg.noc_dropped),
                                ("corrupted", reg.noc_corrupted)):
            for plane, packets in mesh.outcomes[outcome].items():
                put(family, (plane,), packets)
        for plane, flits in mesh.plane_flits().items():
            put(reg.noc_flits, (plane,), flits)
        for (src, dst, plane), link in mesh.links.items():
            if link.flits_carried == 0 \
                    and link.channel.busy_cycles == 0:
                continue   # keep untouched links out of the exposition
            label = f"{src[0]},{src[1]}->{dst[0]},{dst[1]}"
            link_busy.labels(label, plane).set(link.channel.busy_cycles)
            link_util.labels(label, plane).set(
                round(link.utilization(), 6))
        for name, tile in soc.accelerators.items():
            dma = tile.dma
            for op, count in dma.transactions.items():
                put(reg.dma_transactions, (name, op), count)
                put(reg.dma_words, (name, op), dma.words[op])
            put(reg.dma_stalls, (name,), dma.stalls)
            put(reg.acc_invocations, (name,), len(tile.invocations))
            if tile.invocations:
                # Observe only the invocations the series has not seen,
                # so repeated scrapes (or collectors) never double-count.
                latency = reg.acc_invocation_cycles.labels(name)
                for result in tile.invocations[latency.count:]:
                    latency.observe(result.cycles)
            for phase, cycles in dma.phase_cycles.items():
                reg.acc_phase_cycles.labels(name, phase).value = cycles
            put(reg.acc_crashes, (name,), tile.kernel_crashes)
            put(reg.acc_resets, (name,), tile.resets)
            if dma.last_progress is not None:
                reg.acc_last_progress.labels(name).set(dma.last_progress)
            acc_busy.labels(name).set(tile.busy_cycles)
            acc_util.labels(name).set(round(tile.utilization(), 6))
            acc_status.labels(name).set(tile.status)
        mem_read.set(soc.memory_map.words_read)
        mem_written.set(soc.memory_map.words_written)

    registry.register_collector(scrape)


def register_server_collectors(registry: MetricsRegistry,
                               server) -> None:
    """Wire an :class:`InferenceServer`'s queue state into gauges."""
    peak = registry.gauge(
        "serve_queue_peak_depth",
        "Deepest the request queue has been this run")
    tenant_depth = registry.gauge(
        "serve_tenant_queue_depth", "Requests queued per tenant",
        ("tenant",))

    def scrape(reg: MetricsRegistry) -> None:
        reg.serve_queue_depth.set(server.queue.depth)
        peak.set(server.queue.peak_depth)
        for tenant in server.queue.tenants:
            tenant_depth.labels(tenant).set(
                server.queue.tenant_depth(tenant))

    registry.register_collector(scrape)


def instrument_server(server) -> MetricsRegistry:
    """One-call setup for serving: attach + SoC + server collectors.

    Idempotent on the registry itself, but calling it twice would
    register the collectors twice — call once per server.
    """
    registry = attach_metrics(server.env)
    register_soc_collectors(registry, server.soc)
    register_server_collectors(registry, server)
    return registry
