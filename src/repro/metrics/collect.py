"""Scrape-time collectors: counters and records -> registry series.

Everything the simulated hardware already counts — DMA transactions
and words, accelerator invocations and wrapper phases, NoC packets and
flit-hops, link and tile occupancy, memory traffic — is counted
exactly once, by the owning component, and re-recording it per
operation would duplicate that work. So is every request-level fact
of the serve layer, in the server's records. Collectors are callables
registered on the :class:`MetricsRegistry` that copy those counters
and records into the standard series whenever somebody scrapes (an
exporter, a dashboard frame, a health-monitor evaluation, which is
each :class:`~repro.metrics.health.MetricsSampler` tick), so those
families report since-boot totals, however late the registry was
attached.

Collectors read simulation state and write registry series; they must
never schedule events or advance the clock — they run outside the
timing model entirely, like reading ESP's status registers over the
slow IO plane after the fact.
"""

from __future__ import annotations

from typing import Dict

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

    # "x,y->x,y" per link, formatted on the link's first scrape.
    link_labels: Dict[object, str] = {}

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
        for (src, dst, plane), link in mesh.built_links():
            if link.flits_carried == 0 and link.channel.busy_cycles == 0:
                continue   # keep untouched links out of the exposition
            label = link_labels.get(link)
            if label is None:
                label = link_labels[link] = \
                    f"{src[0]},{src[1]}->{dst[0]},{dst[1]}"
            link_busy.labels(label, plane).set(link.channel.busy_cycles)
            link_util.labels(label, plane).set(
                round(link.channel.utilization(), 6))
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
    """Fill every ``serve_*`` family from an :class:`InferenceServer`'s
    admission, outcome and dispatch records, plus gauges for the report
    window's peak queue depth and each tenant's depth. A scrape reads
    only the records the last one had not seen, in record order, so
    histogram buckets and exemplars match hot-path recording."""
    peak = registry.gauge(
        "serve_queue_peak_depth",
        "Deepest the request queue has been this run")
    tenant_depth = registry.gauge(
        "serve_tenant_queue_depth", "Requests queued per tenant",
        ("tenant",))
    seen: dict = {}

    def fresh(kind: str, records: list) -> list:
        start, seen[kind] = seen.get(kind, 0), len(records)
        return records[start:]

    def scrape(reg: MetricsRegistry) -> None:
        queue = server.queue
        for tenant, _ in fresh("admissions", queue.admissions):
            reg.serve_admitted.labels(tenant).inc()
        for done in fresh("completions", server.completions):
            tenant = done.tenant
            reg.serve_completed.labels(tenant).inc()
            reg.serve_frames.labels(tenant).inc(done.n_frames)
            reg.serve_request_cycles.labels(tenant).observe(
                done.latency_cycles, exemplar=done.trace_id)
            reg.serve_queue_wait_cycles.labels(tenant).observe(
                done.queue_cycles, exemplar=done.trace_id)
        for failure in fresh("failures", server.failures):
            reg.serve_failed.labels(failure.tenant).inc()
        for rejection in fresh("rejections", server.rejections):
            reg.serve_rejected.labels(rejection.tenant,
                                      rejection.reason).inc()
        for tenant, _ in fresh("dispatches", server.dispatches):
            reg.serve_batches.labels(tenant).inc()
        reg.serve_queue_depth.set(queue.depth)
        peak.set(server.peak_queue_depth)
        for tenant in queue.tenants:
            tenant_depth.labels(tenant).set(queue.tenant_depth(tenant))

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
