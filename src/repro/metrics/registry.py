"""The live metrics registry: labeled counters, gauges and histograms.

The tracing subsystem (:mod:`repro.trace`) answers *what happened* by
logging every event; this module answers *how is it going right now*
by keeping aggregated series the way a production inference server's
telemetry stack does (cf. NVDLA's CSB status interface and VTA's
runtime instrumentation counters). One :class:`MetricsRegistry`
attaches to the simulation :class:`~repro.sim.Environment`; every
layer of the stack is visible through it in three series kinds:

- :class:`Counter` — monotonically increasing totals (packets, DMA
  words, admissions, watchdog timeouts);
- :class:`Gauge` — instantaneous values (queue depth, last-progress
  cycle, link utilization);
- :class:`Histogram` — distributions over fixed log-spaced buckets
  (invocation latency, end-to-end request latency).

Design rules (the same contract as the tracer and the fault hooks):

- **Zero timing impact.** Recording never yields, never schedules an
  event and never advances the clock: a metrics-enabled run is
  cycle-for-cycle *and event-for-event* identical to a metrics-off
  run. Only the opt-in :class:`~repro.metrics.health.MetricsSampler`
  schedules anything, and even it only adds its own timeout events —
  it cannot perturb the timing of other processes.
- **O(1), allocation-free hot path.** ``Counter.inc`` and
  ``Gauge.set`` are single integer/float updates on a slotted object;
  ``Histogram.observe`` finds its bucket with one ``bit_length`` call
  (every histogram uses the power-of-two ``CYCLE_BUCKETS``). No
  record objects are created per event — that is the difference from
  the tracer, and why metrics can stay on in production-sized runs.
- **Near-zero overhead when disabled.** Instrumentation sites guard
  with ``env.metrics is None`` — one attribute load and a pointer
  compare.

The registry pre-creates the standard families as attributes. The
hardware families (NoC, DMA, accelerator) are scrape-time views of
the counters the simulated hardware keeps
(:func:`~repro.metrics.collect.register_soc_collectors`), and the
``serve_*`` families scrape-time views of the server's request
records (:func:`~repro.metrics.collect.register_server_collectors`),
so neither costs the hot path anything; nor do the ``control_*``
families, scrape-time views of the control plane's action log. Only
the ``runtime_*`` families (the executor's ``_count``; no record of a
recovery outcome outlives its plan) are recorded on the hot path, one
attribute load plus one dict lookup per site.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional, Sequence, Tuple

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: The histogram buckets of every family (all observations are cycle
#: counts): log-spaced powers of two from 1 to 2^24 cycles.
#: Power-of-two spacing makes ``observe`` O(1) (one ``bit_length``)
#: and bounds the relative error of any bucket-interpolated quantile
#: by a factor of two (see
#: :meth:`repro.eval.harness.LatencySummary.from_histogram`).
CYCLE_BUCKETS: Tuple[int, ...] = tuple(1 << k for k in range(25))


class MetricsError(Exception):
    """Raised for registry misuse (name clash, label mismatch, ...)."""


class CounterSeries:
    """One labeled child of a :class:`Counter`: a monotonic total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise MetricsError(f"counter decremented by {amount}")
        self.value += amount


class GaugeSeries:
    """One labeled child of a :class:`Gauge`: an instantaneous value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def inc(self, amount=1) -> None:
        self.value += amount


class HistogramSeries:
    """One labeled child of a :class:`Histogram`.

    ``counts[i]`` is the number of observations in bucket ``i`` — the
    *non-cumulative* per-bucket count; ``counts[-1]`` is the overflow
    (``+Inf``) bucket. The Prometheus exporter cumulates at exposition
    time, so recording stays a single ``+= 1``.

    Exemplars: an observation may carry a trace ID; the series keeps
    the *last* ``(trace_id, value)`` per bucket (OpenMetrics-style
    exemplars), which is what links a bad latency percentile back to
    one replayable request timeline. Storage is lazy — a series never
    given an exemplar holds a single ``None``.
    """

    __slots__ = ("counts", "sum", "count", "max", "exemplars")

    #: Upper bucket bounds (the ``+Inf`` overflow bucket is implicit).
    bounds = CYCLE_BUCKETS

    def __init__(self) -> None:
        self.counts = [0] * (len(CYCLE_BUCKETS) + 1)
        self.sum = 0
        self.count = 0
        #: Exact maximum observed value (one compare per observation;
        #: lets summaries report a true max instead of a bucket edge).
        self.max = 0
        #: Lazily created ``{bucket_index: (trace_id, value)}``.
        self.exemplars = None

    def observe(self, value, exemplar=None) -> None:
        self.count += 1
        self.sum += value
        if value > self.max:
            self.max = value
        index = self.bucket_index(value)
        self.counts[index] += 1
        if exemplar is not None:
            if self.exemplars is None:
                self.exemplars = {}
            self.exemplars[index] = (exemplar, value)

    def bucket_index(self, value) -> int:
        """The bucket an observation of ``value`` would land in.

        Smallest i with value <= 2**i, in O(1): for v >= 1,
        (v - 1).bit_length() == ceil(log2(v)); past the last bound,
        the overflow bucket."""
        v = int(value)
        index = 0 if v <= 1 else (v - 1).bit_length()
        return min(index, len(CYCLE_BUCKETS))

    def fraction_over(self, threshold) -> float:
        """Fraction of observations strictly above ``threshold``.

        Exact when ``threshold`` is a bucket bound; otherwise
        conservative (an observation sharing the threshold's bucket
        counts as *over*) — an SLO evaluated through this never
        under-reports a violation.
        """
        if self.count == 0:
            return 0.0
        index = self.bucket_index(threshold)
        if index < len(self.bounds) and self.bounds[index] == threshold:
            index += 1
        under = sum(self.counts[:index])
        return (self.count - under) / self.count


class MetricFamily:
    """Base of the three family kinds: a named, labeled series set."""

    kind = "untyped"

    def __init__(self, name: str, help: str,
                 label_names: Sequence[str] = ()) -> None:
        if not _NAME_RE.match(name):
            raise MetricsError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label) or label.startswith("__"):
                raise MetricsError(f"invalid label name {label!r}")
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._series: Dict[Tuple[str, ...], object] = {}

    def _make_series(self):
        raise NotImplementedError

    def labels(self, *values: str):
        """The child series for one label-value combination (cached)."""
        series = self._series.get(values)
        if series is None:
            if len(values) != len(self.label_names):
                raise MetricsError(
                    f"{self.name}: expected {len(self.label_names)} "
                    f"label values {self.label_names}, got {values!r}")
            series = self._series[values] = self._make_series()
        return series

    def find(self, *values: str):
        """The child series for ``values``, or ``None``: unlike
        :meth:`labels`, reading through it never creates a series."""
        return self._series.get(values)

    def series(self) -> List[Tuple[Tuple[str, ...], object]]:
        """Every (label values, series) pair, in stable sorted order."""
        return sorted(self._series.items(),
                      key=lambda item: tuple(map(str, item[0])))

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {self.name!r} "
                f"{len(self._series)} series>")


class Counter(MetricFamily):
    """A family of monotonically increasing totals."""

    kind = "counter"

    def _make_series(self) -> CounterSeries:
        return CounterSeries()

    def inc(self, amount: int = 1) -> None:
        """Increment the unlabeled series (labelless families only)."""
        self.labels().inc(amount)

    @property
    def total(self):
        """Sum over every labeled series."""
        return sum(s.value for s in self._series.values())


class Gauge(MetricFamily):
    """A family of instantaneous values."""

    kind = "gauge"

    def _make_series(self) -> GaugeSeries:
        return GaugeSeries()

    def set(self, value) -> None:
        self.labels().set(value)

    @property
    def value(self):
        """The unlabeled series' value (labelless families only)."""
        return self.labels().value


class Histogram(MetricFamily):
    """A family of distributions over the fixed ``CYCLE_BUCKETS``."""

    kind = "histogram"

    def _make_series(self) -> HistogramSeries:
        return HistogramSeries()

    def observe(self, value, exemplar=None) -> None:
        self.labels().observe(value, exemplar=exemplar)


class MetricsRegistry:
    """All metric families of one simulation, plus scrape collectors.

    Attach with :func:`attach_metrics`; the runtime and control
    sites then record into the pre-created standard families. A
    *collector* is a callable run at scrape time (:meth:`collect`,
    :meth:`snapshot`, health evaluation) to refresh series from state
    the hot path never touches — hardware counters and the server's
    request records. Collectors read state; they must never schedule
    simulation events.
    """

    def __init__(self, env, namespace: Optional[str] = None) -> None:
        if namespace is not None and (not _LABEL_RE.match(namespace)
                                      or namespace.startswith("__")):
            raise MetricsError(f"invalid namespace {namespace!r}")
        self.env = env
        #: Optional per-registry prefix applied to every family name.
        #: A fleet attaches one registry per SoC instance; without a
        #: namespace, scraping N instances into one snapshot would
        #: silently collide identical series (``serve_admitted_total``
        #: from instance 0 vs instance 3 are different totals). With
        #: ``namespace="i3"`` the family is ``i3_serve_admitted_total``
        #: — distinct by construction, and
        #: :func:`~repro.metrics.export.to_prometheus` needs no
        #: dedup logic. Hot sites are unaffected: they record through
        #: the pre-created attribute families, whatever their names.
        self.namespace = namespace
        self._families: Dict[str, MetricFamily] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []

        # -- standard instrumentation schema: the NoC/DMA/accelerator
        # families are filled at scrape time by the SoC collectors; the
        # rest are recorded inline (attributes: one load instead of a
        # string lookup per event) --
        self.noc_packets = self.counter(
            "noc_packets_total", "Packets delivered, per NoC plane",
            ("plane",))
        self.noc_flits = self.counter(
            "noc_flit_hops_total", "Flit-hops carried, per NoC plane",
            ("plane",))
        self.noc_dropped = self.counter(
            "noc_packets_dropped_total",
            "Packets lost to injected delivery faults", ("plane",))
        self.noc_corrupted = self.counter(
            "noc_packets_corrupted_total",
            "Packets discarded by the link-level CRC", ("plane",))
        self.dma_transactions = self.counter(
            "dma_transactions_total",
            "DMA engine transactions, per device and operation",
            ("device", "op"))
        self.dma_words = self.counter(
            "dma_words_total", "Words moved by the DMA engine",
            ("device", "op"))
        self.dma_stalls = self.counter(
            "dma_stalls_injected_total",
            "Injected DMA stalls (fault campaigns)", ("device",))
        self.acc_invocations = self.counter(
            "acc_invocations_total", "Completed accelerator invocations",
            ("device",))
        self.acc_invocation_cycles = self.histogram(
            "acc_invocation_cycles",
            "End-to-end invocation latency, in cycles", ("device",))
        self.acc_phase_cycles = self.counter(
            "acc_phase_cycles_total",
            "Wrapper cycles spent per LOAD/COMPUTE/STORE phase",
            ("device", "phase"))
        self.acc_crashes = self.counter(
            "acc_kernel_crashes_total",
            "Kernel crashes surfaced through STATUS_ERROR", ("device",))
        self.acc_resets = self.counter(
            "acc_host_resets_total",
            "Host-driven CMD_RESET aborts", ("device",))
        self.acc_last_progress = self.gauge(
            "acc_last_progress_cycle",
            "Cycle of the device's last completed DMA transaction or "
            "invocation (the stall-detection heartbeat)", ("device",))
        self.serve_admitted = self.counter(
            "serve_admitted_total", "Requests past admission control",
            ("tenant",))
        self.serve_rejected = self.counter(
            "serve_rejected_total", "Requests rejected, by reason",
            ("tenant", "reason"))
        self.serve_completed = self.counter(
            "serve_completed_total", "Requests served to completion",
            ("tenant",))
        self.serve_failed = self.counter(
            "serve_failed_total",
            "Requests failed past every recovery layer", ("tenant",))
        self.serve_frames = self.counter(
            "serve_frames_total", "Frames served to completion",
            ("tenant",))
        self.serve_batches = self.counter(
            "serve_batches_total", "Coalesced batches dispatched",
            ("tenant",))
        self.serve_queue_depth = self.gauge(
            "serve_queue_depth", "Requests currently queued, all tenants")
        self.serve_request_cycles = self.histogram(
            "serve_request_cycles",
            "End-to-end (submit-to-complete) request latency, in cycles",
            ("tenant",))
        self.serve_queue_wait_cycles = self.histogram(
            "serve_queue_wait_cycles",
            "Admission-to-dispatch queueing latency, in cycles",
            ("tenant",))
        self.watchdog_timeouts = self.counter(
            "runtime_watchdog_timeouts_total",
            "Invocation watchdogs that expired")
        self.retries = self.counter(
            "runtime_retries_total", "Bounded-retry re-invocations")
        self.degraded_runs = self.counter(
            "runtime_degraded_runs_total",
            "Runs degraded to the CPU software fallback")
        self.control_actions = self.counter(
            "control_actions_total",
            "Remediation actions the control plane attempted, by "
            "action kind and outcome", ("action", "outcome"))
        self.control_last_action = self.gauge(
            "control_last_action_cycle",
            "Cycle of the control plane's last applied action, by "
            "action kind", ("action",))

    # -- family creation ---------------------------------------------------

    def qualify(self, name: str) -> str:
        """``name`` with this registry's namespace prefix applied."""
        if self.namespace is None or name.startswith(
                f"{self.namespace}_"):
            return name
        return f"{self.namespace}_{name}"

    def _register(self, family: MetricFamily) -> MetricFamily:
        existing = self._families.get(family.name)
        if existing is not None:
            if (existing.kind != family.kind
                    or existing.label_names != family.label_names):
                raise MetricsError(
                    f"metric {family.name!r} re-registered as "
                    f"{family.kind}{family.label_names} but exists as "
                    f"{existing.kind}{existing.label_names}")
            return existing
        self._families[family.name] = family
        return family

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> Counter:
        """Get or create a counter family (idempotent)."""
        return self._register(Counter(self.qualify(name), help, labels))

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> Gauge:
        """Get or create a gauge family (idempotent)."""
        return self._register(Gauge(self.qualify(name), help, labels))

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = ()) -> Histogram:
        """Get or create a histogram family (idempotent)."""
        return self._register(Histogram(self.qualify(name), help, labels))

    def get(self, name: str) -> MetricFamily:
        """Look up a family by name; the bare (un-namespaced) name
        works too, so callers written against the standard schema
        (SLO rules, dashboards) run unchanged on namespaced registries."""
        family = self._families.get(name)
        if family is None:
            family = self._families.get(self.qualify(name))
        if family is None:
            raise KeyError(f"no metric named {name!r}; families: "
                           f"{sorted(self._families)}")
        return family

    @property
    def families(self) -> List[MetricFamily]:
        return list(self._families.values())

    # -- scraping ----------------------------------------------------------

    def register_collector(
            self, fn: Callable[["MetricsRegistry"], None]) -> None:
        """Add a scrape-time refresher (runs on every collect)."""
        self._collectors.append(fn)

    def run_collectors(self) -> None:
        for fn in self._collectors:
            fn(self)

    def collect(self) -> List[MetricFamily]:
        """Refresh collector-backed gauges, then return every family."""
        self.run_collectors()
        return self.families

    def snapshot(self) -> dict:
        """A JSON-able snapshot of every series, at the current cycle."""
        families = []
        for family in self.collect():
            series = []
            for values, child in family.series():
                labels = dict(zip(family.label_names, values))
                if family.kind == "histogram":
                    entry = {
                        "labels": labels,
                        "buckets": list(child.counts),
                        "bounds": list(child.bounds),
                        "sum": child.sum,
                        "count": child.count,
                        "max": child.max,
                    }
                    if child.exemplars:
                        entry["exemplars"] = {
                            str(i): [tid, value]
                            for i, (tid, value)
                            in sorted(child.exemplars.items())}
                    series.append(entry)
                else:
                    series.append({"labels": labels,
                                   "value": child.value})
            families.append({
                "name": family.name,
                "kind": family.kind,
                "help": family.help,
                "label_names": list(family.label_names),
                "series": series,
            })
        return {"cycle": self.env.now, "families": families}

    def __repr__(self) -> str:
        series = sum(len(f._series) for f in self._families.values())
        return (f"<MetricsRegistry {len(self._families)} families, "
                f"{series} series, {len(self._collectors)} collectors>")


def _environment_of(target):
    env = getattr(target, "env", None)
    return env if env is not None else target


def attach_metrics(target,
                   namespace: Optional[str] = None) -> MetricsRegistry:
    """Create a :class:`MetricsRegistry` and attach it to the environment.

    ``target`` may be an :class:`~repro.sim.Environment` or anything
    carrying one as ``.env`` (a SoC instance, a runtime, a server).
    ``namespace`` prefixes every family name — required when scraping
    several environments (a fleet of SoC instances) into one snapshot,
    since identical names from different registries would otherwise
    collide. Idempotent: an already-attached registry is returned
    unchanged (asking for a *different* namespace than the attached
    one is a :class:`MetricsError`, not a silent re-label).
    """
    env = _environment_of(target)
    existing = getattr(env, "metrics", None)
    if existing is not None:
        if namespace is not None and existing.namespace != namespace:
            raise MetricsError(
                f"environment already has a registry with namespace "
                f"{existing.namespace!r}; refusing to re-attach as "
                f"{namespace!r}")
        return existing
    env.metrics = MetricsRegistry(env, namespace=namespace)
    return env.metrics
