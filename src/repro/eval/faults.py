"""Fault-injection campaigns over the Fig. 7 pipelines.

The robustness evaluation: sweep fault kinds x rates over a three-stage
SoC-1 pipeline (Denoiser -> Night-Vision -> Classifier, the deepest
chain the SoC hosts) and measure whether the runtime's watchdog /
retry / graceful-degradation machinery delivers bit-exact outputs, and
at what cycle cost. Each configuration runs on a fresh SoC so the
campaign is deterministic and runs are independent.

A run counts as *recovered* when its outputs are bit-exact with the
fault-free golden outputs, allowing one application-level retry — the
application's own defense (re-running ``esp_run``) which is what clears
silent DRAM upsets that no watchdog can see.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RecoveryPolicy,
)
from ..runtime import Dataflow, EspRuntime, chain
from .apps import build_soc1, de_cl_inputs
from .harness import LatencySummary, summarize_latencies

#: The three-stage Fig. 7 pipeline the campaign exercises.
CHAIN3_DEVICES = ("de0", "nv0", "cl0")

#: Execution modes under test: the threaded DMA pipeline and the p2p
#: streaming pipeline (the two recovery regimes — per-frame retry vs
#: whole-run degradation).
CAMPAIGN_MODES = ("pipe", "p2p")

#: Per-opportunity fault probabilities swept by the campaign.
CAMPAIGN_RATES = (2e-4, 1e-3)

#: Frames per campaign run: small enough that the full sweep stays in
#: benchmark territory, large enough that every pipeline stage overlaps.
CAMPAIGN_FRAMES = 4

#: Application-level re-runs a cell gets before it counts as
#: unrecovered.
APP_RETRIES = 1

#: Watchdog slack added on top of the fault-free run length.
WATCHDOG_SLACK = 50_000

#: Per-opportunity probability normalization. Fault sites present
#: wildly different opportunity counts per run (hundreds of packet
#: deliveries vs a single accelerator invocation of the targeted
#: node), so the swept rate — a workload-level fault intensity — is
#: scaled up per site class to yield comparable expected firings. At
#: the top default rate (1e-3) a device-level fault is certain to
#: strike its first opportunity.
OPPORTUNITY_BOOST = {
    "link_drop": 50.0,
    "link_corrupt": 50.0,
    "dram_bitflip": 1000.0,
    "dma_stall": 1000.0,
    "p2p_req_drop": 1000.0,
    "acc_hang": 1000.0,
    "acc_crash": 1000.0,
    "acc_slow": 1000.0,
}


def chain3_dataflow() -> Dataflow:
    """Denoiser -> Night-Vision -> Classifier on SoC-1."""
    return chain("de_nv_cl", list(CHAIN3_DEVICES))


def campaign_policy(baseline_cycles: int) -> RecoveryPolicy:
    """A recovery policy sized to the workload.

    The watchdog must outlast the longest legitimate invocation; a p2p
    streaming invocation spans the whole run, so the fault-free run
    length plus slack is the natural bound.
    """
    return RecoveryPolicy(watchdog_cycles=baseline_cycles + WATCHDOG_SLACK,
                          max_retries=2)


def fault_specs_for(kind: str, rate: float,
                    target: Optional[str] = "nv0"
                    ) -> Tuple[FaultSpec, ...]:
    """The default spec for one swept fault kind at one intensity.

    Accelerator and DMA faults strike the middle pipeline stage (the
    hardest case: both neighbours are mid-flight); NoC and DRAM faults
    strike whichever delivery / load the seeded draw selects. Every
    spec is a single transient (``count=1``): each campaign cell asks
    "one fault strikes — does the stack recover?", and a silently
    corrupted run (a dropped posted store, a DRAM upset) is repaired
    by the application-level retry precisely because the transient
    does not recur.
    """
    probability = min(1.0, rate * OPPORTUNITY_BOOST[kind])
    target = target if kind.startswith(("acc", "dma")) else None
    return (FaultSpec(kind=kind, target=target, probability=probability,
                      count=1),)


@dataclass
class FaultRunRecord:
    """One campaign cell: a (kind, rate, mode) run and its outcome."""

    kind: str
    mode: str
    rate: float
    recovered: bool
    bit_exact_first_try: bool
    cycles: int             # cumulative over app-level retries
    baseline_cycles: int
    faults_fired: int
    retries: int
    watchdog_timeouts: int
    software_frames: int
    degraded: bool
    app_retries: int

    @property
    def overhead_cycles(self) -> int:
        return self.cycles - self.baseline_cycles

    @property
    def overhead_pct(self) -> float:
        return 100.0 * self.overhead_cycles / self.baseline_cycles


@dataclass
class CampaignReport:
    """Everything a fault campaign measured."""

    records: List[FaultRunRecord] = field(default_factory=list)
    baselines: Dict[str, int] = field(default_factory=dict)

    @property
    def recovery_rate(self) -> float:
        if not self.records:
            return 1.0
        return sum(r.recovered for r in self.records) / len(self.records)

    @property
    def faults_fired(self) -> int:
        return sum(r.faults_fired for r in self.records)

    def overhead_by_kind(self) -> Dict[str, LatencySummary]:
        """Cycle-overhead (%) distribution per fault kind, over firing
        runs — the shared :class:`LatencySummary` aggregate, so the
        campaign reports tails, not just means."""
        samples: Dict[str, List[float]] = {}
        for record in self.records:
            if record.faults_fired:
                samples.setdefault(record.kind, []).append(
                    record.overhead_pct)
        return {kind: summarize_latencies(v)
                for kind, v in sorted(samples.items())}

    def render(self) -> str:
        header = (f"{'fault':<14} {'rate':>8} {'mode':>5} {'fired':>5} "
                  f"{'recovered':>9} {'retry':>5} {'wdog':>4} {'sw':>3} "
                  f"{'degr':>4} {'overhead':>9}")
        lines = [header, "-" * len(header)]
        for r in self.records:
            lines.append(
                f"{r.kind:<14} {r.rate:>8.0e} {r.mode:>5} "
                f"{r.faults_fired:>5} {str(r.recovered):>9} "
                f"{r.retries:>5} {r.watchdog_timeouts:>4} "
                f"{r.software_frames:>3} {str(r.degraded):>4} "
                f"{r.overhead_pct:>8.1f}%")
        lines.append("-" * len(header))
        lines.append(f"recovery rate: {100 * self.recovery_rate:.1f}% "
                     f"({sum(r.recovered for r in self.records)}/"
                     f"{len(self.records)} runs), "
                     f"{self.faults_fired} faults fired")
        return "\n".join(lines)


def _fresh_runtime(recovery: Optional[RecoveryPolicy] = None,
                   plan: Optional[FaultPlan] = None
                   ) -> Tuple[EspRuntime, Optional[FaultInjector]]:
    soc = build_soc1()
    runtime = EspRuntime(soc, recovery=recovery)
    injector = None
    if plan is not None:
        injector = FaultInjector(plan).attach(soc)
    return runtime, injector


def golden_run(frames: np.ndarray, mode: str
               ) -> Tuple[np.ndarray, int]:
    """Fault-free reference outputs and cycles (no recovery armed)."""
    runtime, _ = _fresh_runtime()
    result = runtime.esp_run(chain3_dataflow(), frames, mode=mode)
    return result.outputs, result.cycles


def run_fault_campaign() -> CampaignReport:
    """Sweep fault kinds x rates x modes over the 3-stage pipeline.

    Each cell builds a fresh SoC, arms the recovery policy, attaches a
    single-transient fault plan and runs the full batch; outputs are
    compared bit-exactly against the fault-free golden run. A mismatch
    is given ``APP_RETRIES`` application-level re-runs (fresh buffers,
    same SoC) before the cell counts as unrecovered.
    """
    frames, _ = de_cl_inputs(CAMPAIGN_FRAMES)
    report = CampaignReport()
    goldens: Dict[str, np.ndarray] = {}
    for mode in CAMPAIGN_MODES:
        golden, cycles = golden_run(frames, mode)
        goldens[mode] = golden
        report.baselines[mode] = cycles

    for kind in FAULT_KINDS:
        for rate in CAMPAIGN_RATES:
            for mode in CAMPAIGN_MODES:
                if kind == "p2p_req_drop" and mode != "p2p":
                    continue   # the fault site only exists on p2p loads
                policy = campaign_policy(report.baselines[mode])
                cell = zlib.crc32(f"{kind}:{mode}:{rate}".encode())
                plan = FaultPlan(fault_specs_for(kind, rate),
                                 seed=cell % 100_000)
                runtime, injector = _fresh_runtime(policy, plan)
                dataflow = chain3_dataflow()
                results = [runtime.esp_run(dataflow, frames, mode=mode)]
                first_exact = bool(np.array_equal(results[0].outputs,
                                                  goldens[mode]))
                recovered = first_exact
                while not recovered and len(results) <= APP_RETRIES:
                    results.append(
                        runtime.esp_run(dataflow, frames, mode=mode))
                    recovered = bool(np.array_equal(results[-1].outputs,
                                                    goldens[mode]))
                record = FaultRunRecord(
                    kind=kind, mode=mode, rate=rate,
                    recovered=recovered,
                    bit_exact_first_try=first_exact,
                    cycles=sum(r.cycles for r in results),
                    baseline_cycles=report.baselines[mode],
                    faults_fired=plan.fired,
                    retries=sum(r.retries for r in results),
                    watchdog_timeouts=sum(r.watchdog_timeouts
                                          for r in results),
                    software_frames=sum(r.software_frames
                                        for r in results),
                    degraded=any(r.degraded for r in results),
                    app_retries=len(results) - 1,
                )
                report.records.append(record)
    return report
