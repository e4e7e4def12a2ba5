"""Recovery policy: how the runtime reacts to detected faults."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class RecoveryPolicy:
    """Watchdog / retry / degradation knobs for the executor.

    Passing a policy to :class:`~repro.runtime.DataflowExecutor` arms
    the watchdog on every accelerator invocation; without one the
    executor keeps the paper's original unbounded waits (and its exact
    cycle counts).

    - ``watchdog_cycles``: deadline for one invocation attempt. Must
      comfortably exceed the slowest legitimate invocation (streaming
      p2p invocations cover *all* frames of a run, so scale it with
      the batch when in doubt).
    - ``max_retries``: hardware re-invocations after the first attempt
      (device reset + registers re-programmed + re-ioctl each time).
    - ``backoff_factor``: the watchdog stretches by this per retry
      (exponential backoff, so a transiently congested fabric gets
      progressively more slack).
    - ``software_fallback``: after retries are exhausted, execute the
      node's kernel on the CPU so the pipeline still completes
      (graceful degradation). When False the failure surfaces as
      :class:`~repro.faults.NodeFailed`. A node on the CPU costs
      ``SOFTWARE_SLOWDOWN`` times its accelerator's latency per frame
      (:mod:`repro.runtime.executor`).
    - ``reset_cycles``: driver-side cost of a device reset ioctl.
    - ``max_watchdog_cycles``: ceiling for the backed-off deadline.
      Unbounded exponential backoff can stretch a single retry past
      the length of an entire campaign, which turns "retry with more
      slack" into "never give up"; the cap keeps the worst-case
      time-to-fallback bounded. ``None`` keeps backoff uncapped.
    """

    watchdog_cycles: int = 150_000
    max_retries: int = 2
    backoff_factor: float = 2.0
    software_fallback: bool = True
    reset_cycles: int = 400
    max_watchdog_cycles: Optional[int] = None

    def __post_init__(self) -> None:
        if self.watchdog_cycles < 1:
            raise ValueError("watchdog_cycles must be >= 1")
        if self.max_watchdog_cycles is not None \
                and self.max_watchdog_cycles < self.watchdog_cycles:
            raise ValueError(
                "max_watchdog_cycles must be >= watchdog_cycles "
                f"({self.max_watchdog_cycles} < {self.watchdog_cycles})")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.reset_cycles < 0:
            raise ValueError("reset_cycles must be >= 0")

    def watchdog_for(self, attempt: int) -> int:
        """Deadline for the given attempt number (0-based), capped."""
        deadline = int(self.watchdog_cycles
                       * self.backoff_factor ** attempt)
        if self.max_watchdog_cycles is not None:
            deadline = min(deadline, self.max_watchdog_cycles)
        return deadline
