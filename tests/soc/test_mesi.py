"""MESI invariants at the end of the coherence ablation runs.

Each tuner ablation SoC runs its batch with every device fully
coherent, as the ``coherent`` ledger workload does, and
``mesi_violations`` then checks the private caches against the
directory.
"""

import pytest

from repro.tune import ablation_workloads
from tests.soc.mesi import mesi_violations

WORKLOADS = {workload.name: workload for workload in ablation_workloads()}

#: An invalidation can overtake an in-flight E grant. The directory
#: grants line 162 E to (2, 0) at cycle 7512, on coh-rsp. At 7552 it
#: recalls the line from (2, 0) for a GETS from (3, 0). The recall on
#: coh-fwd lands at 7556 and (2, 0) acks it at 7558, with nothing to
#: drop: its E grant only lands, and installs, at 7567. (3, 0) is then
#: granted E as well, at 7705. Lines 162 and 187 end E at both tiles.
GRANT_RACE = ("invalidation overtakes an in-flight E grant: lines 162 "
              "and 187 end E at both (2, 0) and (3, 0)")


@pytest.mark.parametrize("name", [
    "fc-streaming",
    "llc-resident",
    pytest.param("false-sharing", marks=pytest.mark.xfail(
        strict=True, reason=GRANT_RACE)),
])
def test_ablation_runs_end_mesi_clean(name):
    workload = WORKLOADS[name]
    soc, runtime = workload.build()
    runtime.esp_run(workload.dataflow, workload.frames, mode=workload.mode,
                    coherence="fully-coherent")
    assert mesi_violations(soc) == []
