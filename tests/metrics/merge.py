"""The fleet-wide view of per-instance metric snapshots."""

from typing import Dict

from repro.metrics import MetricsError


def merge_snapshots(snapshots) -> dict:
    """Combine per-instance registry snapshots into one fleet snapshot.

    Every SoC instance keeps its own registry (its own
    ``Environment``), and a fleet-wide view concatenates their
    snapshots. Family names must be globally unique — attach
    each instance's registry with a distinct ``namespace`` — because
    two families with the same name from different instances are
    different totals, and silently keeping either (or summing them)
    would corrupt the series. A collision therefore raises
    :class:`~repro.metrics.registry.MetricsError` naming the family,
    instead of producing a quietly wrong merged snapshot.

    The merged ``cycle`` is the maximum over the parts (instances in a
    lockstep fleet agree on it anyway).
    """
    snapshots = list(snapshots)
    if not snapshots:
        raise ValueError("merge_snapshots of no snapshots")
    families = []
    owner: Dict[str, int] = {}
    for index, snap in enumerate(snapshots):
        for family in snap["families"]:
            name = family["name"]
            if name in owner:
                raise MetricsError(
                    f"family {name!r} appears in snapshot {owner[name]}"
                    f" and snapshot {index}: attach each instance's "
                    f"registry with a distinct namespace before "
                    f"merging")
            owner[name] = index
            families.append(family)
    return {"cycle": max(s["cycle"] for s in snapshots),
            "families": families}
