"""A NoC traffic report for one simulation run."""

from dataclasses import dataclass
from typing import Dict

from repro.noc import Mesh2D, MessageKind


@dataclass(frozen=True)
class NocReport:
    """Snapshot of NoC activity for one simulation run."""

    packets_delivered: int
    flit_hops: int
    average_latency: float
    plane_flits: Dict[str, int]
    delivered_by_kind: Dict[str, int]

    def to_text(self) -> str:
        lines = [
            f"packets delivered: {self.packets_delivered}",
            f"flit-hops:         {self.flit_hops}",
            f"avg latency:       {self.average_latency:.1f} cycles",
            "flits per plane:",
        ]
        for plane, flits in sorted(self.plane_flits.items()):
            lines.append(f"  {plane:<10}{flits}")
        lines.append("packets per kind:")
        for kind, count in sorted(self.delivered_by_kind.items()):
            lines.append(f"  {kind:<10}{count}")
        return "\n".join(lines)


def collect_report(mesh: Mesh2D) -> NocReport:
    return NocReport(
        packets_delivered=mesh.packets_delivered,
        flit_hops=mesh.flit_hops,
        average_latency=(mesh.total_latency / mesh.packets_delivered
                         if mesh.packets_delivered else 0.0),
        plane_flits=mesh.plane_flits(),
        delivered_by_kind={MessageKind[name].value: count
                           for name, count
                           in mesh._delivered_by_name.items()},
    )
