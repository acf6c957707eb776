"""Request-flow simulation over a placed multi-tier application.

Where :mod:`repro.apps.qfs_sim` replays a storage benchmark, this module
measures what a *request-serving* application experiences under a given
placement: every front-tier request fans down the tiers and back, so its
end-to-end latency is dominated by how many network hops the placement
put between communicating instances, and its throughput by the most
oversubscribed link on the way.

The model is deliberately simple and fully determined by the placement:

* **latency**: a request path samples one instance per tier (uniformly
  over the linked instances); its cost is the sum of per-hop costs along
  the placed network paths (``hop_cost_us`` per link traversal). The
  report carries the mean and worst case over all tier-respecting paths.
* **throughput**: each link's steady-state traffic is its reserved
  bandwidth; the aggregate admissible request rate scales down by the
  most oversubscribed physical link (utilization > 1 never happens when
  reservations were enforced, but the report shows the headroom).

This turns the paper's abstract objective (reserved bandwidth) into the
application-visible quantities an operator would graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, Sequence

from repro.core.placement import Placement
from repro.core.topology import ApplicationTopology
from repro.datacenter.model import Cloud
from repro.errors import ReproError


@dataclass
class PathLatencyReport:
    """Latency statistics over tier-respecting request paths.

    Attributes:
        mean_hops / max_hops: network link traversals per request.
        mean_latency_us / max_latency_us: with the per-hop cost applied.
        paths_sampled: number of distinct tier paths measured.
    """

    mean_hops: float
    max_hops: int
    mean_latency_us: float
    max_latency_us: float
    paths_sampled: int


@dataclass
class MultitierReport:
    """Results of simulating one placement.

    Attributes:
        latency: request-path latency statistics.
        max_link_utilization: reserved bandwidth of the busiest physical
            link divided by its capacity.
        colocated_link_fraction: fraction of topology links whose
            endpoints share a host (those cost zero hops).
    """

    latency: PathLatencyReport
    max_link_utilization: float
    colocated_link_fraction: float
    per_link_reserved: Dict[int, float] = field(default_factory=dict)


class MultitierSimulator:
    """Flow-level simulator bound to a tiered topology and its placement.

    Args:
        topology: a tiered application (node names ``tier<k>-...`` as the
            generators produce, or pass explicit ``tiers``).
        placement: placement covering every node.
        cloud: the physical structure.
        tiers: optional explicit tier partition (list of name lists,
            front tier first); inferred from ``tier<k>-`` prefixes when
            omitted.
        hop_cost_us: latency cost of one link traversal in microseconds.
    """

    def __init__(
        self,
        topology: ApplicationTopology,
        placement: Placement,
        cloud: Cloud,
        tiers: Sequence[Sequence[str]] = None,
        hop_cost_us: float = 20.0,
    ):
        missing = topology.nodes.keys() - placement.assignments.keys()
        if missing:
            raise ReproError(
                f"placement does not cover nodes: {sorted(missing)}"
            )
        self.topology = topology
        self.placement = placement
        self.cloud = cloud
        self.hop_cost_us = hop_cost_us
        self.tiers = (
            [list(t) for t in tiers] if tiers is not None else self._infer()
        )
        if len(self.tiers) < 2:
            raise ReproError("a multi-tier simulation needs >= 2 tiers")

    def _infer(self) -> List[List[str]]:
        by_tier: Dict[int, List[str]] = {}
        for name, node in self.topology.nodes.items():
            if not node.is_vm or not name.startswith("tier"):
                continue
            head = name.split("-", 1)[0]
            try:
                index = int(head[len("tier"):])
            except ValueError:
                continue
            by_tier.setdefault(index, []).append(name)
        return [sorted(by_tier[k]) for k in sorted(by_tier)]

    # ------------------------------------------------------------------

    def _linked(self, upper: str) -> List[str]:
        return [n for n, _ in self.topology.neighbors(upper)]

    def latency_report(self, max_paths: int = 4096) -> PathLatencyReport:
        """Latency over tier-respecting request paths.

        A path picks one instance per tier such that consecutive picks are
        linked; up to ``max_paths`` are enumerated deterministically (the
        cross product is truncated, never sampled, so reruns agree).
        """
        paths = []
        for combo in product(*self.tiers):
            ok = True
            for upper, lower in zip(combo, combo[1:]):
                if lower not in self._linked(upper):
                    ok = False
                    break
            if ok:
                paths.append(combo)
            if len(paths) >= max_paths:
                break
        if not paths:
            raise ReproError("no tier-respecting request path exists")
        hop_counts = []
        for combo in paths:
            hops = 0
            for upper, lower in zip(combo, combo[1:]):
                hops += self.cloud.hop_count(
                    self.placement.host_of(upper),
                    self.placement.host_of(lower),
                )
            # responses retrace the path
            hop_counts.append(2 * hops)
        mean_hops = sum(hop_counts) / len(hop_counts)
        max_hops = max(hop_counts)
        return PathLatencyReport(
            mean_hops=mean_hops,
            max_hops=max_hops,
            mean_latency_us=mean_hops * self.hop_cost_us,
            max_latency_us=max_hops * self.hop_cost_us,
            paths_sampled=len(paths),
        )

    def run(self) -> MultitierReport:
        """Full report: latency plus link-pressure statistics."""
        reserved: Dict[int, float] = {}
        colocated = 0
        for link in self.topology.links:
            path = self.cloud.path(
                self.placement.host_of(link.a),
                self.placement.host_of(link.b),
            )
            if not path:
                colocated += 1
            for idx in path:
                reserved[idx] = reserved.get(idx, 0.0) + link.bw_mbps
        max_util = max(
            (
                mbps / self.cloud.link_capacity_mbps[idx]
                for idx, mbps in reserved.items()
            ),
            default=0.0,
        )
        total_links = len(self.topology.links) or 1
        return MultitierReport(
            latency=self.latency_report(),
            max_link_utilization=max_util,
            colocated_link_fraction=colocated / total_links,
            per_link_reserved=reserved,
        )
