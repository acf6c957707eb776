"""Synthetic QFS benchmark over a placement (the Section IV-A experiment).

The paper's testbed experiment deploys a real QFS cluster and runs a
distributed-file-system benchmark from the client VM. The physical testbed
is substituted here by a flow-level simulation that exercises the same
code path end to end:

1. A file of N chunks is written: for every chunk, the client streams to a
   chunk server (client -> chunk flow), the chunk server persists to its
   volume (chunk -> volume flow), and a metadata update flows between
   client and meta server. Reads reverse the data direction (bandwidth on
   our undirected links is direction-agnostic).
2. Every flow is routed over the *placed* hosts' network paths, and its
   per-link footprint is compared against (a) the application's
   reservations and (b) the links' raw capacities.
3. The benchmark reports the bottleneck-limited aggregate throughput, so
   placements that spread chunk servers across starved links measurably
   hurt -- the observable the paper's experiment is about.

This is the documented substitution for the physical testbed (DESIGN.md):
placement quality metrics (reserved bandwidth, hosts) are computed exactly;
the benchmark validates that reservations are honored and translates
placement into an application-visible throughput number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.placement import Placement
from repro.core.topology import ApplicationTopology
from repro.datacenter.model import Cloud
from repro.errors import ReproError


@dataclass
class BenchmarkReport:
    """Results of one synthetic QFS benchmark run.

    Attributes:
        chunks_written: chunks streamed during the write phase.
        flows: number of distinct (src, dst) flows generated.
        max_link_utilization: peak fraction of any link's *capacity* used
            by the benchmark's steady-state traffic.
        reservation_violations: links where traffic exceeded the
            application's reserved bandwidth (must be empty for a correct
            placement -- QFS throttles to its reservations).
        aggregate_throughput_mbps: bottleneck-limited total client
            throughput across all chunk streams.
        per_link_traffic: link index -> steady-state Mbps (diagnostics).
    """

    chunks_written: int
    flows: int
    max_link_utilization: float
    reservation_violations: List[int]
    aggregate_throughput_mbps: float
    per_link_traffic: Dict[int, float] = field(default_factory=dict)


class QFSBenchmark:
    """Flow-level QFS benchmark bound to a topology and its placement.

    Args:
        topology: the QFS application topology (see
            :func:`repro.workloads.qfs.build_qfs`).
        placement: a placement covering every topology node.
        cloud: the physical structure the placement refers to.
    """

    def __init__(
        self,
        topology: ApplicationTopology,
        placement: Placement,
        cloud: Cloud,
    ):
        missing = topology.nodes.keys() - placement.assignments.keys()
        if missing:
            raise ReproError(
                f"placement does not cover QFS nodes: {sorted(missing)}"
            )
        self.topology = topology
        self.placement = placement
        self.cloud = cloud
        self.chunk_servers = sorted(
            name
            for name, node in topology.nodes.items()
            if node.is_vm and name.startswith("chunk") and "vol" not in name
        )
        if not self.chunk_servers:
            raise ReproError("topology has no chunk servers")

    # ------------------------------------------------------------------

    def _link_bw(self, a: str, b: str) -> float:
        for neighbor, bw in self.topology.neighbors(a):
            if neighbor == b:
                return bw
        return 0.0

    def _volume_of(self, server: str) -> str:
        for neighbor, _ in self.topology.neighbors(server):
            if not self.topology.node(neighbor).is_vm:
                return neighbor
        raise ReproError(f"chunk server {server!r} has no volume")

    def steady_state_flows(self) -> List[Tuple[str, str, float]]:
        """Node-level flows of the benchmark at full offered load.

        The client stripes chunks round-robin over every chunk server, so
        in steady state each (client -> chunk server), (chunk server ->
        volume), and (client/meta control) link carries its reserved
        bandwidth.
        """
        flows: List[Tuple[str, str, float]] = []
        for server in self.chunk_servers:
            flows.append(("client", server, self._link_bw("client", server)))
            volume = self._volume_of(server)
            flows.append((server, volume, self._link_bw(server, volume)))
            meta_bw = self._link_bw("meta", server)
            if meta_bw > 0:
                flows.append(("meta", server, meta_bw))
        client_meta = self._link_bw("client", "meta")
        if client_meta > 0:
            flows.append(("client", "meta", client_meta))
        return flows

    def run(self, chunks: int = 120) -> BenchmarkReport:
        """Execute the benchmark and validate against the placement.

        Args:
            chunks: number of chunks written (spread round-robin).
        """
        flows = self.steady_state_flows()
        traffic: Dict[int, float] = {}
        reserved: Dict[int, float] = {}
        for link in self.topology.links:
            path = self.cloud.path(
                self.placement.host_of(link.a), self.placement.host_of(link.b)
            )
            for idx in path:
                reserved[idx] = reserved.get(idx, 0.0) + link.bw_mbps
        for a, b, mbps in flows:
            path = self.cloud.path(
                self.placement.host_of(a), self.placement.host_of(b)
            )
            for idx in path:
                traffic[idx] = traffic.get(idx, 0.0) + mbps

        violations = [
            idx
            for idx, used in traffic.items()
            if used > reserved.get(idx, 0.0) + 1e-9
        ]
        max_utilization = max(
            (
                used / self.cloud.link_capacity_mbps[idx]
                for idx, used in traffic.items()
            ),
            default=0.0,
        )

        # Bottleneck model: each chunk stream is capped by the scarcest
        # *capacity* share along its path (uniform share per competing
        # stream), and by its reservation.
        streams = 0.0
        for server in self.chunk_servers:
            rate = self._link_bw("client", server)
            path = self.cloud.path(
                self.placement.host_of("client"),
                self.placement.host_of(server),
            )
            for idx in path:
                capacity = self.cloud.link_capacity_mbps[idx]
                competing = traffic.get(idx, 0.0)
                if competing > capacity:
                    rate = min(rate, rate * capacity / competing)
            streams += rate
        return BenchmarkReport(
            chunks_written=chunks,
            flows=len(flows),
            max_link_utilization=max_utilization,
            reservation_violations=sorted(violations),
            aggregate_throughput_mbps=streams,
            per_link_traffic=traffic,
        )
