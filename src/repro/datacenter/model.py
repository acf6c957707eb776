"""Static structure of a hierarchical data center (paper Fig. 3).

The physical hierarchy is::

    Cloud (root / WAN interconnect)
      DataCenter (root switch)
        [Pod (pod switch)]      -- optional layer; the paper's simulation
          Rack (ToR switch)     --   omits pods "for simplicity"
            Host
              Disk(s)

Each element that carries network traffic owns an *uplink*: hosts have a NIC
link to their ToR switch, racks an uplink to the pod switch (or directly to
the data-center root when pods are absent), pods an uplink to the root, and
data centers an uplink into the cloud interconnect. Every such link gets a
global integer index so the mutable availability state
(:mod:`repro.datacenter.state`) can track free bandwidth in a flat array.

Separation levels
-----------------

:class:`Level` enumerates the diversity-zone levels of the paper (host,
rack, pod, data center). The *distance* between two hosts is the first level
at which their ancestor chains diverge (0 = same host, 1 = same rack but
different hosts, 2 = same pod different racks, 3 = same data center
different pods, 4 = different data centers). In a pod-less data center each
rack connects straight to the root, so two hosts in different racks are
already separated at the pod level: each rack acts as its own implicit pod.

Topology index
--------------

:class:`Cloud` answers every distance, path and hop-count question from
one per-host level table built while indexing:

* ``unit_ids[level][host]`` -- dense ids of each host's host, rack, pod and
  data center (a pod-less rack gets its own pod id), so two hosts are
  separated at ``level`` iff their ids there differ, and their distance is
  1 + the highest level whose ids differ;
* ``steps_at_dist[host][d]`` -- the links from the host up to the lowest
  switch covering distance ``d``, from one pass over its uplink chain with
  each uplink tagged by the highest distance its upper switch covers. A
  pair's hop count is ``steps_at_dist[a][d] + steps_at_dist[b][d]`` and its
  path is those two uplink prefixes, the lower-indexed host's first.

``max_hop_count`` and ``min_hops_for_distance`` are constants of the table;
the numpy kernel's ``CloudArrays`` is an array view of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import DataCenterError


class Level(IntEnum):
    """Diversity-zone / separation levels, ordered from finest to coarsest."""

    HOST = 0
    RACK = 1
    POD = 2
    DATACENTER = 3

    @staticmethod
    def parse(name: str) -> "Level":
        """Parse a case-insensitive level name ('host', 'rack', ...)."""
        try:
            return Level[name.strip().upper()]
        except KeyError:
            raise DataCenterError(f"unknown diversity level: {name!r}") from None


@dataclass
class Disk:
    """A disk attached to a host, on which volumes are placed.

    Attributes:
        name: globally unique disk name.
        capacity_gb: raw capacity in gigabytes.
        index: global disk index, assigned by :class:`Cloud`.
        host: back-reference to the owning host.
    """

    name: str
    capacity_gb: float
    index: int = -1
    host: "Host" = field(default=None, repr=False)  # type: ignore[assignment]


@dataclass
class Host:
    """A physical host server.

    Attributes:
        name: globally unique host name.
        cpu_cores: total vCPU capacity.
        mem_gb: total memory in GB.
        disks: locally attached disks.
        nic_bw_mbps: capacity of the link between this host and its ToR
            switch, in Mbps.
        index: global host index, assigned by :class:`Cloud`.
        link_index: global link index of the host<->ToR link.
        rack: back-reference to the owning rack.
    """

    name: str
    cpu_cores: float
    mem_gb: float
    disks: List[Disk] = field(default_factory=list)
    nic_bw_mbps: float = 10_000.0
    index: int = -1
    link_index: int = -1
    rack: "Rack" = field(default=None, repr=False)  # type: ignore[assignment]

    def total_disk_gb(self) -> float:
        """Sum of the capacities of all locally attached disks."""
        return sum(disk.capacity_gb for disk in self.disks)


@dataclass
class Rack:
    """A rack of hosts under one ToR switch.

    Attributes:
        name: globally unique rack name.
        hosts: hosts in the rack.
        uplink_bw_mbps: capacity of the ToR uplink (to the pod switch, or to
            the data-center root when the data center has no pods).
        index: global rack index.
        link_index: global link index of the ToR uplink.
        pod: owning pod, or None when racks attach directly to the root.
        datacenter: owning data center.
    """

    name: str
    hosts: List[Host] = field(default_factory=list)
    uplink_bw_mbps: float = 100_000.0
    index: int = -1
    link_index: int = -1
    pod: Optional["Pod"] = field(default=None, repr=False)
    datacenter: "DataCenter" = field(default=None, repr=False)  # type: ignore[assignment]


@dataclass
class Pod:
    """A pod of racks under one pod switch.

    Attributes:
        name: globally unique pod name.
        racks: racks in the pod.
        uplink_bw_mbps: capacity of the pod switch's uplink to the root.
        index: global pod index.
        link_index: global link index of the pod uplink.
        datacenter: owning data center.
    """

    name: str
    racks: List[Rack] = field(default_factory=list)
    uplink_bw_mbps: float = 400_000.0
    index: int = -1
    link_index: int = -1
    datacenter: "DataCenter" = field(default=None, repr=False)  # type: ignore[assignment]


@dataclass
class DataCenter:
    """A data center: a root switch over pods and/or pod-less racks.

    Attributes:
        name: globally unique data-center name.
        pods: pods under the root switch.
        racks: racks attached directly to the root switch (pod-less).
        uplink_bw_mbps: capacity of the data center's WAN uplink, used only
            when the cloud contains several data centers.
        index: global data-center index.
        link_index: global link index of the WAN uplink (-1 if single-DC).
    """

    name: str
    pods: List[Pod] = field(default_factory=list)
    racks: List[Rack] = field(default_factory=list)
    uplink_bw_mbps: float = 1_000_000.0
    index: int = -1
    link_index: int = -1

    def all_racks(self) -> Iterator[Rack]:
        """Iterate every rack, whether under a pod or directly attached."""
        for pod in self.pods:
            yield from pod.racks
        yield from self.racks


class Cloud:
    """The root container: one or more data centers plus global indexing.

    Construction walks the hierarchy once, assigns dense integer indices to
    hosts, disks, racks, pods, data centers and network links, wires up
    back-references, and builds the topology index (see the module
    docstring). All placement algorithms address elements by these
    indices; names are for humans and templates.

    Attributes:
        unit_ids: ``unit_ids[level][host]`` -- dense id of the host's unit
            at each :class:`Level` (host, rack, pod, data center). A
            pod-less rack has its own pod id.
        steps_at_dist: ``steps_at_dist[host][d]`` -- links from the host up
            to the lowest switch covering separation distance ``d``
            (0..4); 0 when no switch on its chain covers ``d``.
    """

    def __init__(self, datacenters: Sequence[DataCenter]) -> None:
        if not datacenters:
            raise DataCenterError("a cloud must contain at least one data center")
        self.datacenters: List[DataCenter] = list(datacenters)
        self.hosts: List[Host] = []
        self.disks: List[Disk] = []
        self.racks: List[Rack] = []
        self.pods: List[Pod] = []
        #: capacity (Mbps) of each indexed network link
        self.link_capacity_mbps: List[float] = []
        #: human-readable description of each link, same indexing
        self.link_names: List[str] = []
        self._hosts_by_name: Dict[str, Host] = {}
        self._disks_by_name: Dict[str, Disk] = {}
        self.unit_ids: List[List[int]] = [[] for _ in Level]
        self.steps_at_dist: List[Tuple[int, ...]] = []
        # per-host link indices from the NIC up to the top of the hierarchy
        self._chains: List[Tuple[int, ...]] = []
        self._index()

    # ------------------------------------------------------------------
    # indexing
    # ------------------------------------------------------------------

    def _new_link(self, capacity_mbps: float, name: str) -> int:
        self.link_capacity_mbps.append(capacity_mbps)
        self.link_names.append(name)
        return len(self.link_capacity_mbps) - 1

    def _index(self) -> None:
        multi_dc = len(self.datacenters) > 1
        pod_unit = 0  # one pod unit per pod and per pod-less rack
        for dc_i, dc in enumerate(self.datacenters):
            dc.index = dc_i
            if multi_dc:
                dc.link_index = self._new_link(
                    dc.uplink_bw_mbps, f"wan:{dc.name}"
                )
            for pod in dc.pods:
                pod.datacenter = dc
                pod.index = len(self.pods)
                self.pods.append(pod)
                pod.link_index = self._new_link(
                    pod.uplink_bw_mbps, f"pod-uplink:{pod.name}"
                )
                for rack in pod.racks:
                    self._index_rack(rack, dc, pod, pod_unit)
                pod_unit += 1
            for rack in dc.racks:
                self._index_rack(rack, dc, None, pod_unit)
                pod_unit += 1
        if not self.hosts:
            raise DataCenterError("cloud contains no hosts")
        self._max_hops = 2 * max(len(chain) for chain in self._chains)
        # fewest one-sided steps over all hosts per distance (None: no
        # host's chain reaches a switch covering it)
        self._min_steps: List[Optional[int]] = [
            min((s[dist] for s in self.steps_at_dist if s[dist]), default=None)
            for dist in range(5)
        ]
        # One int per host packs its unit ids, ``width`` bits per level
        # with the host id lowest, so the bit length of ``code_a ^ code_b``
        # falls in the field of the coarsest level whose ids differ:
        # distance = 1 + that level, read from ``_dist_by_bits``.
        width = max(max(ids) for ids in self.unit_ids).bit_length() or 1
        self._codes: List[int] = [
            sum(unit << (width * level) for level, unit in enumerate(units))
            for units in zip(*self.unit_ids)
        ]
        self._dist_by_bits: List[int] = [
            (bits + width - 1) // width for bits in range(len(Level) * width + 1)
        ]
        # per-host uplink prefix up to the switch covering each distance
        self._prefixes: List[Tuple[Tuple[int, ...], ...]] = [
            tuple(chain[:s] for s in steps)
            for chain, steps in zip(self._chains, self.steps_at_dist)
        ]
        self._distance_rows: Dict[int, List[int]] = {}

    def _index_rack(
        self, rack: Rack, dc: DataCenter, pod: Optional[Pod], pod_unit: int
    ) -> None:
        rack.datacenter = dc
        rack.pod = pod
        rack.index = len(self.racks)
        self.racks.append(rack)
        rack.link_index = self._new_link(
            rack.uplink_bw_mbps, f"tor-uplink:{rack.name}"
        )
        for host in rack.hosts:
            self._index_host(host, rack, dc, pod, pod_unit)

    def _index_host(
        self,
        host: Host,
        rack: Rack,
        dc: DataCenter,
        pod: Optional[Pod],
        pod_unit: int,
    ) -> None:
        if host.name in self._hosts_by_name:
            raise DataCenterError(f"duplicate host name: {host.name!r}")
        host.rack = rack
        host.index = len(self.hosts)
        self.hosts.append(host)
        self._hosts_by_name[host.name] = host
        host.link_index = self._new_link(host.nic_bw_mbps, f"nic:{host.name}")
        for disk in host.disks:
            if disk.name in self._disks_by_name:
                raise DataCenterError(f"duplicate disk name: {disk.name!r}")
            disk.host = host
            disk.index = len(self.disks)
            self.disks.append(disk)
            self._disks_by_name[disk.name] = disk
        chain, steps = self._uplinks(host, rack, pod, dc)
        self._chains.append(chain)
        self.steps_at_dist.append(steps)
        units = (host.index, rack.index, pod_unit, dc.index)
        for ids, unit in zip(self.unit_ids, units):
            ids.append(unit)

    @staticmethod
    def _uplinks(
        host: Host, rack: Rack, pod: Optional[Pod], dc: DataCenter
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """A host's uplink chain and its ``steps_at_dist`` row.

        Each uplink is tagged with the highest distance its upper switch
        covers: NIC -> ToR (1), ToR uplink -> pod switch (2) or data-center
        root (3), [pod uplink -> root (3)], [WAN uplink -> cloud root (4)].
        """
        uplinks = [(host.link_index, 1)]
        if pod is not None:
            uplinks += [(rack.link_index, 2), (pod.link_index, 3)]
        else:
            uplinks.append((rack.link_index, 3))
        if dc.link_index >= 0:
            uplinks.append((dc.link_index, 4))
        steps = [0] * 5
        dist = 1
        for position, (_, covers) in enumerate(uplinks, 1):
            while dist <= covers:
                steps[dist] = position
                dist += 1
        return tuple(link for link, _ in uplinks), tuple(steps)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def host_by_name(self, name: str) -> Host:
        """Look up a host by name, raising DataCenterError if unknown."""
        try:
            return self._hosts_by_name[name]
        except KeyError:
            raise DataCenterError(f"unknown host: {name!r}") from None

    def disk_by_name(self, name: str) -> Disk:
        """Look up a disk by name, raising DataCenterError if unknown."""
        try:
            return self._disks_by_name[name]
        except KeyError:
            raise DataCenterError(f"unknown disk: {name!r}") from None

    @property
    def num_hosts(self) -> int:
        """Number of hosts in the cloud."""
        return len(self.hosts)

    @property
    def num_links(self) -> int:
        """Number of indexed network links in the cloud."""
        return len(self.link_capacity_mbps)

    # ------------------------------------------------------------------
    # topology arithmetic (used heavily by the algorithms)
    # ------------------------------------------------------------------

    def distance(self, host_a: int, host_b: int) -> int:
        """Separation distance between two hosts (by index).

        Returns 0 for the same host, 1 for same rack, 2 for same pod but
        different racks, 3 for same data center but different pods, and 4
        for different data centers. In pod-less data centers different racks
        yield distance 3 (each rack is its own implicit pod).
        """
        codes = self._codes
        return self._dist_by_bits[(codes[host_a] ^ codes[host_b]).bit_length()]

    def distance_row(self, host: int) -> List[int]:
        """Distances from one host to every host, as an indexable row.

        Built once per host and cached; candidate deduplication reads the
        distance to every placed host for every feasible host, and a plain
        list index beats a per-pair call there. Treat the row as read-only.
        """
        row = self._distance_rows.get(host)
        if row is None:
            code = self._codes[host]
            dist_by_bits = self._dist_by_bits
            row = self._distance_rows[host] = [
                dist_by_bits[(code ^ other).bit_length()] for other in self._codes
            ]
        return row

    def separated_at(self, host_a: int, host_b: int, level: Level) -> bool:
        """True if two hosts satisfy a diversity requirement at ``level``."""
        ids = self.unit_ids[level]
        return ids[host_a] != ids[host_b]

    def path(self, host_a: int, host_b: int) -> Tuple[int, ...]:
        """Network links traversed by traffic between two hosts.

        Returns a tuple of global link indices: the lower-indexed host's
        uplinks up to the pair's meeting switch, then the other host's.
        Empty when both endpoints are the same host (intra-host traffic
        never touches the network).
        """
        if host_a > host_b:
            host_a, host_b = host_b, host_a
        codes = self._codes
        dist = self._dist_by_bits[(codes[host_a] ^ codes[host_b]).bit_length()]
        prefixes = self._prefixes
        return prefixes[host_a][dist] + prefixes[host_b][dist]

    def hop_count(self, host_a: int, host_b: int) -> int:
        """Number of links on the path between two hosts."""
        codes = self._codes
        dist = self._dist_by_bits[(codes[host_a] ^ codes[host_b]).bit_length()]
        steps = self.steps_at_dist
        return steps[host_a][dist] + steps[host_b][dist]

    def uplink_chain(self, host: int) -> Tuple[int, ...]:
        """Link indices from a host's NIC up to the top of the hierarchy.

        The first entry is always the host<->ToR link; later entries are
        the ToR uplink, the pod uplink (when pods exist), and the WAN
        uplink (when the cloud spans several data centers).
        """
        return self._chains[host]

    def max_hop_count(self) -> int:
        """Longest possible path length between any two hosts.

        Used to normalize the bandwidth term of the objective function: the
        worst-case placement routes every flow through the top of the
        hierarchy, consuming both endpoints' full uplink chains.
        """
        return self._max_hops

    def min_hops_for_distance(self, dist: int) -> int:
        """Optimistic (minimal) hop count for a given separation distance.

        Used by the admissible heuristic: two nodes that *must* be separated
        at a given level consume at least this many link traversals. The
        value is computed over the actual cloud structure, so pod-less data
        centers report 4 hops for distance 3 (host NIC + ToR uplink on both
        sides) while podded ones report 6. A distance the cloud cannot
        realise raises :class:`DataCenterError`.
        """
        if dist <= 0:
            return 0
        best = self._min_steps[dist] if dist < len(self._min_steps) else None
        if best is None:
            raise DataCenterError(
                f"cloud cannot separate hosts at distance {dist}"
            )
        return 2 * best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cloud(datacenters={len(self.datacenters)}, racks={len(self.racks)},"
            f" hosts={len(self.hosts)}, disks={len(self.disks)},"
            f" links={self.num_links})"
        )
