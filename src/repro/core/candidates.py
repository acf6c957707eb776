"""Candidate-host generation (``GetCandidates`` of Algorithm 1).

For a node, the candidate set is every (host, disk) target that satisfies
all constraints of :mod:`repro.core.constraints`. Because scoring a
candidate is expensive (it runs the lower-bound estimator), this module
also implements **exact equivalence-class deduplication**: two feasible
hosts are interchangeable for the search when they have

* identical free resources (CPU, memory, and for volumes the free space of
  the chosen disk),
* the same activity status (active vs idle -- this decides whether picking
  them changes ``u_c``),
* identical free bandwidth along their uplink chains, and
* identical separation distances to every host used by the partial
  placement.

Those four facts determine both the candidate's score and the state that
results from choosing it, up to a relabeling of physically symmetric hosts,
so keeping only the lowest-indexed representative of each class is lossless.
The paper's implementation instead evaluated all hosts in parallel
(Section III-A2); dedup achieves the same effect on one core and can be
disabled (``dedup=False``) for ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
    overload,
)

from repro.core import constraints, kernel
from repro.core.kernel import quantize
from repro.core.placement import PartialPlacement


@dataclass(frozen=True)
class CandidateTarget:
    """One feasible placement target for a node.

    Attributes:
        host: global host index.
        disk: global disk index for volumes, None for VMs.
        multiplicity: number of interchangeable hosts this target
            represents (1 when dedup is off).
    """

    host: int
    disk: Optional[int] = None
    multiplicity: int = 1


class CandidateArray(Sequence[CandidateTarget]):
    """Candidate targets stored column-wise, the numpy kernel's form.

    Element ``i`` is ``CandidateTarget(host[i], disk[i],
    multiplicity[i])``, built only when it is read: ranking a wide
    candidate set and splitting it at the scoring cap are then array
    operations, and only the targets a search actually scores or tries
    become objects. Compares equal to any sequence with equal elements,
    such as the python kernel's list.

    Attributes:
        host: int64 array of global host indices.
        disk: int64 array of global disk indices for volumes, None for
            VMs.
        multiplicity: int64 array of equivalence-class sizes.
    """

    __slots__ = ("host", "disk", "multiplicity")

    def __init__(self, host: Any, disk: Any, multiplicity: Any) -> None:
        self.host = host
        self.disk = disk
        self.multiplicity = multiplicity

    def __len__(self) -> int:
        return len(self.host)

    @overload
    def __getitem__(self, index: int) -> CandidateTarget:
        ...

    @overload
    def __getitem__(self, index: slice) -> "CandidateArray":
        ...

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[CandidateTarget, "CandidateArray"]:
        if isinstance(index, slice):
            return self.take(index)
        return CandidateTarget(
            int(self.host[index]),
            None if self.disk is None else int(self.disk[index]),
            int(self.multiplicity[index]),
        )

    def __iter__(self) -> Iterator[CandidateTarget]:
        hosts = self.host.tolist()
        disks = [None] * len(hosts) if self.disk is None else self.disk.tolist()
        for host, disk, count in zip(hosts, disks, self.multiplicity.tolist()):
            yield CandidateTarget(host, disk, count)

    def take(self, index: Any) -> "CandidateArray":
        """The targets at ``index`` (an index array or a slice), in order."""
        return CandidateArray(
            self.host[index],
            None if self.disk is None else self.disk[index],
            self.multiplicity[index],
        )

    def __eq__(self, other: object) -> bool:
        # defining __eq__ leaves the class unhashable, like a list
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    def __repr__(self) -> str:
        return f"CandidateArray({list(self)!r})"


def _distance_signatures(
    partial: PartialPlacement,
) -> Callable[[int], Tuple[int, ...]]:
    """Factory for per-host distance signatures to all placed hosts.

    Pulls one cached distance row per distinct placed host from the
    cloud, so the per-candidate signature is plain list indexing instead
    of a pairwise distance call per placed host.
    """
    distance_row = partial.state.cloud.distance_row
    rows = [distance_row(p) for p in sorted(partial.placed_hosts())]

    def signature(host: int) -> Tuple[int, ...]:
        return tuple(row[host] for row in rows)

    return signature


def candidate_targets(
    partial: PartialPlacement,
    node_name: str,
    dedup: bool = True,
    limit: Optional[int] = None,
) -> Sequence[CandidateTarget]:
    """Feasible targets for a node, optionally deduplicated.

    Args:
        partial: the placement under construction.
        node_name: the node to place next.
        dedup: collapse interchangeable hosts to one representative each.
        limit: optional hard cap on the number of returned targets
            (targets keep cloud index order). Without dedup the scan stops
            as soon as ``limit`` targets are found. With dedup the scan
            must still visit every host -- later hosts can fold into an
            already kept class -- but once ``limit`` classes exist no new
            representative is added, so the result equals truncating the
            unlimited result to its first ``limit`` entries *with* the
            full-scan multiplicities.

    Returns:
        Feasible :class:`CandidateTarget` records in ascending host order:
        a list from the python kernel, a :class:`CandidateArray` from the
        numpy kernel. Empty when the node cannot be placed anywhere right
        now.

    Dispatches to the vectorized kernel when it is active (see
    :mod:`repro.core.kernel`); results are bit-identical either way, and
    the ``crosscheck`` kernel verifies that on every call.
    """
    if kernel.numpy_active():
        results = kernel.candidate_targets_numpy(
            partial, node_name, dedup=dedup, limit=limit
        )
        if kernel.crosscheck_active():
            reference = _candidate_targets_python(
                partial, node_name, dedup=dedup, limit=limit
            )
            if results != reference:
                raise kernel.KernelMismatch(
                    f"candidate set mismatch for node {node_name!r}: "
                    f"numpy {results!r} != python {reference!r}"
                )
        return results
    return _candidate_targets_python(
        partial, node_name, dedup=dedup, limit=limit
    )


def _candidate_targets_python(
    partial: PartialPlacement,
    node_name: str,
    dedup: bool = True,
    limit: Optional[int] = None,
) -> List[CandidateTarget]:
    """Pure-Python reference scan (see :func:`candidate_targets`)."""
    node = partial.topology.node(node_name)
    state = partial.state
    cloud = state.cloud
    free_bw = state.free_bw
    # Distances to the *distinct* hosts of the partial placement fully
    # determine the candidate's relation to every placed node.
    distance_signature = _distance_signatures(partial)
    # Host-independent constraint setup, hoisted out of the host loop.
    ctx = constraints.NodeConstraintContext(partial, node_name)
    uplink_chain = cloud.uplink_chain
    results: List[CandidateTarget] = []
    seen: dict = {}

    if node.is_vm:
        reserved = state.reserved_vcpus(node)
        for host in range(cloud.num_hosts):
            if not state.vm_fits(host, reserved, node.mem_gb):
                continue
            if not ctx.diversity_ok(host):
                continue
            if not ctx.latency_ok(host):
                continue
            if not ctx.bandwidth_ok(host):
                continue
            if dedup:
                sig = (
                    quantize(state.free_cpu[host]),
                    quantize(state.free_mem[host]),
                    state.host_is_active(host),
                    tuple(
                        quantize(free_bw[link])
                        for link in uplink_chain(host)
                    ),
                    distance_signature(host),
                )
                existing = seen.get(sig)
                if existing is not None:
                    results[existing] = CandidateTarget(
                        host=results[existing].host,
                        disk=None,
                        multiplicity=results[existing].multiplicity + 1,
                    )
                    continue
                if limit is not None and len(results) >= limit:
                    continue  # keep scanning only to fold multiplicities
                seen[sig] = len(results)
            results.append(CandidateTarget(host=host))
            if limit is not None and not dedup and len(results) >= limit:
                break
    else:
        for disk_index, disk in enumerate(cloud.disks):
            if not state.volume_fits(disk_index, node.size_gb):
                continue
            host = disk.host.index
            if not ctx.diversity_ok(host):
                continue
            if not ctx.latency_ok(host):
                continue
            if not ctx.bandwidth_ok(host):
                continue
            if dedup:
                sig = (
                    quantize(state.free_disk[disk_index]),
                    state.host_is_active(host),
                    tuple(
                        quantize(free_bw[link])
                        for link in uplink_chain(host)
                    ),
                    distance_signature(host),
                )
                existing = seen.get(sig)
                if existing is not None:
                    results[existing] = CandidateTarget(
                        host=results[existing].host,
                        disk=results[existing].disk,
                        multiplicity=results[existing].multiplicity + 1,
                    )
                    continue
                if limit is not None and len(results) >= limit:
                    continue
                seen[sig] = len(results)
            results.append(CandidateTarget(host=host, disk=disk_index))
            if limit is not None and not dedup and len(results) >= limit:
                break

    return results
