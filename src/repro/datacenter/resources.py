"""Resource vectors for hosts and virtual machines.

A :class:`ResourceVector` bundles the three host-level resource dimensions
the paper schedules (vCPUs, memory, disk space). Network bandwidth is *not*
part of the vector because it lives on links, not hosts; see
:meth:`repro.datacenter.model.Cloud.path`.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Tolerance for floating-point capacity comparisons.
EPSILON = 1e-9


@dataclass(frozen=True)
class ResourceVector:
    """An immutable (cpu, mem, disk) triple with element-wise arithmetic.

    Attributes:
        cpu: number of vCPUs (may be fractional for background load).
        mem_gb: memory in gigabytes.
        disk_gb: disk space in gigabytes.
    """

    cpu: float = 0.0
    mem_gb: float = 0.0
    disk_gb: float = 0.0

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.cpu + other.cpu,
            self.mem_gb + other.mem_gb,
            self.disk_gb + other.disk_gb,
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.cpu - other.cpu,
            self.mem_gb - other.mem_gb,
            self.disk_gb - other.disk_gb,
        )

    def __mul__(self, scalar: float) -> "ResourceVector":
        return ResourceVector(
            self.cpu * scalar, self.mem_gb * scalar, self.disk_gb * scalar
        )

    __rmul__ = __mul__

    def fits_within(self, other: "ResourceVector") -> bool:
        """Return True if this requirement fits in capacity ``other``."""
        return (
            self.cpu <= other.cpu + EPSILON
            and self.mem_gb <= other.mem_gb + EPSILON
            and self.disk_gb <= other.disk_gb + EPSILON
        )

    def is_nonnegative(self) -> bool:
        """Return True if no component is (more than epsilon) negative."""
        return (
            self.cpu >= -EPSILON
            and self.mem_gb >= -EPSILON
            and self.disk_gb >= -EPSILON
        )

    @staticmethod
    def zero() -> "ResourceVector":
        """The all-zero vector."""
        return ResourceVector(0.0, 0.0, 0.0)
