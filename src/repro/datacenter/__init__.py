"""Hierarchical data-center substrate (Fig. 3 of the paper).

This subpackage models the physical side of the placement problem:

* :mod:`repro.datacenter.resources` -- resource vectors (vCPU / memory / disk).
* :mod:`repro.datacenter.model` -- the static structure: disks, hosts, racks,
  pods, data centers, and a :class:`~repro.datacenter.model.Cloud` root
  whose topology index answers distance, path and hop-count queries.
* :mod:`repro.datacenter.state` -- the mutable availability state
  (free CPU/memory/disk/bandwidth) with cheap cloning for search.
* :mod:`repro.datacenter.builder` -- constructors for the paper's testbed and
  simulated large-scale data centers.
* :mod:`repro.datacenter.loadgen` -- background load generators reproducing
  the paper's non-uniform resource-availability configurations.
"""

from repro.datacenter.builder import (
    build_cloud,
    build_datacenter,
    build_testbed,
)
from repro.datacenter.model import Cloud, DataCenter, Disk, Host, Level, Pod, Rack
from repro.datacenter.resources import ResourceVector
from repro.datacenter.serialize import (
    cloud_from_dict,
    cloud_to_dict,
    load_cloud,
    save_cloud,
)
from repro.datacenter.state import DataCenterState

__all__ = [
    "Cloud",
    "DataCenter",
    "DataCenterState",
    "Disk",
    "Host",
    "Level",
    "Pod",
    "Rack",
    "ResourceVector",
    "build_cloud",
    "build_datacenter",
    "build_testbed",
    "cloud_from_dict",
    "cloud_to_dict",
    "load_cloud",
    "save_cloud",
]
