"""The layer wrappers reach every binding and leave none behind."""

import repro.service.driver as driver
from repro.core import online
from repro.core.astar import BAStar
from repro.core.base import PlacementAlgorithm

from layers import LAYERS, Patch, Timings, Trace, layer_metrics, lifecycle_timers, traced


def _tag(original):
    def wrapper(*args, **kwargs):
        return original(*args, **kwargs)
    wrapper.tagged = True
    return wrapper


def test_function_patch_reaches_names_imported_elsewhere():
    original = online.remove_vms_from_tier
    patch = Patch("repro.core.online", "remove_vms_from_tier")
    patch.install(_tag)
    try:
        assert online.remove_vms_from_tier.tagged
        assert driver.remove_vms_from_tier.tagged
    finally:
        patch.restore()
    assert online.remove_vms_from_tier is original
    assert driver.remove_vms_from_tier is original


def test_inherited_method_patch_is_removed_on_restore():
    assert "place" not in BAStar.__dict__
    patch = Patch("repro.core.astar", "BAStar.place")
    patch.install(_tag)
    try:
        assert BAStar.place.tagged
        assert PlacementAlgorithm.place is patch.original
    finally:
        patch.restore()
    assert "place" not in BAStar.__dict__


def test_every_layer_resolves_and_restores():
    before = {
        layer.metric: Patch(layer.module, layer.qualname) for layer in LAYERS
    }
    trace = Trace()
    with traced(trace):
        pass
    for layer in LAYERS:
        probe = before[layer.metric]
        probe.install(lambda original: original)
        assert not getattr(probe.original, "__wrapped__", None), layer.metric
        probe.restore()
    metrics = layer_metrics(trace)
    assert metrics["core.astar.BAStar.place.calls"] == (0.0, "count")
    with lifecycle_timers(Timings()):
        pass
    assert driver.remove_vms_from_tier is online.remove_vms_from_tier
