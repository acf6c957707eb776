"""Wrappers around the library's public layer functions, installed from here.

:class:`Patch` replaces one function or method with a wrapper on every
binding of it: the defining module or class, and every loaded ``repro``
module that imported the same function object by name (for example
``remove_vms_from_tier`` inside ``repro.service.driver``). Restoring puts
every original back and checks that it is back.

Two uses:

* :func:`lifecycle_timers` -- the untraced run's only instrumentation: a
  start/end pair around the calls whose durations are end-to-end samples
  (batch admission and live-application changes).
* :func:`traced` -- the traced run: a span around every layer function of
  :data:`LAYERS`, plus the per-layer counts (batch sizes, escalations,
  screen pass share, failures, retries, ...).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Tuple

from harness import SpanRecorder

_MISSING = object()


class Patch:
    """Install ``make(original)`` on every binding of ``module.qualname``."""

    def __init__(self, module: str, qualname: str) -> None:
        self.module = module
        self.qualname = qualname
        self._undo: List[Tuple[Any, str, Any]] = []
        self.original: Any = None

    def install(self, make: Callable[[Callable], Callable]) -> None:
        mod = importlib.import_module(self.module)
        owner_name, _, attr = self.qualname.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name)
            # an inherited method is absent from the class dict: restoring
            # then deletes the wrapper instead of re-setting an attribute
            self.original = getattr(owner, attr)
            wrapper = make(self.original)
            self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
            setattr(owner, attr, wrapper)
            return
        self.original = getattr(mod, attr)
        wrapper = make(self.original)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is self.original:
                    self._undo.append((loaded, key, value))
                    setattr(loaded, key, wrapper)

    def restore(self) -> None:
        for owner, attr, previous in reversed(self._undo):
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)
        for owner, attr, previous in self._undo:
            current = owner.__dict__.get(attr, _MISSING)
            if current is not previous:
                raise RuntimeError(f"{self.module}.{self.qualname} not restored")
        self._undo.clear()


@contextlib.contextmanager
def patched(patches: List[Tuple[Patch, Callable[[Callable], Callable]]]) -> Iterator[None]:
    installed: List[Patch] = []
    try:
        for patch, make in patches:
            patch.install(make)
            installed.append(patch)
        yield
    finally:
        for patch in reversed(installed):
            patch.restore()


# ----------------------------------------------------------------------
# untraced lifecycle timers
# ----------------------------------------------------------------------


@dataclass
class Timings:
    """Samples from :func:`lifecycle_timers`, in call order.

    ``batches`` rows are ``(start, end, now, submit times)`` of every
    ``admit_batch`` call; ``lifecycle`` rows are ``(kind, seconds, ok)``.
    """

    batches: List[Tuple[float, float, float, Tuple[float, ...]]] = field(
        default_factory=list
    )
    lifecycle: List[Tuple[str, float, bool]] = field(default_factory=list)


@contextlib.contextmanager
def lifecycle_timers(timings: Timings) -> Iterator[None]:
    """Time batch admission, updates/scale-outs and scale-ins."""
    clock = time.perf_counter

    def admit_batch(original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(engine, requests, now):
            start = clock()
            outcomes = original(engine, requests, now)
            timings.batches.append(
                (start, clock(), now, tuple(r.submit_time_s for r in requests))
            )
            return outcomes
        return wrapper

    def timed(kind: str) -> Callable[[Callable], Callable]:
        def make(original: Callable) -> Callable:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                start = clock()
                ok = False
                try:
                    result = original(*args, **kwargs)
                    ok = True
                    return result
                finally:
                    timings.lifecycle.append((kind, clock() - start, ok))
            return wrapper
        return make

    with patched([
        (Patch("repro.service.batch", "BatchAdmissionEngine.admit_batch"), admit_batch),
        (Patch("repro.service.coordinator", "ShardedCoordinator.update"), timed("update")),
        (Patch("repro.core.online", "remove_vms_from_tier"), timed("scale_in")),
    ]):
        yield


# ----------------------------------------------------------------------
# traced layers
# ----------------------------------------------------------------------

#: Per-layer counts that are not plain calls/seconds. An observer gets
#: (counts, original, args, kwargs) and makes the call itself, so the
#: span around it times the original function.
Observer = Callable[[Dict[str, float], Callable, tuple, dict], Any]


def _bump(counts: Dict[str, float], key: str, by: float = 1) -> None:
    counts[key] = counts.get(key, 0) + by


def _failures(counts, original, args, kwargs):
    try:
        return original(*args, **kwargs)
    except Exception:
        _bump(counts, "failures")
        raise


def _place_stats(counts, original, args, kwargs):
    result = original(*args, **kwargs)
    for key in ("paths_expanded", "candidates_scored", "eg_bound_runs"):
        _bump(counts, key, getattr(result.stats, key))
    return result


def _batch_mix(counts, original, args, kwargs):
    engine, requests = args[0], args[1]
    before = (engine.batches, engine.joint_batches, engine.fallback_batches)
    result = original(*args, **kwargs)
    after = (engine.batches, engine.joint_batches, engine.fallback_batches)
    _bump(counts, "requests", len(requests))
    for key, old, new in zip(("batches", "joint", "fallback"), before, after):
        _bump(counts, key, new - old)
    return result


def _escalations(counts, original, args, kwargs):
    coordinator = args[0]
    before = sum(coordinator.escalations.values())
    result = original(*args, **kwargs)
    _bump(counts, "escalations", sum(coordinator.escalations.values()) - before)
    return result


def _screen_pass(counts, original, args, kwargs):
    verdict = original(*args, **kwargs)
    if verdict is None:
        _bump(counts, "passed")
    return verdict


def _scale_actions(counts, original, args, kwargs):
    decision = original(*args, **kwargs)
    if decision.action != "hold":
        _bump(counts, "actions")
    return decision


def _plans_with_moves(counts, original, args, kwargs):
    plan = original(*args, **kwargs)
    if plan.moves > 0:
        _bump(counts, "with_moves")
    return plan


def _aborts(counts, original, args, kwargs):
    completed = original(*args, **kwargs)
    if not completed:
        _bump(counts, "aborts")
    return completed


def _attempts(counts, original, args, kwargs):
    # retry_call(policy, fn, ...): every attempt goes through fn
    policy, fn, *rest = args

    def attempt():
        _bump(counts, "attempts")
        return fn()

    return original(policy, attempt, *rest, **kwargs)


def _plain(counts, original, args, kwargs):
    return original(*args, **kwargs)


@dataclass(frozen=True)
class Layer:
    """One traced function: where it lives and the metric prefix it reports."""

    metric: str
    module: str
    qualname: str
    observe: Observer = _plain


LAYERS: Tuple[Layer, ...] = (
    Layer("core.astar.BAStar.place", "repro.core.astar", "BAStar.place", _place_stats),
    Layer("core.heuristic.LowerBoundEstimator.__init__", "repro.core.heuristic",
          "LowerBoundEstimator.__init__"),
    Layer("core.heuristic.LowerBoundEstimator.estimate", "repro.core.heuristic",
          "LowerBoundEstimator.estimate"),
    Layer("core.candidates.candidate_targets", "repro.core.candidates", "candidate_targets"),
    Layer("core.kernel.batch_score", "repro.core.kernel", "batch_score"),
    Layer("core.kernel.immediate_costs", "repro.core.kernel", "immediate_costs"),
    Layer("datacenter.model.min_hops_for_distance", "repro.datacenter.model",
          "Cloud.min_hops_for_distance"),
    Layer("service.queue.drain", "repro.service.queue", "AdmissionQueue.drain"),
    Layer("service.batch.admit_batch", "repro.service.batch",
          "BatchAdmissionEngine.admit_batch", _batch_mix),
    Layer("service.coordinator.admit", "repro.service.coordinator",
          "ShardedCoordinator.admit", _escalations),
    Layer("service.coordinator.update", "repro.service.coordinator",
          "ShardedCoordinator.update", _failures),
    Layer("service.shard.screen", "repro.service.shard", "PodShard.screen", _screen_pass),
    Layer("service.shard.search", "repro.service.shard", "PodShard.search"),
    Layer("service.shard.sync", "repro.service.shard", "PodShard.sync"),
    Layer("service.shard.masked_snapshot", "repro.service.shard", "PodShard.masked_snapshot"),
    Layer("datacenter.state.snapshot", "repro.datacenter.state", "DataCenterState.snapshot"),
    Layer("datacenter.state.restore", "repro.datacenter.state", "DataCenterState.restore"),
    Layer("datacenter.state.clone", "repro.datacenter.state", "DataCenterState.clone"),
    Layer("core.online.update_application", "repro.core.online", "update_application", _failures),
    Layer("core.online.add_vms_to_tier", "repro.core.online", "add_vms_to_tier", _failures),
    Layer("core.online.remove_vms_from_tier", "repro.core.online", "remove_vms_from_tier",
          _failures),
    Layer("scaling.engine.AutoScaler.evaluate", "repro.scaling.engine", "AutoScaler.evaluate",
          _scale_actions),
    Layer("defrag.planner.plan_app", "repro.defrag.planner", "DefragPlanner.plan_app",
          _plans_with_moves),
    Layer("defrag.executor.execute", "repro.defrag.executor", "DefragExecutor.execute", _aborts),
    Layer("core.validate.conservation_violations", "repro.core.validate",
          "conservation_violations"),
    Layer("faults.retry.retry_call", "repro.faults.retry", "retry_call", _attempts),
)


@dataclass
class Trace:
    """What one traced run recorded: spans and per-layer counts."""

    spans: SpanRecorder = field(default_factory=SpanRecorder)
    counts: Dict[str, Dict[str, float]] = field(default_factory=dict)


def _span_wrapper(layer: Layer, trace: Trace) -> Callable[[Callable], Callable]:
    spans = trace.spans
    counts = trace.counts.setdefault(layer.metric, {})
    clock = time.perf_counter
    name = layer.metric
    observe = layer.observe

    def make(original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            spans.open(name, clock())
            try:
                return observe(counts, original, args, kwargs)
            finally:
                spans.close(clock())
        return wrapper

    return make


@contextlib.contextmanager
def traced(trace: Trace) -> Iterator[None]:
    """Span every layer of :data:`LAYERS` for the duration of the block."""
    with patched([
        (Patch(layer.module, layer.qualname), _span_wrapper(layer, trace))
        for layer in LAYERS
    ]):
        yield


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: Trace) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of a traced run as ``name -> (value, unit)``."""
    spans, counts = trace.spans, trace.counts
    out: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        name = layer.metric
        out[f"{name}.calls"] = (float(spans.calls.get(name, 0)), "count")
        out[f"{name}.s"] = (spans.total_s.get(name, 0.0), "s")
        out[f"{name}.self_s"] = (spans.self_s.get(name, 0.0), "s")
    c = counts
    calls = spans.calls
    place = c["core.astar.BAStar.place"]
    out["core.astar.paths_expanded"] = (float(place.get("paths_expanded", 0)), "count")
    out["core.astar.eg_bound_runs"] = (float(place.get("eg_bound_runs", 0)), "count")
    out["core.candidates.candidates_scored_per_placement"] = (
        _ratio(place.get("candidates_scored", 0), calls.get("core.astar.BAStar.place", 0)),
        "count",
    )
    batch = c["service.batch.admit_batch"]
    out["service.batch.mean_batch_size"] = (
        _ratio(batch.get("requests", 0), batch.get("batches", 0)), "count")
    out["service.batch.joint_share"] = (
        _ratio(batch.get("joint", 0), batch.get("batches", 0)), "ratio")
    out["service.batch.fallback_share"] = (
        _ratio(batch.get("fallback", 0), batch.get("batches", 0)), "ratio")
    out["service.coordinator.escalation_share"] = (
        _ratio(c["service.coordinator.admit"].get("escalations", 0),
               calls.get("service.coordinator.admit", 0)), "ratio")
    out["service.coordinator.update.failures"] = (
        float(c["service.coordinator.update"].get("failures", 0)), "count")
    out["service.shard.screen.pass_share"] = (
        _ratio(c["service.shard.screen"].get("passed", 0),
               calls.get("service.shard.screen", 0)), "ratio")
    for fn in ("update_application", "add_vms_to_tier", "remove_vms_from_tier"):
        out[f"core.online.{fn}.failures"] = (
            float(c[f"core.online.{fn}"].get("failures", 0)), "count")
    out["scaling.engine.AutoScaler.evaluate.action_share"] = (
        _ratio(c["scaling.engine.AutoScaler.evaluate"].get("actions", 0),
               calls.get("scaling.engine.AutoScaler.evaluate", 0)), "ratio")
    out["defrag.planner.plan_app.moves_share"] = (
        _ratio(c["defrag.planner.plan_app"].get("with_moves", 0),
               calls.get("defrag.planner.plan_app", 0)), "ratio")
    out["defrag.executor.execute.aborts"] = (
        float(c["defrag.executor.execute"].get("aborts", 0)), "count")
    retry = c["faults.retry.retry_call"]
    out["faults.retry.retry_call.retries"] = (
        float(retry.get("attempts", 0) - calls.get("faults.retry.retry_call", 0)), "count")
    return out
