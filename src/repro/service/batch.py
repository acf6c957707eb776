"""The batch admission engine: joint placement with per-request fallback.

Requests drained from the :class:`~repro.service.queue.AdmissionQueue`
at a horizon boundary are grouped into *compatible* batches (same
algorithm/options -- the engine's own -- and no duplicate application
names) and placed **jointly**: one global-state snapshot opens the
transaction, each member is routed through the coordinator under the
shared scheduler context (shared estimate caches, one batch span), and
any member failure rolls the *whole* batch back to the snapshot before
a per-request fallback replays the members individually -- so one
infeasible request cannot reject its cohort, and a fully feasible batch
costs exactly one transactional boundary.

Because joint placement admits members sequentially in drain order, and
the fallback replays the same order on the restored snapshot, a batched
run is placement-for-placement identical to ``max_batch=1`` serial
admission -- the determinism guarantee the CI service gate pins (see
docs/SERVICE.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro import obs
from repro.core.base import PlacementResult
from repro.errors import DeadlineError, PlacementError
from repro.service.coordinator import ShardedCoordinator
from repro.service.queue import AdmissionRequest


@dataclass(frozen=True)
class BatchPolicy:
    """Knobs of the batch engine.

    Attributes:
        horizon_s: drain period in virtual seconds (the driver drains the
            queue at every multiple of the horizon).
        max_batch: largest joint batch; 1 degenerates to serial
            per-request admission (the reference ordering).
    """

    horizon_s: float = 30.0
    max_batch: int = 16


@dataclass
class AdmissionOutcome:
    """The decision reached for one request.

    Attributes:
        request: the originating queue entry.
        status: "admitted", "rejected", "expired", or "cancelled".
        route: shard name or "global" for admitted requests, else "".
        latency_s: virtual seconds from submission to the decision.
        batch: id of the batch that decided the request (-1 for
            expiries/cancellations decided outside a batch).
        mode: "joint" when the request was admitted inside an intact
            batch transaction, "fallback" after a batch rollback,
            "single" for one-request batches; "" when not admitted.
        error: diagnostic for rejected requests.
        result: the committed placement for admitted requests.
    """

    request: AdmissionRequest
    status: str
    route: str = ""
    latency_s: float = 0.0
    batch: int = -1
    mode: str = ""
    error: str = ""
    result: Optional[PlacementResult] = field(default=None, repr=False)


class BatchAdmissionEngine:
    """Drains request batches into a :class:`ShardedCoordinator`.

    Args:
        coordinator: the sharded admission backend (owns the one global
            state all batches commit into).
        policy: batching knobs.
        algorithm: placement algorithm for every member (None uses the
            coordinator's default).
        **options: algorithm options shared by every member -- the shared
            estimate context that makes batch members compatible.
    """

    def __init__(
        self,
        coordinator: ShardedCoordinator,
        policy: Optional[BatchPolicy] = None,
        algorithm: Optional[str] = None,
        **options: Any,
    ) -> None:
        self.coordinator = coordinator
        self.policy = policy or BatchPolicy()
        self.algorithm = algorithm
        self.options = options
        self.batches = 0
        self.joint_batches = 0
        self.fallback_batches = 0

    # ------------------------------------------------------------------
    # grouping
    # ------------------------------------------------------------------

    def group(
        self, requests: List[AdmissionRequest]
    ) -> List[List[AdmissionRequest]]:
        """Split a drained request list into compatible batches.

        Order-preserving greedy chunking: a batch closes at
        ``max_batch`` members or when the next request's application
        name collides with a member already in the batch (two requests
        for the same name are never jointly placeable -- the second must
        see the first's outcome, so it starts the next batch).
        """
        limit = max(1, self.policy.max_batch)
        batches: List[List[AdmissionRequest]] = []
        current: List[AdmissionRequest] = []
        names: set = set()
        for request in requests:
            if len(current) >= limit or request.app_name in names:
                batches.append(current)
                current, names = [], set()
            current.append(request)
            names.add(request.app_name)
        if current:
            batches.append(current)
        return batches

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------

    def admit_batch(
        self, requests: List[AdmissionRequest], now: float
    ) -> List[AdmissionOutcome]:
        """Decide every drained request; returns outcomes in drain order.

        ``now`` is the virtual time of the horizon boundary; admission
        latency is ``now - submit_time_s`` (a request admitted in the
        same horizon it arrived still waited for the boundary).
        """
        outcomes: List[AdmissionOutcome] = []
        for members in self.group(requests):
            outcomes.extend(self._admit_group(members, now))
        return outcomes

    def _admit_group(
        self, members: List[AdmissionRequest], now: float
    ) -> List[AdmissionOutcome]:
        batch_id = self.batches
        self.batches += 1
        rec = obs.get_recorder()
        if len(members) == 1:
            if rec.enabled:
                rec.inc("ostro_service_batches_total", mode="single")
                rec.event(
                    "batch_drained", batch=batch_id, size=1, mode="single"
                )
            return [self._admit_one(members[0], now, batch_id, "single")]

        snapshot = self.coordinator.state.snapshot()
        outcomes: List[AdmissionOutcome] = []
        admitted_names: List[str] = []
        failed: Optional[AdmissionRequest] = None
        reason = ""
        try:
            with rec.span(
                "service.batch", batch=batch_id, size=len(members)
            ):
                for request in members:
                    try:
                        result, route = self.coordinator.admit(
                            request.topology,
                            algorithm=self.algorithm,
                            **self.options,
                        )
                    except (PlacementError, DeadlineError) as exc:
                        failed, reason = request, str(exc)
                        break
                    admitted_names.append(request.app_name)
                    # telemetry deferred: if a later member aborts the
                    # batch, this admission is rolled back and must never
                    # have counted
                    outcomes.append(
                        self._admitted(
                            request, now, batch_id, "joint", route, result,
                            emit=False,
                        )
                    )
        except BaseException:
            # An unexpected error is not an admission verdict: undo the
            # members already placed before letting it propagate.
            self.coordinator.rollback_to(snapshot, admitted_names)
            raise
        if failed is None:
            self.joint_batches += 1
            for outcome in outcomes:
                self._emit_admitted(outcome)
            if rec.enabled:
                rec.inc("ostro_service_batches_total", mode="joint")
                rec.event(
                    "batch_drained",
                    batch=batch_id,
                    size=len(members),
                    mode="joint",
                )
            return outcomes

        # One member was infeasible: undo the whole transaction, then
        # replay per-request so the feasible members still get in.
        self.coordinator.rollback_to(snapshot, admitted_names)
        self.fallback_batches += 1
        if rec.enabled:
            rec.inc("ostro_service_batches_total", mode="fallback")
            rec.event(
                "batch_fallback",
                batch=batch_id,
                failed_app=failed.app_name,
                reason=reason,
            )
            rec.event(
                "batch_drained",
                batch=batch_id,
                size=len(members),
                mode="fallback",
            )
        return [
            self._admit_one(request, now, batch_id, "fallback")
            for request in members
        ]

    def _admit_one(
        self,
        request: AdmissionRequest,
        now: float,
        batch_id: int,
        mode: str,
    ) -> AdmissionOutcome:
        try:
            result, route = self.coordinator.admit(
                request.topology, algorithm=self.algorithm, **self.options
            )
        except (PlacementError, DeadlineError) as exc:
            rec = obs.get_recorder()
            if rec.enabled:
                rec.inc("ostro_service_requests_total", outcome="rejected")
                rec.event(
                    "request_rejected",
                    request=request.request_id,
                    app=request.app_name,
                    reason=str(exc),
                )
            return AdmissionOutcome(
                request=request,
                status="rejected",
                latency_s=now - request.submit_time_s,
                batch=batch_id,
                mode=mode,
                error=str(exc),
            )
        return self._admitted(request, now, batch_id, mode, route, result)

    def _admitted(
        self,
        request: AdmissionRequest,
        now: float,
        batch_id: int,
        mode: str,
        route: str,
        result: PlacementResult,
        emit: bool = True,
    ) -> AdmissionOutcome:
        outcome = AdmissionOutcome(
            request=request,
            status="admitted",
            route=route,
            latency_s=now - request.submit_time_s,
            batch=batch_id,
            mode=mode,
            result=result,
        )
        if emit:
            self._emit_admitted(outcome)
        return outcome

    @staticmethod
    def _emit_admitted(outcome: AdmissionOutcome) -> None:
        rec = obs.get_recorder()
        if not rec.enabled:
            return
        rec.inc("ostro_service_requests_total", outcome="admitted")
        rec.observe(
            "ostro_service_admission_latency_seconds", outcome.latency_s
        )
        rec.event(
            "request_admitted",
            request=outcome.request.request_id,
            app=outcome.request.app_name,
            route=outcome.route,
            latency_s=outcome.latency_s,
        )


def expire_outcomes(
    expired: List[AdmissionRequest], now: float
) -> List[AdmissionOutcome]:
    """Outcome records (and telemetry) for deadline-expired requests."""
    rec = obs.get_recorder()
    outcomes = []
    for request in expired:
        waited = now - request.submit_time_s
        if rec.enabled:
            rec.inc("ostro_service_requests_total", outcome="expired")
            rec.event(
                "request_expired",
                request=request.request_id,
                app=request.app_name,
                waited_s=waited,
            )
        outcomes.append(
            AdmissionOutcome(
                request=request, status="expired", latency_s=waited
            )
        )
    return outcomes
