"""Distributed slot scheduling across all output fibers (paper Section I).

Under unicast traffic the requests arriving in one slot partition into ``N``
subsets by destination fiber, and "the decision of accepting a request or not
in one subset does not affect the decisions in other subsets".  The
:class:`DistributedScheduler` exploits exactly this: one independent
per-output scheduler instance per fiber, with total per-slot work
``O(N · k)`` / ``O(N · dk)`` — i.e. ``O(k)`` or ``O(dk)`` *per scheduling
unit*, independent of interconnect size ``N``.
:func:`schedule_tick` is the online service's form of the same
decomposition: one batch-kernel call covers every output fiber of a tick.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.core.base import (
    BatchKernel,
    Scheduler,
    make_result,
    validate_schedule,
)
from repro.core.break_first_available import bfa_fast
from repro.core.first_available import first_available_fast
from repro.core.policies import FixedPriorityPolicy, GrantPolicy
from repro.errors import InvalidParameterError, ScheduleError, ShardDownError
from repro.graphs.conversion import (
    CircularConversion,
    ConversionScheme,
    NonCircularConversion,
)
from repro.graphs.request_graph import RequestGraph
from repro.types import Grant, ScheduleResult
from repro.util.validation import (
    check_index,
    check_nonnegative_int,
    check_positive_int,
)

__all__ = [
    "SlotRequest",
    "GrantedRequest",
    "SlotSchedule",
    "DistributedScheduler",
    "validate_slot_request",
    "distribute_grants",
    "schedule_output_fiber",
    "FiberRow",
    "schedule_tick",
]


@dataclass(frozen=True, slots=True, order=True)
class SlotRequest:
    """One connection request offered to the interconnect in a slot.

    A request occupies input channel ``(input_fiber, wavelength)`` and is
    destined for ``output_fiber`` (unicast; the destination *channel* is the
    scheduler's choice).  ``duration`` is the number of slots the connection
    holds if granted (1 = single-slot optical packet).  ``priority`` is the
    QoS class, 0 = highest (the paper's future work): higher classes are
    scheduled first and lower classes only see their leftover channels.
    ``tenant`` identifies the traffic owner for weighted fair sharing and
    per-tenant admission/accounting (0 = the default single tenant).
    """

    input_fiber: int
    wavelength: int
    output_fiber: int
    duration: int = 1
    priority: int = 0
    tenant: int = 0


@dataclass(frozen=True, slots=True)
class GrantedRequest:
    """A granted request together with its assigned output channel."""

    request: SlotRequest
    channel: int


@dataclass(frozen=True)
class SlotSchedule:
    """Outcome of scheduling one slot across all output fibers."""

    granted: tuple[GrantedRequest, ...]
    rejected: tuple[SlotRequest, ...]
    per_output: dict[int, ScheduleResult] = field(default_factory=dict)

    @property
    def n_granted(self) -> int:
        """Total granted requests this slot."""
        return len(self.granted)

    @property
    def n_rejected(self) -> int:
        """Total rejected requests this slot (output contention losses)."""
        return len(self.rejected)


def validate_slot_request(
    request: SlotRequest, n_fibers: int, k: int
) -> SlotRequest:
    """Raise :class:`InvalidParameterError` unless ``request`` fits an
    ``n_fibers``-fiber interconnect with ``k`` wavelengths; returns it."""
    check_index(request.input_fiber, n_fibers, "input_fiber")
    check_index(request.output_fiber, n_fibers, "output_fiber")
    check_index(request.wavelength, k, "wavelength")
    check_positive_int(request.duration, "duration")
    check_nonnegative_int(request.priority, "priority")
    check_nonnegative_int(request.tenant, "tenant")
    return request


def distribute_grants(
    policy: GrantPolicy,
    output_fiber: int,
    requests: Sequence[SlotRequest],
    grants: Sequence,
) -> tuple[list[GrantedRequest], list[SlotRequest]]:
    """Hand a scheduler's wavelength-level grants to specific requesters.

    Group granted channels by wavelength, then let the policy pick the
    winners of each wavelength's channels.  This is the single code path
    shared by the batch :class:`DistributedScheduler` and the online
    :mod:`repro.service` shards, so both make identical decisions.
    """
    channels_by_wavelength: dict[int, list[int]] = {}
    for g in grants:
        channels_by_wavelength.setdefault(g.wavelength, []).append(g.channel)
    requests_by_wavelength: dict[int, list[SlotRequest]] = {}
    for r in requests:
        requests_by_wavelength.setdefault(r.wavelength, []).append(r)

    granted: list[GrantedRequest] = []
    rejected: list[SlotRequest] = []
    for w, contenders in sorted(requests_by_wavelength.items()):
        channels = sorted(channels_by_wavelength.get(w, []))
        by_fiber = {r.input_fiber: r for r in contenders}
        winners = policy.select_requests(
            output_fiber, w, contenders, len(channels)
        )
        winner_set = set(winners)
        for fiber, channel in zip(sorted(winner_set), channels):
            granted.append(GrantedRequest(by_fiber[fiber], channel))
        rejected.extend(r for r in contenders if r.input_fiber not in winner_set)
    return granted, rejected


def _wraparound_usable(
    k: int,
    e: int,
    f: int,
    request_vector: Sequence[int],
    available: Sequence[bool],
) -> bool:
    """Whether any requested wavelength's circular window has a *usable*
    wraparound edge — i.e. a wrapped channel that is currently available.

    When this is ``False`` the circular request graph, restricted to the
    available channels, is identical to the non-circular (clipped) one:
    every edge crossing the band boundary lands on an unavailable channel,
    so the graph is convex and the First Available pass is exact.
    """
    for w in range(k):
        if not request_vector[w]:
            continue
        lo = w - e
        hi = w + f
        if lo < 0 and any(available[b] for b in range(k + lo, k)):
            return True
        if hi >= k and any(available[b] for b in range(hi - k + 1)):
            return True
    return False


def _schedule_narrowed(
    scheme: ConversionScheme,
    requests: Sequence[SlotRequest],
    available: Sequence[bool],
) -> list:
    """Schedule one degraded-reach group directly on the fast kernels.

    Non-circular narrowed schemes go straight to the ``O(k)`` First
    Available pass.  Circular ones use the ``O(dk)`` BFA pass — except when
    every wraparound edge of the requested wavelengths is faulted/occupied,
    in which case the graph is convex and FA suffices (the BFA → FA
    fallback of the fault model; see ``docs/ROBUSTNESS.md``).
    """
    vec = [0] * scheme.k
    for r in requests:
        vec[r.wavelength] += 1
    e, f = scheme.e, scheme.f
    if isinstance(scheme, CircularConversion) and _wraparound_usable(
        scheme.k, e, f, vec, available
    ):
        grants, _stats = bfa_fast(vec, available, e, f)
        return grants
    return first_available_fast(vec, available, e, f, check=False)


def _degradation_groups(
    scheme: ConversionScheme,
    narrowed: Mapping[int, ConversionScheme],
    requests: Sequence[SlotRequest],
) -> list[tuple[ConversionScheme, list[SlotRequest]]]:
    """Partition ``requests`` by effective converter reach.

    Degraded groups come first, most constrained first (ascending effective
    degree), so the narrowest converters get first pick of the channels and
    are not starved by healthy inputs; the nominal-reach group runs last
    under the caller's configured scheduler.
    """
    by_reach: dict[tuple[int, int], tuple[ConversionScheme, list[SlotRequest]]] = {}
    nominal: list[SlotRequest] = []
    for r in requests:
        eff = narrowed.get(r.input_fiber)
        if eff is None:
            nominal.append(r)
        else:
            entry = by_reach.setdefault((eff.e, eff.f), (eff, []))
            entry[1].append(r)
    groups = [
        by_reach[key]
        for key in sorted(by_reach, key=lambda ef: (ef[0] + ef[1], ef))
    ]
    if nominal:
        groups.append((scheme, nominal))
    return groups


def schedule_output_fiber(
    scheme: ConversionScheme,
    scheduler: Scheduler,
    policy: GrantPolicy,
    output_fiber: int,
    requests: Sequence[SlotRequest],
    available: Sequence[bool] | None,
    degradations: "Mapping[int, tuple[int, int]] | None" = None,
) -> tuple[ScheduleResult, list[GrantedRequest], list[SlotRequest]]:
    """Resolve one output fiber's contention for one slot.

    Runs the per-output scheduler on the requests' wavelength vector (with
    strict-priority layering when several QoS classes are present) and
    distributes the granted channels to individual requesters via the
    policy.  Pure function of its inputs plus any policy state — the shared
    kernel of :class:`DistributedScheduler` and the service shards.

    ``degradations`` maps input fibers to a degraded converter reach
    ``(e', f')`` (see :mod:`repro.faults`).  Affected requests are scheduled
    on the narrowed scheme ``scheme.degraded(e', f')``, layered most
    constrained first on the running availability mask; unaffected requests
    keep the configured scheduler.  Without degradations the fast paths
    below are byte-for-byte the pre-fault behaviour.
    """
    requests = list(requests)
    narrowed: dict[int, ConversionScheme] = {}
    if degradations:
        for fiber, (e2, f2) in degradations.items():
            eff = scheme.degraded(e2, f2)
            if eff is not scheme:
                narrowed[fiber] = eff
        if narrowed and not any(r.input_fiber in narrowed for r in requests):
            narrowed = {}
    if narrowed:
        return _schedule_output_fiber_degraded(
            scheme, scheduler, policy, output_fiber, requests, available,
            narrowed,
        )
    classes = sorted({r.priority for r in requests})
    if len(classes) <= 1:
        rg = RequestGraph.from_wavelengths(
            scheme, (r.wavelength for r in requests), available
        )
        result = scheduler.schedule(rg)
        # Trust boundary: the per-output result may come from a third-party
        # Scheduler — revalidate before handing out channels, so a defective
        # scheduler fails loudly instead of silently wasting channels or
        # granting phantom requests.
        validate_schedule(rg, result.grants)
        granted, rejected = distribute_grants(
            policy, output_fiber, requests, result.grants
        )
        return result, granted, rejected

    # Strict-priority layering (paper future work): schedule class 0 on
    # the full mask, each lower class on the channels left over.
    mask = list(available) if available is not None else [True] * scheme.k
    granted: list[GrantedRequest] = []
    rejected: list[SlotRequest] = []
    all_grants = []
    for priority in classes:
        class_requests = [r for r in requests if r.priority == priority]
        rg = RequestGraph.from_wavelengths(
            scheme, (r.wavelength for r in class_requests), mask
        )
        result = scheduler.schedule(rg)
        validate_schedule(rg, result.grants)
        g, rej = distribute_grants(
            policy, output_fiber, class_requests, result.grants
        )
        granted.extend(g)
        rejected.extend(rej)
        all_grants.extend(result.grants)
        for grant in result.grants:
            mask[grant.channel] = False
    # Combined per-output result for reporting (validated against the
    # union request graph with the original availability).
    rg_all = RequestGraph.from_wavelengths(
        scheme, (r.wavelength for r in requests), available
    )
    combined = make_result(
        rg_all, all_grants, stats={"priority_classes": len(classes)}
    )
    return combined, granted, rejected


def _schedule_output_fiber_degraded(
    scheme: ConversionScheme,
    scheduler: Scheduler,
    policy: GrantPolicy,
    output_fiber: int,
    requests: list[SlotRequest],
    available: Sequence[bool] | None,
    narrowed: Mapping[int, ConversionScheme],
) -> tuple[ScheduleResult, list[GrantedRequest], list[SlotRequest]]:
    """Degraded-mode layering: priority classes outer, converter reach inner.

    Each layer is scheduled on the channels its predecessors left over, and
    its grants are revalidated against the layer's own (narrowed) request
    graph, so a degraded converter can never be granted a channel outside
    its remaining reach.
    """
    classes = sorted({r.priority for r in requests})
    mask = list(available) if available is not None else [True] * scheme.k
    granted: list[GrantedRequest] = []
    rejected: list[SlotRequest] = []
    all_grants = []
    for priority in classes:
        class_requests = [r for r in requests if r.priority == priority]
        for scheme_g, group in _degradation_groups(
            scheme, narrowed, class_requests
        ):
            if scheme_g is scheme:
                rg = RequestGraph.from_wavelengths(
                    scheme, (r.wavelength for r in group), mask
                )
                result = scheduler.schedule(rg)
                grants = result.grants
            else:
                grants = _schedule_narrowed(scheme_g, group, mask)
                rg = RequestGraph.from_wavelengths(
                    scheme_g, (r.wavelength for r in group), mask
                )
            validate_schedule(rg, grants)
            g, rej = distribute_grants(policy, output_fiber, group, grants)
            granted.extend(g)
            rejected.extend(rej)
            all_grants.extend(grants)
            for grant in grants:
                mask[grant.channel] = False
    # Narrowed adjacency is a subset of the nominal adjacency and the layer
    # masks are disjoint, so the union validates against the nominal graph.
    rg_all = RequestGraph.from_wavelengths(
        scheme, (r.wavelength for r in requests), available
    )
    combined = make_result(
        rg_all,
        all_grants,
        stats={
            "priority_classes": len(classes),
            "degraded_inputs": len(narrowed),
        },
    )
    return combined, granted, rejected


class FiberRow(NamedTuple):
    """One output fiber's share of a tick: its requests (in arrival order),
    its free-channel mask and the scheduler that owns it."""

    output_fiber: int
    requests: Sequence[SlotRequest]
    available: Sequence[bool]
    scheduler: Scheduler


#: One fiber's resolved tick: granted and rejected requests.
FiberOutcome = tuple[list[GrantedRequest], list[SlotRequest]]


def _check_assign(
    scheme: ConversionScheme,
    assign: np.ndarray,
    req: np.ndarray,
    avail: np.ndarray,
) -> dict[int, ScheduleError]:
    """Trust boundary for a batch kernel: :func:`validate_schedule` as
    whole-array arithmetic on the ``(M, k)`` assign matrix.

    Flags, per row, an assigned value outside ``[-1, k)``, a grant on an
    unavailable channel, a grant outside the circular or clipped
    conversion window, and a wavelength granted more channels than it has
    requests.  Channel distinctness holds by the encoding (one wavelength
    per channel cell).  Returns the failing rows' errors, each carrying
    :func:`validate_schedule`'s own message for that row.
    """
    m_rows, k = assign.shape
    e, f = scheme.e, scheme.f
    valid = (assign >= -1) & (assign < k)
    granted = valid & (assign >= 0)
    w = np.where(granted, assign, 0)
    offset = np.arange(k) - w
    if isinstance(scheme, CircularConversion):
        in_window = (offset + e) % k <= e + f
    else:
        in_window = (offset >= -e) & (offset <= f)
    flat = (np.arange(m_rows)[:, None] * k + w)[granted]
    counts = np.bincount(flat, minlength=m_rows * k).reshape(m_rows, k)
    bad = (
        ~valid | (granted & ~(avail & in_window))
    ).any(axis=1) | (counts > req).any(axis=1)
    errors: dict[int, ScheduleError] = {}
    for j in np.flatnonzero(bad).tolist():
        # Rare path: name the defect exactly as the per-fiber check does.
        grants = [
            Grant(wavelength=w_b, channel=b)
            for b, w_b in enumerate(assign[j].tolist())
            if w_b != -1
        ]
        rg = RequestGraph(scheme, req[j].tolist(), avail[j].tolist())
        try:
            validate_schedule(rg, grants)
        except ScheduleError as exc:
            errors[j] = exc
        else:  # pragma: no cover - the array check is the stricter one
            errors[j] = ScheduleError(f"batch kernel row {j} is infeasible")
    return errors


def schedule_tick(
    scheme: ConversionScheme,
    policy: GrantPolicy,
    rows: Sequence[FiberRow],
    degradations: "Mapping[int, tuple[int, int]] | None" = None,
    fallback: "Callable[[FiberRow], FiberOutcome] | None" = None,
) -> list["FiberOutcome | ShardDownError"]:
    """Resolve one tick's output fibers with one batch-kernel call.

    The paper's decomposition makes each fiber's FA/BFA decision
    independent of the others, so every row whose scheduler offers a
    :meth:`~repro.core.base.Scheduler.batch_kernel` for ``scheme`` is
    stacked into one ``(M, k)`` request matrix and availability mask,
    solved by one kernel call, and checked once as a whole array
    (:func:`_check_assign`).  Each checked row then goes to
    :func:`distribute_grants`, rows in the given order, so a stateful
    policy draws exactly as it does fiber by fiber.

    Rows the kernel cannot express go through ``fallback`` instead
    (default: :func:`schedule_output_fiber`): rows with a degraded input
    (``degradations``), rows mixing priority classes, and rows whose
    scheduler has no kernel for ``scheme``.  If a kernel call raises, each
    of its rows re-runs through ``fallback`` so only the faulty fibers
    fail.

    Returns one entry per row: ``(granted, rejected)``, or the
    :class:`~repro.errors.ShardDownError` that fiber's shard crashed with
    (the defect — e.g. the :class:`~repro.errors.ScheduleError` of a row
    that failed the check — is its ``__cause__``).  The rest of the
    tick's rows are unaffected.  Never consults the memo cache.
    """
    if fallback is None:

        def fallback(row: FiberRow) -> FiberOutcome:
            return schedule_output_fiber(
                scheme, row.scheduler, policy, row.output_fiber,
                row.requests, row.available, degradations,
            )[1:]

    k = scheme.k
    degraded = degradations or {}
    windowed = isinstance(scheme, (CircularConversion, NonCircularConversion))
    groups: dict[BatchKernel, list[tuple[int, list[int]]]] = {}
    for i, row in enumerate(rows):
        if not windowed or not row.requests:
            continue
        kernel = row.scheduler.batch_kernel(scheme)
        if kernel is None:
            continue
        vector = [0] * k
        priority = row.requests[0].priority
        for r in row.requests:
            if r.priority != priority or r.input_fiber in degraded:
                break
            vector[r.wavelength] += 1
        else:
            groups.setdefault(kernel, []).append((i, vector))

    assigned: dict[int, list[int]] = {}
    failed: dict[int, ScheduleError] = {}
    for kernel, members in groups.items():
        req = np.array([vector for _i, vector in members], dtype=np.int64)
        avail = np.array(
            [rows[i].available for i, _vector in members], dtype=bool
        )
        try:
            assign = kernel(req, avail, scheme.e, scheme.f, check=False)
            if assign.shape != req.shape:
                raise ScheduleError(
                    f"batch kernel returned shape {assign.shape}, "
                    f"expected {req.shape}"
                )
        except Exception:
            continue  # every row of this call re-runs through fallback
        errors = _check_assign(scheme, assign, req, avail)
        for j, ((i, _vector), row_assign) in enumerate(
            zip(members, assign.tolist())
        ):
            if j in errors:
                failed[i] = errors[j]
            else:
                assigned[i] = row_assign

    outcomes: list[FiberOutcome | ShardDownError] = []
    for i, row in enumerate(rows):
        try:
            if i in failed:
                raise failed[i]
            row_assign = assigned.get(i)
            if row_assign is None:
                outcomes.append(fallback(row))
                continue
            grants = [
                Grant(wavelength=w, channel=b)
                for b, w in enumerate(row_assign)
                if w >= 0
            ]
            outcomes.append(
                distribute_grants(
                    policy, row.output_fiber, row.requests, grants
                )
            )
        except ShardDownError as exc:
            outcomes.append(exc)
        except Exception as exc:
            # A defect in this fiber only: the typed crash of its shard,
            # the defect on the chain (as ShardWorker.schedule raises it).
            down = ShardDownError(
                f"shard {row.output_fiber} crashed while scheduling: {exc}"
            )
            down.__cause__ = exc
            outcomes.append(down)
    return outcomes


class DistributedScheduler:
    """Per-output-fiber distributed scheduling for an ``N × N`` interconnect.

    Parameters
    ----------
    n_fibers:
        Interconnect size ``N``.
    scheme:
        Wavelength-conversion scheme (shared by all output fibers).
    scheduler:
        Per-output contention-resolution algorithm (stateless; shared).
    policy:
        Grant policy breaking ties among same-wavelength requesters.
    """

    def __init__(
        self,
        n_fibers: int,
        scheme: ConversionScheme,
        scheduler: Scheduler,
        policy: GrantPolicy | None = None,
    ) -> None:
        self.n_fibers = check_positive_int(n_fibers, "n_fibers")
        self.scheme = scheme
        self.scheduler = scheduler
        self.policy = policy if policy is not None else FixedPriorityPolicy()

    def _validate_requests(self, requests: Sequence[SlotRequest]) -> None:
        seen_channels: set[tuple[int, int]] = set()
        for r in requests:
            validate_slot_request(r, self.n_fibers, self.scheme.k)
            channel = (r.input_fiber, r.wavelength)
            if channel in seen_channels:
                raise InvalidParameterError(
                    f"input channel (fiber {r.input_fiber}, λ{r.wavelength}) "
                    "carries two requests in one slot"
                )
            seen_channels.add(channel)

    def schedule_slot(
        self,
        requests: Sequence[SlotRequest],
        availability: "Mapping[int, Sequence[bool]] | np.ndarray | None" = None,
        degradations: "Mapping[int, tuple[int, int]] | None" = None,
    ) -> SlotSchedule:
        """Schedule one slot.

        ``availability`` marks each output fiber's free channels (Section-V
        occupied channels): either a mapping from output fiber to a length-k
        mask (missing fibers default to all-free) or an ``(N, k)`` boolean
        array — the form the simulation engines maintain natively, row
        ``o`` being output ``o``'s mask.

        ``degradations`` maps input fibers to a degraded converter reach
        ``(e', f')``; it applies to that input's requests on every output
        fiber (the converter sits at the input).  See
        :func:`schedule_output_fiber`.
        """
        self._validate_requests(requests)
        by_output: dict[int, list[SlotRequest]] = {}
        for r in requests:
            by_output.setdefault(r.output_fiber, []).append(r)

        if isinstance(availability, np.ndarray):
            if availability.shape != (self.n_fibers, self.scheme.k):
                raise InvalidParameterError(
                    f"availability array shape {availability.shape} != "
                    f"{(self.n_fibers, self.scheme.k)}"
                )

        per_output: dict[int, ScheduleResult] = {}
        granted: list[GrantedRequest] = []
        rejected: list[SlotRequest] = []
        for o, reqs in sorted(by_output.items()):
            if availability is None:
                available = None
            elif isinstance(availability, np.ndarray):
                available = availability[o]
            else:
                available = availability.get(o)
            result, g, rej = schedule_output_fiber(
                self.scheme, self.scheduler, self.policy, o, reqs,
                available, degradations,
            )
            per_output[o] = result
            granted.extend(g)
            rejected.extend(rej)
        return SlotSchedule(
            granted=tuple(granted),
            rejected=tuple(rejected),
            per_output=per_output,
        )
