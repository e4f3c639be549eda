"""First Available Algorithm (paper Table 2, Theorem 1) — ``O(k)``.

For non-circular symmetrical conversion the request graph is convex with
``BEGIN``/``END`` monotone in left-vertex index, so matching each output
channel (in ascending order) to the *first* request that can reach it yields
a maximum matching.  Because same-wavelength requests are interchangeable for
matching-size purposes, the fast implementation works directly on the request
vector: for channel ``b`` the first adjacent request is the smallest
wavelength ``w ∈ [b - f, b + e]`` with remaining requests.  A single
advancing wavelength pointer makes the whole pass ``O(k)`` — independent of
the interconnect size ``N`` *and* of the conversion degree ``d``, exactly as
the paper claims for the hardware implementation.

Two implementations are exported:

* :func:`first_available_fast` — the ``O(k)`` request-vector algorithm.
* :class:`FirstAvailableScheduler` / :class:`FirstAvailableReferenceScheduler`
  — scheduler wrappers around the fast and the explicit-graph (Table-2
  verbatim) versions; the test suite proves them equivalent.
"""

from __future__ import annotations

from typing import Sequence

from repro.core import kernels
from repro.errors import InvalidParameterError
from repro.graphs.conversion import (
    ConversionScheme,
    FullRangeConversion,
    NonCircularConversion,
)
from repro.graphs.convex import first_available_convex
from repro.graphs.request_graph import RequestGraph
from repro.core.base import BatchKernel, Scheduler, make_result
from repro.core.memo import (
    ScheduleCache,
    schedule_cache_key,
    resolve_cache as _resolve_cache,
)
from repro.types import Grant, ScheduleResult

__all__ = [
    "first_available_fast",
    "FirstAvailableScheduler",
    "FirstAvailableReferenceScheduler",
]


def first_available_fast(
    request_vector: Sequence[int],
    available: Sequence[bool],
    e: int,
    f: int,
    *,
    check: bool = True,
) -> list[Grant]:
    """The ``O(k)`` First Available pass on a request vector.

    ``request_vector[w]`` counts requests on ``λ_w``; ``available[b]`` marks
    free output channels.  Adjacency is the non-circular clipped window:
    channel ``b`` serves wavelengths ``[b - f, b + e] ∩ [0, k)``.  Returns
    the grants in ascending channel order.  ``check=False`` skips input
    validation for pre-validated inner-loop callers.
    """
    k = len(request_vector)
    if check:
        if len(available) != k:
            raise InvalidParameterError(
                f"availability mask length {len(available)} != k={k}"
            )
        if e < 0 or f < 0:
            raise InvalidParameterError("conversion reaches must be nonnegative")
    remaining = list(request_vector)
    grants: list[Grant] = []
    p = 0  # smallest wavelength that may still have grantable requests
    for b in range(k):
        if not available[b]:
            continue
        lo = b - f
        hi = b + e
        if p < lo:
            p = lo
        if p < 0:
            p = 0
        # Skip exhausted wavelengths inside this channel's window.  The
        # pointer never retreats, so the total work over all channels is
        # O(k): counts only ever decrease, and a skipped wavelength stays
        # exhausted forever.
        while p < k and p <= hi and remaining[p] == 0:
            p += 1
        if p < k and p <= hi and remaining[p] > 0:
            remaining[p] -= 1
            grants.append(Grant(wavelength=p, channel=b))
    return grants


class FirstAvailableScheduler(Scheduler):
    """Fast ``O(k)`` First Available scheduler (paper Table 2).

    Supports non-circular symmetrical conversion and full-range conversion
    (where the window covers every channel and the graph is trivially convex
    and monotone).  For circular symmetrical conversion use
    :class:`~repro.core.break_first_available.BreakFirstAvailableScheduler`.

    ``cache`` memoizes the per-output sub-problem (see
    :mod:`repro.core.memo`): ``True`` (default) shares the process-wide LRU,
    ``None``/``False`` disables, or pass a dedicated
    :class:`~repro.core.memo.ScheduleCache`.
    """

    name = "first-available"

    def __init__(self, cache: "ScheduleCache | bool | None" = True) -> None:
        self._cache = _resolve_cache(cache)

    def _check_scheme(self, rg: RequestGraph) -> None:
        scheme: ConversionScheme = rg.scheme
        if not isinstance(scheme, (NonCircularConversion, FullRangeConversion)):
            raise InvalidParameterError(
                "FirstAvailableScheduler requires non-circular symmetrical "
                f"(or full-range) conversion, got {scheme!r}; "
                "use BreakFirstAvailableScheduler for circular schemes"
            )

    def batch_kernel(self, scheme: ConversionScheme) -> BatchKernel | None:
        # Full range keeps the per-fiber path (its clipped window differs
        # from the scheme's own (e, f); see schedule()).
        if isinstance(scheme, NonCircularConversion):
            return kernels.batch_first_available
        return None

    def schedule(self, rg: RequestGraph) -> ScheduleResult:
        self._check_scheme(rg)
        if self._cache is not None:
            key = schedule_cache_key(
                self.name, rg.scheme, rg.request_vector, rg.available
            )
            cached = self._cache.get(key)
            if cached is not None:
                return cached
        # Full range conversion reaches every channel from every wavelength;
        # the clipped window that realizes that for *every* channel is
        # e = f = k - 1 (FullRangeConversion's own (e, f) split the reach
        # circularly, which the non-circular window formula must not use).
        if rg.scheme.is_full_range:
            e = f = rg.k - 1
        else:
            e, f = rg.scheme.e, rg.scheme.f
        grants = first_available_fast(
            rg.request_vector, rg.available, e, f, check=False
        )
        result = make_result(rg, grants, stats={"channels_scanned": rg.k})
        if self._cache is not None:
            self._cache.put(key, result)
        return result


class FirstAvailableReferenceScheduler(Scheduler):
    """Table-2 verbatim on the explicit request graph (reference oracle).

    Runs in ``O(|E|)``; used to cross-validate the fast implementation and
    in the figure-regeneration experiments where the explicit matching
    (which request, not just which wavelength) matters.
    """

    name = "first-available-ref"

    def _check_scheme(self, rg: RequestGraph) -> None:
        FirstAvailableScheduler()._check_scheme(rg)

    def schedule(self, rg: RequestGraph) -> ScheduleResult:
        self._check_scheme(rg)
        right_order = [b for b in range(rg.k) if rg.available[b]]
        matching = first_available_convex(rg.graph, right_order)
        grants = [
            Grant(wavelength=rg.wavelength_of(a), channel=b) for a, b in matching
        ]
        return make_result(rg, grants)
