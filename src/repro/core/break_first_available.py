"""Break and First Available Algorithm (paper Table 3, Theorem 2) — ``O(dk)``.

Circular symmetrical conversion makes the request graph non-convex (edges
wrap around the wavelength band).  The paper's remedy: pick one pivot request
``a_i``, and for each of the ``d`` channels ``b_u`` adjacent to it, *break*
the graph at ``a_i b_u`` — remove both vertices, incident edges and all
crossing edges (Definition 1/2) — which leaves a convex reduced graph in a
shifted vertex ordering (Lemma 2).  First Available solves each reduced graph
in ``O(k)``; the best of the ``d`` breaks plus the breaking edge is a maximum
matching of the original graph (Lemmas 3–4, Theorem 2), for ``O(dk)`` total.

The fast implementation here never materializes a graph.  Choosing the pivot
as the *first* request (the lowest wavelength ``W`` carrying a request) makes
the shifted left ordering coincide with ascending wavelength order, and the
reduced adjacency of a wavelength ``w = W + s`` (``s`` the canonical signed
offset of ``w`` from ``W``, ``u = W + t`` the breaking channel) collapses to
three interval forms in shifted channel positions ``0..k-2``:

* ``s ∈ [t-f, -1]`` or (``s = 0``, pivot's siblings when the paper's Case 2.1
  applies): adjacency ``[w - e, u - 1]`` — a suffix of the position range;
* ``s ∈ [1, t+e]`` or (``s = 0``, Case 2.2 frame): adjacency ``[u + 1, w + f]``
  — a prefix;
* otherwise: the untouched window ``[w - e, w + f]`` — ``d`` consecutive
  positions in the middle.

(The boundary offsets ``s = t - f`` and ``s = t + e``, whose requests are
adjacent to ``b_u`` but have no crossing edges, reduce to the same interval
forms because only the edge into the removed ``b_u`` disappears.)
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from repro.core import kernels
from repro.core.base import BatchKernel, Scheduler, make_result
from repro.core.memo import (
    ScheduleCache,
    schedule_cache_key,
    resolve_cache as _resolve_cache,
)
from repro.errors import InvalidParameterError
from repro.graphs.breaking import break_graph
from repro.graphs.conversion import CircularConversion, ConversionScheme
from repro.graphs.request_graph import RequestGraph
from repro.types import Grant, ScheduleResult

__all__ = [
    "bfa_fast",
    "BreakFirstAvailableScheduler",
    "BreakFirstAvailableReferenceScheduler",
]


class _Pivot(NamedTuple):
    """Table 3's pivot request and the reduced instance every break shares."""

    wavelength: int  # -1: no request has a free adjacent channel
    offsets: list[int]  # break offsets t in [-e, f] whose channel is free
    skipped: int  # unmatchable wavelengths dropped before the pivot
    entry_s: list[int]  # remaining requests' offsets s from the pivot, ascending
    entry_w: list[int]  # ... their wavelengths
    counts: list[int]  # ... and their counts (pivot's own request removed)


def _find_pivot(
    request_vector: Sequence[int], available: Sequence[bool], e: int, f: int
) -> _Pivot:
    """Pick the pivot: the first request overall — the lowest wavelength
    carrying one.

    A wavelength whose whole adjacency window is occupied can never be
    granted; dropping it leaves the maximum matching unchanged, so the rule
    skips to the next candidate (needed for the Section-V occupied-channel
    case).  The reduced instance's left side — wavelengths with remaining
    requests in ascending offset order from the pivot, the Lemma-2 shifted
    ordering — is laid out once here; only the intervals depend on the
    break.
    """
    k = len(request_vector)
    remaining = list(request_vector)
    skipped = 0
    for w in range(k):
        if remaining[w] == 0:
            continue
        offsets = [t for t in range(-e, f + 1) if available[(w + t) % k]]
        if offsets:
            break
        remaining[w] = 0  # unmatchable: every adjacent channel occupied
        skipped += 1
    else:
        return _Pivot(-1, [], skipped, [], [], [])

    remaining[w] -= 1
    entry_s: list[int] = []
    entry_w: list[int] = []
    counts: list[int] = []
    for s in range(k):
        v = (w + s) % k
        if remaining[v] > 0:
            entry_s.append(s)
            entry_w.append(v)
            counts.append(remaining[v])
    return _Pivot(w, offsets, skipped, entry_s, entry_w, counts)


def _break_sweep(
    pivot: _Pivot, available: Sequence[bool], e: int, f: int, t: int
) -> list[tuple[int, int]]:
    """Break at ``(pivot, pivot + t)`` and run First Available on the rest.

    Returns ``(wavelength, channel)`` pairs: the breaking edge first, then
    the reduced graph's grants in shifted channel order ``u+1, ..., u-1``.
    ``O(k)`` by the same advancing-pointer argument as
    :func:`repro.core.first_available.first_available_fast`.
    """
    k = len(available)
    d = e + f + 1
    u = (pivot.wavelength + t) % k
    entry_s, entry_w = pivot.entry_s, pivot.entry_w
    n_groups = len(entry_s)
    # Interval decode per group (see module docstring for the cases).
    lows = [0] * n_groups
    highs = [0] * n_groups
    wrap = k + t - f  # smallest positive s on the circular minus side
    for gi in range(n_groups):
        s = entry_s[gi]
        if s == 0:
            lows[gi], highs[gi] = 0, f - t - 1
        elif 1 <= s <= t + e:
            lows[gi], highs[gi] = 0, s + f - t - 1
        elif s >= wrap:
            length = t - (s - k) + e
            lows[gi], highs[gi] = (k - 1) - length, k - 2
        else:
            lo = (entry_w[gi] - e - u - 1) % k
            lows[gi], highs[gi] = lo, lo + d - 1
    counts = pivot.counts.copy()
    pairs: list[tuple[int, int]] = [(pivot.wavelength, u)]
    gi = 0
    for p in range(k - 1):
        channel = u + 1 + p
        if channel >= k:
            channel -= k
        if not available[channel]:
            continue
        while gi < n_groups and (
            counts[gi] == 0 or highs[gi] < lows[gi] or highs[gi] < p
        ):
            gi += 1
        if gi < n_groups and lows[gi] <= p:
            counts[gi] -= 1
            pairs.append((entry_w[gi], channel))
    return pairs


def bfa_fast(
    request_vector: Sequence[int],
    available: Sequence[bool],
    e: int,
    f: int,
) -> tuple[list[Grant], dict[str, int]]:
    """The ``O(dk)`` Break-and-First-Available pass on a request vector.

    Adjacency is the circular window ``[w - e, w + f] mod k``.  Returns the
    grants plus counters (number of reduced graphs tried, pivots skipped).
    """
    k = len(request_vector)
    if len(available) != k:
        raise InvalidParameterError(
            f"availability mask length {len(available)} != k={k}"
        )
    if e < 0 or f < 0:
        raise InvalidParameterError("conversion reaches must be nonnegative")
    if e + f + 1 > k:
        raise InvalidParameterError(
            f"conversion degree e+f+1={e + f + 1} exceeds k={k}"
        )
    pivot = _find_pivot(request_vector, available, e, f)
    stats = {"reduced_graphs": 0, "pivots_skipped": pivot.skipped}
    if pivot.wavelength < 0:
        return [], stats

    n_available = sum(1 for b in range(k) if available[b])
    perfect = min(sum(pivot.counts) + 1, n_available)  # +1: the pivot grant
    best_pairs: list[tuple[int, int]] | None = None
    for t in pivot.offsets:
        pairs = _break_sweep(pivot, available, e, f, t)
        stats["reduced_graphs"] += 1
        if best_pairs is None or len(pairs) > len(best_pairs):
            best_pairs = pairs
            if len(best_pairs) >= perfect:
                break  # cannot do better than granting everything grantable
    assert best_pairs is not None
    return [Grant(wavelength=w, channel=b) for w, b in best_pairs], stats


class BreakFirstAvailableScheduler(Scheduler):
    """Fast ``O(dk)`` Break-and-First-Available scheduler (paper Table 3).

    Requires circular symmetrical conversion (full range included, though the
    trivial :class:`~repro.core.full_range.FullRangeScheduler` is cheaper
    there).  ``cache`` memoizes the per-output sub-problem as in
    :class:`~repro.core.first_available.FirstAvailableScheduler`.
    """

    name = "break-first-available"

    def __init__(self, cache: "ScheduleCache | bool | None" = True) -> None:
        self._cache = _resolve_cache(cache)

    def _check_scheme(self, rg: RequestGraph) -> None:
        if not isinstance(rg.scheme, CircularConversion):
            raise InvalidParameterError(
                "BreakFirstAvailableScheduler requires circular symmetrical "
                f"conversion, got {rg.scheme!r}; use FirstAvailableScheduler "
                "for non-circular schemes"
            )

    def batch_kernel(self, scheme: ConversionScheme) -> BatchKernel | None:
        if isinstance(scheme, CircularConversion) and not scheme.is_full_range:
            return kernels.batch_break_first_available
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
        grants, stats = bfa_fast(
            rg.request_vector, rg.available, rg.scheme.e, rg.scheme.f
        )
        result = make_result(rg, grants, stats=stats)
        if self._cache is not None:
            self._cache.put(key, result)
        return result


class BreakFirstAvailableReferenceScheduler(Scheduler):
    """Table-3 verbatim on explicit graphs (reference oracle).

    Breaks the explicit request graph at each of the pivot's edges via
    :func:`repro.graphs.breaking.break_graph` and keeps the best matching.
    Exponentially slower than the fast version on large instances but
    structurally identical to the paper's pseudocode.
    """

    name = "break-first-available-ref"

    def _check_scheme(self, rg: RequestGraph) -> None:
        BreakFirstAvailableScheduler()._check_scheme(rg)

    def schedule(self, rg: RequestGraph) -> ScheduleResult:
        self._check_scheme(rg)
        graph = rg.graph
        pivot = next(
            (a for a in range(graph.n_left) if graph.degree_left(a) > 0), None
        )
        if pivot is None:
            return make_result(rg, [], stats={"reduced_graphs": 0})
        best = None
        tried = 0
        for u in graph.neighbors_of_left(pivot):
            matching = break_graph(rg, pivot, u).solve()
            tried += 1
            if best is None or len(matching) > len(best):
                best = matching
        assert best is not None
        grants = [
            Grant(wavelength=rg.wavelength_of(a), channel=b) for a, b in best
        ]
        return make_result(rg, grants, stats={"reduced_graphs": tried})
