"""Single-break approximation scheduler (paper Section IV-C).

Break-and-First-Available tries all ``d`` breaks because the edge belonging
to a no-crossing-edge maximum matching is not known in advance.  When speed
(or hardware cost) matters more than the last unit of throughput, a single
break suffices: breaking at edge ``a_i b_u`` where ``b_u`` is the ``δ(u)``-th
adjacent channel counted from the minus end loses at most
``max(δ(u) - 1, d - δ(u))`` matches (Theorem 3), minimized by the "shortest"
edge ``δ(u) = (d + 1) / 2`` at ``(d - 1) / 2`` (Corollary 1) — e.g. at most 1
lost match for ``d = 3`` and at most 2 for ``d = 5``.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from repro.core.base import Scheduler, make_result
from repro.core.break_first_available import _break_sweep, _find_pivot
from repro.errors import InvalidParameterError
from repro.graphs.conversion import CircularConversion
from repro.graphs.request_graph import RequestGraph
from repro.types import Grant, ScheduleResult
from repro.util.rng import make_rng

__all__ = ["BreakPolicy", "deficit_bound", "SingleBreakScheduler"]

BreakPolicy = Literal["shortest", "minus-end", "plus-end", "random"]

_POLICIES: tuple[str, ...] = ("shortest", "minus-end", "plus-end", "random")


def deficit_bound(delta: int, d: int) -> int:
    """Theorem-3 bound on the matching deficit of breaking at the
    ``delta``-th adjacent edge (1-based from the minus end) with conversion
    degree ``d``: ``max(delta - 1, d - delta)``."""
    if not 1 <= delta <= d:
        raise InvalidParameterError(f"delta must be in [1, {d}], got {delta}")
    return max(delta - 1, d - delta)


def _delta_of_offset(t: int, e: int) -> int:
    """``δ(u)``: position of break offset ``t ∈ [-e, f]`` counted 1-based
    from the minus end of the adjacency window."""
    return t + e + 1


class SingleBreakScheduler(Scheduler):
    """Approximate ``O(k)`` scheduler: one break instead of ``d`` (Sec. IV-C).

    Parameters
    ----------
    policy:
        Which of the pivot's edges to break at:

        * ``"shortest"`` (default) — the Corollary-1 choice
          ``δ = ceil((d + 1) / 2)``, bound ``floor(d / 2)`` (equal to
          ``(d - 1) / 2`` for odd ``d``);
        * ``"minus-end"`` — ``δ = 1`` (worst bound ``d - 1``);
        * ``"plus-end"`` — ``δ = d`` (worst bound ``d - 1``);
        * ``"random"`` — uniform over the window (needs ``seed``).

        If the policy's channel is occupied, the nearest available adjacent
        channel with the smallest Theorem-3 bound is used instead.
    seed:
        RNG seed for the ``"random"`` policy.
    """

    def __init__(self, policy: BreakPolicy = "shortest", seed: int | None = None):
        if policy not in _POLICIES:
            raise InvalidParameterError(
                f"unknown break policy {policy!r}; choose from {_POLICIES}"
            )
        self.policy = policy
        self._rng = make_rng(seed)
        self.name = f"single-break[{policy}]"

    def _check_scheme(self, rg: RequestGraph) -> None:
        if not isinstance(rg.scheme, CircularConversion):
            raise InvalidParameterError(
                "SingleBreakScheduler requires circular symmetrical "
                f"conversion, got {rg.scheme!r}"
            )

    def _choose_offset(self, candidates: list[int], e: int, f: int) -> int:
        """Pick the break offset ``t`` among available candidates."""
        d = e + f + 1
        if self.policy == "random":
            return int(self._rng.choice(np.asarray(candidates)))
        if self.policy == "minus-end":
            target_delta = 1
        elif self.policy == "plus-end":
            target_delta = d
        else:  # shortest (Corollary 1)
            target_delta = (d + 1 + 1) // 2  # ceil((d + 1) / 2)
        return min(
            candidates,
            key=lambda t: (
                abs(_delta_of_offset(t, e) - target_delta),
                deficit_bound(_delta_of_offset(t, e), d),
                abs(t),
            ),
        )

    def schedule(self, rg: RequestGraph) -> ScheduleResult:
        self._check_scheme(rg)
        scheme = rg.scheme
        e, f = scheme.e, scheme.f
        pivot = _find_pivot(rg.request_vector, rg.available, e, f)
        if pivot.wavelength < 0:
            return make_result(
                rg, [], stats={"reduced_graphs": 0, "pivots_skipped": pivot.skipped}
            )

        t = self._choose_offset(pivot.offsets, e, f)
        pairs = _break_sweep(pivot, rg.available, e, f, t)
        grants = [Grant(wavelength=w, channel=b) for w, b in pairs]
        delta = _delta_of_offset(t, e)
        return make_result(
            rg,
            grants,
            stats={
                "reduced_graphs": 1,
                "pivots_skipped": pivot.skipped,
                "delta": delta,
                "deficit_bound": deficit_bound(delta, scheme.degree),
            },
        )
