"""Break-and-First-Available hardware units (paper Section IV-B).

Two variants, matching the paper's cost discussion:

* :class:`BreakFirstAvailableUnit` — one First Available datapath reused for
  all ``d`` breaks serially: ``1 + d·(k-1) + ceil(log2 d)`` cycles
  (``O(dk)``).
* :class:`ParallelBFAUnit` — ``d`` First Available datapaths in parallel,
  one per break, plus a compare tree picking the largest matching:
  ``1 + (k-1) + ceil(log2 d)`` cycles (``O(k)``) at ``d×`` the hardware cost
  ("we can also implement this algorithm in parallel and time complexity
  could be reduced to O(k), but we then need d units of hardware").

Both commit the winning matching to the request register and are
bit-for-bit equivalent to the software ``bfa_fast`` (tested).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import HardwareModelError, InvalidParameterError, ScheduleError
from repro.hardware.fa_unit import FiberSelect, HardwareGrant
from repro.hardware.registers import RequestRegister
from repro.util.validation import check_nonnegative_int

__all__ = ["BreakFirstAvailableUnit", "ParallelBFAUnit"]


@dataclass(frozen=True, slots=True)
class _Group:
    """One wavelength's requests in a reduced instance: ``count`` requests
    whose shifted-position adjacency is ``[lo, hi]`` (empty if ``hi < lo``)."""

    wavelength: int
    count: int
    lo: int
    hi: int


def _reduced_groups(
    remaining: Sequence[int],
    k: int,
    e: int,
    f: int,
    pivot_w: int,
    t: int,
) -> list[_Group]:
    """Interval form of the reduced graph after breaking at ``(pivot, W+t)``.

    The unit's own break decode, written apart from the software
    ``bfa_fast`` so that their bit-equality test checks one against the
    other.  ``remaining`` are request counts with the pivot's own request
    already removed.  Positions index the shifted channel order ``u+1, ...,
    u-1`` where ``u = (pivot_w + t) mod k``.  Groups are returned in
    ascending offset order (``s = 0, 1, 2, ...``), which Lemma 2 guarantees
    is monotone in both interval endpoints; that and the middle window's
    fit in the reduced range are checked at run time.
    """
    d = e + f + 1
    u = (pivot_w + t) % k
    groups: list[_Group] = []
    for s in range(k):  # offset of wavelength w = pivot_w + s
        w = (pivot_w + s) % k
        count = remaining[w]
        if count == 0:
            continue
        if s == 0:
            # Pivot's same-wavelength siblings (all later in left order):
            # adjacency [u+1, w+f] → prefix ending at unwrapped offset f-t-1.
            lo, hi = 0, f - t - 1
        else:
            s_minus = s - k  # negative representative
            if 1 <= s <= t + e:
                # Plus side of the pivot: prefix [u+1, w+f].
                lo, hi = 0, s + f - t - 1
            elif t - f <= s_minus <= -1:
                # Minus side (circularly just below u): suffix [w-e, u-1].
                length = t - s_minus + e
                lo, hi = (k - 1) - length, k - 2
            else:
                # Untouched middle window [w-e, w+f].
                lo = (w - e - (u + 1)) % k
                hi = lo + d - 1
                if hi > k - 2:
                    raise ScheduleError(
                        f"internal error: middle window of λ{w} wraps past the "
                        f"reduced range (lo={lo}, d={d}, k={k})"
                    )
        groups.append(_Group(wavelength=w, count=count, lo=lo, hi=hi))

    last_lo = last_hi = -1
    for g in groups:
        if g.hi < g.lo:
            continue
        if g.lo < last_lo or g.hi < last_hi:
            raise ScheduleError(
                f"internal error: Lemma-2 monotonicity violated at λ{g.wavelength}: "
                f"({g.lo}, {g.hi}) after ({last_lo}, {last_hi})"
            )
        last_lo, last_hi = g.lo, g.hi
    return groups


@dataclass(frozen=True, slots=True)
class _Candidate:
    """Result of one break's First Available pass."""

    t: int
    u: int
    grants: tuple[tuple[int, int], ...]  # (wavelength, channel) incl. pivot
    cycles: int


def _ceil_log2(n: int) -> int:
    return max(0, (n - 1).bit_length())


class _BFACommon:
    """Shared pivot selection, candidate pass, and commit logic."""

    def __init__(
        self, k: int, e: int, f: int, fiber_select: FiberSelect = "fixed"
    ) -> None:
        self.k = k
        self.e = check_nonnegative_int(e, "e")
        self.f = check_nonnegative_int(f, "f")
        if e + f + 1 > k:
            raise InvalidParameterError(
                f"conversion degree {e + f + 1} exceeds k={k}"
            )
        if fiber_select not in ("fixed", "round-robin"):
            raise InvalidParameterError(
                f"fiber_select must be 'fixed' or 'round-robin', got {fiber_select!r}"
            )
        self.fiber_select = fiber_select
        self._rr_pointers: dict[int, int] = {}

    # -- pivot selection (1 setup cycle) -----------------------------------

    def _find_pivot(
        self, counts: list[int], available: Sequence[bool]
    ) -> tuple[int, list[tuple[int, int]]]:
        """Mirror of the software pivot rule: first wavelength carrying a
        request with at least one free adjacent channel; unmatchable
        wavelengths are masked out."""
        k, e, f = self.k, self.e, self.f
        for w in range(k):
            if counts[w] == 0:
                continue
            breaks = [
                (t, (w + t) % k)
                for t in range(-e, f + 1)
                if available[(w + t) % k]
            ]
            if breaks:
                return w, breaks
            counts[w] = 0
        return -1, []

    # -- one break's First Available pass ((k-1) cycles) --------------------

    def _candidate_pass(
        self,
        counts: Sequence[int],
        available: Sequence[bool],
        pivot_w: int,
        t: int,
        u: int,
    ) -> _Candidate:
        """Run First Available over the reduced instance of break ``(t, u)``.

        One cycle per shifted channel position, exactly like the FA unit;
        the interval decode per wavelength group is combinational (wired
        offset logic derived from ``(t, e, f)``).
        """
        k = self.k
        groups: list[_Group] = _reduced_groups(
            counts, k, self.e, self.f, pivot_w, t
        )
        remaining = [g.count for g in groups]
        grants: list[tuple[int, int]] = [(pivot_w, u)]
        gi = 0
        cycles = 0
        for p in range(k - 1):  # one clock per shifted position
            cycles += 1
            channel = (u + 1 + p) % k
            if not available[channel]:
                continue
            while gi < len(groups):
                g = groups[gi]
                if remaining[gi] == 0 or g.hi < g.lo or g.hi < p:
                    gi += 1
                    continue
                break
            if gi < len(groups) and groups[gi].lo <= p:
                remaining[gi] -= 1
                grants.append((groups[gi].wavelength, channel))
        return _Candidate(t=t, u=u, grants=tuple(grants), cycles=cycles)

    # -- commit -------------------------------------------------------------

    def _select_fiber(self, register: RequestRegister, w: int) -> int:
        if self.fiber_select == "fixed":
            fiber = register.first_fiber_on_wavelength(w, 0)
        else:
            start = self._rr_pointers.get(w, 0) % register.n_fibers
            fiber = register.first_fiber_on_wavelength(w, start)
        if fiber is None:
            raise HardwareModelError(
                f"committing a grant on λ{w} with no pending request"
            )
        if self.fiber_select == "round-robin":
            self._rr_pointers[w] = (fiber + 1) % register.n_fibers
        return fiber

    def _commit(
        self,
        register: RequestRegister,
        winner: _Candidate,
        cycle_base: int,
    ) -> list[HardwareGrant]:
        out: list[HardwareGrant] = []
        for i, (w, channel) in enumerate(winner.grants):
            fiber = self._select_fiber(register, w)
            register.clear(fiber, w)
            out.append(
                HardwareGrant(
                    input_fiber=fiber,
                    wavelength=w,
                    channel=channel,
                    cycle=cycle_base + i,
                )
            )
        return out

    def _run(
        self,
        register: RequestRegister,
        available: Sequence[bool] | None,
        parallel: bool,
    ) -> tuple[list[HardwareGrant], int]:
        if register.k != self.k:
            raise InvalidParameterError(
                f"register is {register.k}-wavelength, unit is {self.k}"
            )
        if available is None:
            available = [True] * self.k
        if len(available) != self.k:
            raise InvalidParameterError(
                f"availability mask length {len(available)} != k={self.k}"
            )
        counts = [register.count_on_wavelength(w) for w in range(self.k)]
        cycles = 1  # setup: pivot priority-encode + break decode
        pivot_w, breaks = self._find_pivot(counts, available)
        if pivot_w < 0:
            return [], cycles
        counts[pivot_w] -= 1

        candidates = [
            self._candidate_pass(counts, available, pivot_w, t, u)
            for t, u in breaks
        ]
        if parallel:
            cycles += max(c.cycles for c in candidates)
        else:
            cycles += sum(c.cycles for c in candidates)
        cycles += _ceil_log2(len(candidates))  # compare tree

        winner = max(candidates, key=lambda c: len(c.grants))
        # Software tie-break: the first break (in t order) that reached the
        # maximum wins, matching bfa_fast's strict-improvement rule.
        for c in candidates:
            if len(c.grants) == len(winner.grants):
                winner = c
                break
        grants = self._commit(register, winner, cycles)
        return grants, cycles


class BreakFirstAvailableUnit(_BFACommon):
    """Serial BFA unit: the ``d`` breaks share one FA datapath —
    ``1 + d(k-1) + ceil(log2 d)`` cycles."""

    def run(
        self,
        register: RequestRegister,
        available: Sequence[bool] | None = None,
    ) -> tuple[list[HardwareGrant], int]:
        """Schedule one output fiber; returns grants and cycle count."""
        return self._run(register, available, parallel=False)


class ParallelBFAUnit(_BFACommon):
    """Parallel BFA unit: ``d`` FA datapaths, ``1 + (k-1) + ceil(log2 d)``
    cycles, ``d×`` hardware cost."""

    def run(
        self,
        register: RequestRegister,
        available: Sequence[bool] | None = None,
    ) -> tuple[list[HardwareGrant], int]:
        """Schedule one output fiber; returns grants and cycle count."""
        return self._run(register, available, parallel=True)

    @property
    def n_units(self) -> int:
        """Number of parallel FA datapaths required (``d``)."""
        return self.e + self.f + 1
