"""Batch FA/BFA across many output fibers, and the row sweeps behind them.

The distributed schedulers are embarrassingly parallel across the ``N``
output fibers: each output runs its own O(k) (FA) / O(dk) (BFA) greedy on
its own request vector.  :func:`batch_first_available` and
:func:`batch_break_first_available` run one such scheduler per row of an
``(M, k)`` request matrix.  They validate and normalize their inputs
(:func:`prepare_inputs`) and hand the arrays to a sweep:

* the **scalar** sweeps (:func:`fa_scalar`, :func:`bfa_scalar`) — plain
  list loops with no NumPy dispatch inside the loop.  :func:`fa_scalar`
  is a line-for-line port of
  :func:`~repro.core.first_available.first_available_fast`.
  :func:`bfa_scalar` runs the greedy of
  :func:`~repro.core.break_first_available.bfa_fast` a request group at
  a time from a per-scheme interval table, rather than a channel at a
  time; the two are bit-identical by test, not by construction;
* the **vectorized** FA sweep (:func:`fa_vectorized`) — all ``M`` rows
  advanced channel by channel in lock step with boolean-mask pointer
  updates, ``O(k)`` NumPy passes of width ``M``.

BFA always runs the scalar sweep: a lock-step BFA sweep lost to it on
most inputs at every row count measured, up to 4096.  FA runs it up to
:data:`SCALAR_ROWS` rows (NumPy's per-call dispatch costs more than the
whole greedy pass on a small matrix) and the vectorized sweep above.  See
docs/PERFORMANCE.md, "Kernels", for the measured sweeps over ``M``.

The sweeps take C-contiguous ``(M, k)`` ``int64`` request and ``bool``
availability matrices plus plain-int ``(e, f)``; every sweep returns the
``(M, k)`` ``int64`` assign matrix (``assign[m, b]`` is the wavelength
granted channel ``b`` of row ``m``, or ``-1``).  The bit-identity suites
(``tests/test_kernels.py``, ``tests/test_batch*.py``) hold every sweep and
both entry points to the per-row scalar schedulers.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate, compress
from types import SimpleNamespace

import numpy as np

from repro.errors import InvalidParameterError

__all__ = [
    "SCALAR_ROWS",
    "batch_first_available",
    "batch_break_first_available",
    "fa_scalar",
    "bfa_scalar",
    "fa_vectorized",
    "get_backend",
]

#: First Available matrices with at most this many rows run the scalar
#: sweep, larger ones the vectorized sweep.  Read at call time, so tests
#: can override it.
SCALAR_ROWS = 128

_BACKEND = SimpleNamespace(name="numpy")


def get_backend() -> SimpleNamespace:
    """The kernel implementation's report name: ``.name`` is ``"numpy"``.

    There is one implementation; run reports (``perfbench/run.py``'s
    facts line) print this name.
    """
    return _BACKEND


# -- batch entry points --------------------------------------------------------


def batch_first_available(
    request_matrix: np.ndarray,
    available: np.ndarray | None,
    e: int,
    f: int,
    *,
    check: bool = True,
) -> np.ndarray:
    """First Available over ``M`` output fibers at once (non-circular).

    Parameters
    ----------
    request_matrix:
        ``(M, k)`` integer array; entry ``(m, w)`` counts requests on
        ``λ_w`` destined to output ``m``.
    available:
        Optional ``(M, k)`` boolean array of free channels (default: all).
    e, f:
        Conversion reach (clipped non-circular windows, as in
        :func:`~repro.core.first_available.first_available_fast`).
    check:
        When False, skip input validation (shape / integer / sign / reach
        checks).  For inner-loop callers whose inputs are pre-validated —
        the fast simulator and the service tick loop; malformed input then
        produces undefined results instead of :class:`InvalidParameterError`.

    Returns
    -------
    ``(M, k)`` integer array ``assign`` where ``assign[m, b]`` is the input
    wavelength granted output channel ``b`` of output ``m``, or ``-1`` if
    the channel is unused.  Bit-identical to running ``first_available_fast``
    per row (tested); the row count only picks the faster sweep.
    """
    req, avail = prepare_inputs(request_matrix, available, e, f, check)
    if req.shape[0] <= SCALAR_ROWS:
        return fa_scalar(req, avail, int(e), int(f))
    return fa_vectorized(req, avail, int(e), int(f))


def batch_break_first_available(
    request_matrix: np.ndarray,
    available: np.ndarray | None,
    e: int,
    f: int,
    *,
    check: bool = True,
) -> np.ndarray:
    """Break-and-First-Available over ``M`` output fibers at once (circular).

    Parameters and return value mirror :func:`batch_first_available`.
    ``O(d k)`` work per row, bit-identical to running
    :func:`~repro.core.break_first_available.bfa_fast` per row (tested),
    including pivot selection and the first-best tie-break over the ``d``
    break offsets.
    """
    req, avail = prepare_inputs(request_matrix, available, e, f, check)
    return bfa_scalar(req, avail, int(e), int(f))


def prepare_inputs(
    request_matrix: np.ndarray,
    available: np.ndarray | None,
    e: int,
    f: int,
    check: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """One batch call's ``(int64 requests, bool availability)`` arrays.

    Shared by both batch entry points.  With ``check`` the inputs are
    validated first: a 2-D matrix of nonnegative integer counts (floats
    must be whole numbers — ``0.5`` raises rather than truncating), an
    availability mask of the same shape, and a reach that fits ``k``.
    """
    req = np.asarray(request_matrix)
    if check:
        if req.ndim != 2:
            raise InvalidParameterError(
                f"request matrix must be 2-D (M, k), got shape {req.shape}"
            )
        if req.dtype.kind not in "biu" and not (
            req.dtype.kind == "f"
            and bool(np.all(np.isfinite(req) & (req == np.trunc(req))))
        ):
            raise InvalidParameterError("request counts must be integers")
        if np.any(req < 0):
            raise InvalidParameterError("request counts must be nonnegative")
    m_rows, k = req.shape
    if available is None:
        avail = np.ones((m_rows, k), dtype=bool)
    else:
        avail = np.ascontiguousarray(available, dtype=bool)
        if check and avail.shape != (m_rows, k):
            raise InvalidParameterError(
                f"availability shape {avail.shape} != request shape {(m_rows, k)}"
            )
    if check:
        if e < 0 or f < 0:
            raise InvalidParameterError("conversion reaches must be nonnegative")
        if e + f + 1 > k:
            raise InvalidParameterError(
                f"conversion degree {e + f + 1} exceeds k={k}"
            )
    return np.ascontiguousarray(req, dtype=np.int64), avail


# -- scalar sweeps -------------------------------------------------------------


def fa_scalar(req: np.ndarray, avail: np.ndarray, e: int, f: int) -> np.ndarray:
    """Per-row First Available (clipped windows) on plain lists."""
    m_rows, k = req.shape
    rem = req.tolist()
    avail_l = avail.tolist()
    out = [[-1] * k for _ in range(m_rows)]
    for m in range(m_rows):
        c = rem[m]
        a = avail_l[m]
        row = out[m]
        p = 0
        for b in range(k):
            lo = b - f
            if p < lo:
                p = lo
            hi = b + e
            if hi > k - 1:
                hi = k - 1
            while p <= hi and c[p] == 0:
                p += 1
            if a[b] and p <= hi:
                c[p] -= 1
                row[b] = p
    assign = np.full((m_rows, k), -1, dtype=np.int64)
    if m_rows:
        assign[:] = out
    return assign


@cache
def _bfa_decode(k: int, e: int, f: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The reduced graph's adjacency intervals, ``[t + e] -> (lows, highs)``.

    Break at ``(pivot, u = pivot + t)`` and sweep the channels after
    ``u``: position ``p`` is channel ``u + 1 + p``, ``0 <= p <= k - 2``.
    The requests on wavelength ``pivot + s`` are then adjacent to
    positions ``s - t - e - 1 .. s - t + f - 1``, their conversion
    window, clipped to that range.  The four interval cases of
    :func:`~repro.core.break_first_available._break_sweep` are this one
    window: the pivot's own wavelength and the prefix side are clipped at
    0, the suffix side at ``k - 2``, the rest is whole.  It depends on
    ``(k, e, f, s, t)`` only.

    Stored for :func:`_bfa_row`'s free-channel counts: the interval is
    the channels from ``u + lows[s]`` up to, not including,
    ``u + highs[s]``.  The one empty interval (``s = 0`` at ``t = f``:
    the pivot's other requests, with ``u`` its last channel) comes out
    as ``(1, 1)``, which selects nothing.
    """
    return tuple(
        (
            tuple(max(s - t - e, 1) for s in range(k)),
            tuple(min(s - t + f + 1, k) for s in range(k)),
        )
        for t in range(-e, f + 1)
    )


def _bfa_row(
    c: list, a: list, n_free: list, free: list, e: int, f: int, row: list
) -> None:
    """One row of Break-and-First-Available (bfa_fast's greedy, its grants
    bit for bit).

    ``c`` (request counts) is consumed; ``a`` is the availability row and
    ``n_free``/``free`` its layout (see :func:`bfa_scalar`).  Grants land
    in ``row`` as ``row[channel] = wavelength``.  Each break runs First
    Available on the reduced graph one request group at a time — a group
    is the requests on one wavelength, in ascending offset from the
    pivot.  A group takes the next free channels of its interval, up to
    its count: the same run that bfa_fast's channel-by-channel pointer
    grants it.  ``n_free`` locates each run in O(1), so a break costs
    O(groups) steps rather than O(k).  Only the winning break's runs are
    written.
    """
    k = len(c)
    # Pivot: first wavelength carrying a request with any free channel in
    # its circular window; unmatchable candidates are zeroed and skipped.
    pivot = -1
    for w in range(k):
        if c[w] == 0:
            continue
        found = False
        for t in range(-e, f + 1):
            if a[(w + t) % k]:
                found = True
                break
        if found:
            pivot = w
            break
        c[w] = 0
    if pivot < 0:
        return
    c[pivot] -= 1

    # Every wavelength below the pivot is 0 now, so the remaining requests
    # in ascending offset s from the pivot are the nonzero tail from it.
    tail = c[pivot:]
    entry_s = list(compress(range(k - pivot), tail))
    counts = list(compress(tail, tail))
    perfect = min(sum(counts) + 1, n_free[k])
    tables = _bfa_decode(k, e, f)

    best_n = -1
    best_u = -1
    best_runs: list[tuple[int, int, int]] = []
    for t in range(-e, f + 1):
        u = (pivot + t) % k
        if not a[u]:
            continue
        lows, highs = tables[t + e]
        swept = n_free[u : u + k + 1]  # swept[x] = n_free[u + x]
        j = swept[1]  # index of the next free channel to grant
        n = 1  # the breaking edge (pivot, u)
        runs = []  # (offset s, first free-channel index, channels taken)
        for s, count in zip(entry_s, counts):
            lo = swept[lows[s]]
            if lo > j:
                j = lo  # free channels before the interval stay unused
            take = swept[highs[s]] - j
            if take > 0:
                if take > count:
                    take = count
                runs.append((s, j, take))
                n += take
                j += take
        if n > best_n:  # first-best tie-break over the d breaks
            best_n = n
            best_u = u
            best_runs = runs
            if best_n >= perfect:
                break
    row[best_u] = pivot
    for s, j, take in best_runs:
        for b in free[j : j + take]:
            row[b] = pivot + s


def bfa_scalar(req: np.ndarray, avail: np.ndarray, e: int, f: int) -> np.ndarray:
    """Per-row Break-and-First-Available (circular) on plain lists."""
    m_rows, k = req.shape
    rem = req.tolist()
    avail_l = avail.tolist()
    out = [[-1] * k for _ in range(m_rows)]
    # Per availability row: n_free[x] counts the free channels below x,
    # channel b counted again at b + k, so the free channels met after a
    # break channel u are entries n_free[u + 1] .. n_free[u + k] - 1 of
    # ``free`` (the free channels, listed twice).
    layouts: dict[tuple, tuple[list, list]] = {}
    for m in range(m_rows):
        a = avail_l[m]
        key = tuple(a)
        layout = layouts.get(key)
        if layout is None:
            layout = layouts[key] = (
                list(accumulate(a + a, initial=0)),
                list(compress(range(k), a)) * 2,
            )
        _bfa_row(rem[m], a, *layout, e, f, out[m])
    assign = np.full((m_rows, k), -1, dtype=np.int64)
    if m_rows:
        assign[:] = out
    return assign


# -- vectorized sweep ----------------------------------------------------------


def fa_vectorized(
    req: np.ndarray, avail: np.ndarray, e: int, f: int
) -> np.ndarray:
    """Per-row First Available, all rows advanced in lock step."""
    m_rows, k = req.shape
    remaining = req.copy()
    assign = np.full((m_rows, k), -1, dtype=np.int64)
    # Per-row wavelength pointer: smallest wavelength that may still serve a
    # future channel.  Identical role to the scalar pointer in
    # first_available_fast; each row's pointer only ever advances, so total
    # advancement work is O(M k) in vectorized chunks.
    p = np.zeros(m_rows, dtype=np.int64)
    rows = np.arange(m_rows)
    for b in range(k):
        lo = max(0, b - f)
        hi = min(k - 1, b + e)
        np.maximum(p, lo, out=p)
        # Advance pointers over exhausted wavelengths inside the window.
        while True:
            inside = p <= hi
            need = inside & (remaining[rows, np.minimum(p, k - 1)] == 0)
            if not need.any():
                break
            p[need] += 1
        grant = avail[:, b] & (p <= hi) & (remaining[rows, np.minimum(p, k - 1)] > 0)
        if grant.any():
            g_rows = rows[grant]
            g_wl = p[grant]
            remaining[g_rows, g_wl] -= 1
            assign[g_rows, b] = g_wl
    return assign
