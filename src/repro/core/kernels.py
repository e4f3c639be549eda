"""Batch FA/BFA across many output fibers, and the row sweeps behind them.

The distributed schedulers are embarrassingly parallel across the ``N``
output fibers: each output runs its own O(k) (FA) / O(dk) (BFA) greedy on
its own request vector.  :func:`batch_first_available` and
:func:`batch_break_first_available` run one such scheduler per row of an
``(M, k)`` request matrix.  They validate and normalize their inputs
(:func:`prepare_inputs`) and hand the arrays to a sweep:

* the **scalar** sweeps (:func:`fa_scalar`, :func:`bfa_scalar`) — plain
  list loops, line-for-line ports of
  :func:`~repro.core.first_available.first_available_fast` and
  :func:`~repro.core.break_first_available.bfa_fast`, with no NumPy
  dispatch inside the loop;
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


def _bfa_row(c: list, a: list, e: int, f: int, row: list) -> None:
    """One row of Break-and-First-Available (bfa_fast's exact greedy).

    ``c`` (request counts) is consumed; grants land in ``row`` as
    ``row[channel] = wavelength``.
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

    entry_s: list[int] = []
    entry_w: list[int] = []
    base: list[int] = []
    for s in range(k):
        w = (pivot + s) % k
        if c[w] > 0:
            entry_s.append(s)
            entry_w.append(w)
            base.append(c[w])
    ng = len(entry_s)
    n_avail = sum(1 for b in range(k) if a[b])
    perfect = min(sum(base) + 1, n_avail)
    d = e + f + 1

    best_n = -1
    best_wl: list[int] = []
    best_ch: list[int] = []
    for t in range(-e, f + 1):
        u = (pivot + t) % k
        if not a[u]:
            continue
        # Interval decode per group (bfa_fast's three cases).
        lows = [0] * ng
        highs = [0] * ng
        wrap = k + t - f
        for gi in range(ng):
            s = entry_s[gi]
            if s == 0:
                highs[gi] = f - t - 1
            elif 1 <= s <= t + e:
                highs[gi] = s + f - t - 1
            elif s >= wrap:
                length = t - (s - k) + e
                lows[gi] = (k - 1) - length
                highs[gi] = k - 2
            else:
                lo = (entry_w[gi] - e - u - 1) % k
                lows[gi] = lo
                highs[gi] = lo + d - 1
        counts = base.copy()
        cur_wl = [pivot]
        cur_ch = [u]
        gi = 0
        for p in range(k - 1):
            channel = u + 1 + p
            if channel >= k:
                channel -= k
            if not a[channel]:
                continue
            while gi < ng and (
                counts[gi] == 0 or highs[gi] < lows[gi] or highs[gi] < p
            ):
                gi += 1
            if gi < ng and lows[gi] <= p:
                counts[gi] -= 1
                cur_wl.append(entry_w[gi])
                cur_ch.append(channel)
        n = len(cur_wl)
        if n > best_n:  # first-best tie-break over the d breaks
            best_n = n
            best_wl = cur_wl
            best_ch = cur_ch
            if best_n >= perfect:
                break
    for i in range(best_n):
        row[best_ch[i]] = best_wl[i]


def bfa_scalar(req: np.ndarray, avail: np.ndarray, e: int, f: int) -> np.ndarray:
    """Per-row Break-and-First-Available (circular) on plain lists."""
    m_rows, k = req.shape
    rem = req.tolist()
    avail_l = avail.tolist()
    out = [[-1] * k for _ in range(m_rows)]
    for m in range(m_rows):
        _bfa_row(rem[m], avail_l[m], e, f, out[m])
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
