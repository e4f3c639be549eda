"""The FA/BFA row sweeps behind the batch schedulers.

:func:`repro.core.batch.batch_first_available` and
:func:`repro.core.batch_bfa.batch_break_first_available` run one
per-output-fiber scheduler per row of an ``(M, k)`` request matrix.  Each
has two bit-identical sweeps here, and the batch entry points pick one by
row count alone:

* the **scalar** sweeps (:func:`fa_scalar`, :func:`bfa_scalar`) — plain
  list loops, line-for-line ports of
  :func:`~repro.core.first_available.first_available_fast` and
  :func:`~repro.core.break_first_available.bfa_fast`, with no NumPy
  dispatch inside the loop;
* the **vectorized** sweeps (:func:`fa_vectorized`,
  :func:`bfa_vectorized`) — all ``M`` rows advanced channel by channel in
  lock step with boolean-mask pointer updates, ``O(k)`` (FA) / ``O(dk)``
  (BFA) NumPy passes of width ``M``.

Up to :data:`SCALAR_ROWS` rows the scalar sweep wins (NumPy's per-call
dispatch costs more than the whole greedy pass on a small matrix); above
it the vectorized sweep wins and keeps winning as ``M`` grows.  See
docs/PERFORMANCE.md, "Kernels", for the measured sweep over ``M``.

Inputs are C-contiguous ``(M, k)`` ``int64`` request and ``bool``
availability matrices plus plain-int ``(e, f)``; every sweep returns the
``(M, k)`` ``int64`` assign matrix (``assign[m, b]`` is the wavelength
granted channel ``b`` of row ``m``, or ``-1``).  The bit-identity suites
(``tests/test_kernels.py``, ``tests/test_batch*.py``) hold all four sweeps
to the per-row scalar schedulers.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

__all__ = [
    "SCALAR_ROWS",
    "fa_scalar",
    "bfa_scalar",
    "fa_vectorized",
    "bfa_vectorized",
    "get_backend",
]

#: Matrices with at most this many rows run the scalar sweep, larger ones
#: the vectorized sweep.  Read at call time, so tests can override it.
SCALAR_ROWS = 128

_BACKEND = SimpleNamespace(name="numpy")


def get_backend() -> SimpleNamespace:
    """The kernel implementation's report name: ``.name`` is ``"numpy"``.

    There is one implementation; run reports (``perfbench/run.py``'s
    facts line) print this name.
    """
    return _BACKEND


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


# -- vectorized sweeps ---------------------------------------------------------


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


def _shift_gather(matrix: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Row-wise circular gather: ``out[m, j] = matrix[m, (start[m]+j) % k]``."""
    m_rows, k = matrix.shape
    idx = (start[:, None] + np.arange(k)[None, :]) % k
    return np.take_along_axis(matrix, idx, axis=1)


def _candidate_sweep(
    counts_shifted: np.ndarray,
    avail_pos: np.ndarray,
    active: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    record: np.ndarray | None,
) -> np.ndarray:
    """One break offset's First Available sweep over all rows at once.

    ``counts_shifted`` is logically consumed (its post-state is
    unspecified); returns per-row grant counts.  When ``record`` is given
    (``(M, k-1)`` int array), the granted offset ``s`` is stored per
    position for assignment reconstruction.
    """
    m_rows, k = counts_shifted.shape
    rows = np.arange(m_rows)
    ptr = np.where(active, 0, k)  # inactive rows: pointer parked at the end
    granted = np.zeros(m_rows, dtype=np.int64)
    for p in range(k - 1):
        # Advance each row's pointer past exhausted or expired groups.
        while True:
            inside = ptr < k
            safe = np.minimum(ptr, k - 1)
            need = inside & (
                (counts_shifted[rows, safe] == 0) | (hi[safe] < p)
            )
            if not need.any():
                break
            ptr[need] += 1
        safe = np.minimum(ptr, k - 1)
        grant = (
            active
            & avail_pos[:, p]
            & (ptr < k)
            & (lo[safe] <= p)
        )
        if grant.any():
            g_rows = rows[grant]
            g_s = ptr[grant]
            counts_shifted[g_rows, g_s] -= 1
            granted[g_rows] += 1
            if record is not None:
                record[g_rows, p] = g_s
    return granted


def bfa_vectorized(
    req: np.ndarray, avail: np.ndarray, e: int, f: int
) -> np.ndarray:
    """Per-row Break-and-First-Available, all rows in lock step.

    Rests on the Lemma-2 closed form for the reduced adjacency described
    in :mod:`repro.core.batch_bfa`: one interval table per break offset
    ``t`` serves every row.
    """
    m_rows, k = req.shape
    d = e + f + 1
    remaining = req.copy()
    assign = np.full((m_rows, k), -1, dtype=np.int64)
    rows = np.arange(m_rows)

    # -- pivot selection (vectorized mirror of bfa_fast) --------------------
    # window_any[m, w]: some channel of λw's circular window is free.
    window_any = np.zeros((m_rows, k), dtype=bool)
    for t in range(-e, f + 1):
        window_any |= np.roll(avail, -t, axis=1)
    eligible = (remaining > 0) & window_any
    has_pivot = eligible.any(axis=1)
    pivot = np.where(has_pivot, eligible.argmax(axis=1), 0)
    # Wavelengths before the pivot carrying requests are unmatchable
    # (their whole window is occupied): zero them, as the scalar code does.
    before = np.arange(k)[None, :] < pivot[:, None]
    remaining[before & has_pivot[:, None]] = 0
    remaining[rows[has_pivot], pivot[has_pivot]] -= 1

    # Shared shifted views (independent of t).
    counts_shifted0 = _shift_gather(remaining, pivot)

    # -- try the d breaks, recording each candidate's grants ----------------
    s_axis = np.arange(k)
    best_size = np.full(m_rows, -1, dtype=np.int64)
    best_t = np.full(m_rows, -e - 1, dtype=np.int64)
    records: dict[int, np.ndarray | None] = {}
    for t in range(-e, f + 1):
        u = (pivot + t) % k
        active = has_pivot & avail[rows, u]
        if not active.any():
            continue
        lo = np.maximum(0, s_axis - t - e - 1)
        hi = np.minimum(s_axis - t + f - 1, k - 2)
        hi[0] = f - t - 1  # pivot's same-wavelength siblings
        lo[0] = 0
        avail_pos = _shift_gather(avail, (u + 1) % k)[:, : k - 1]
        counts = counts_shifted0.copy()
        record = np.full((m_rows, k - 1), -1, dtype=np.int64) if k > 1 else None
        granted = _candidate_sweep(counts, avail_pos, active, lo, hi, record)
        records[t] = record
        size = np.where(active, granted + 1, -1)  # +1: the breaking edge
        improved = active & (size > best_size)
        best_size[improved] = size[improved]
        best_t[improved] = t

    # -- commit each row's winning break -------------------------------------
    for t, record in records.items():
        winners = has_pivot & (best_t == t)
        if not winners.any():
            continue
        u = (pivot + t) % k
        w_rows = rows[winners]
        assign[w_rows, u[winners]] = pivot[winners]  # the breaking edge
        if record is not None:
            got = record[winners]  # (W, k-1) of granted offsets s or -1
            for j, m in enumerate(w_rows):
                ps = np.nonzero(got[j] >= 0)[0]
                if ps.size:
                    channels = (u[m] + 1 + ps) % k
                    wavelengths = (pivot[m] + got[j, ps]) % k
                    assign[m, channels] = wavelengths
    return assign
