"""Batch First Available across many output fibers.

The distributed schedulers are embarrassingly parallel across the ``N``
output fibers.  On real hardware each output has its own scheduler; in a
software simulation the same parallelism is best exploited by fusing the
per-output loop into one pass over the whole ``(M, k)`` request matrix.

This module is the stable public entry point: it validates inputs,
normalizes them to contiguous ``int64`` / ``bool`` arrays, and runs one of
the two sweeps in :mod:`repro.core.kernels` — the scalar list sweep up to
``SCALAR_ROWS`` rows, the lock-step vectorized sweep above.  Both are
bit-identical to running
:func:`~repro.core.first_available.first_available_fast` per row (tested);
the row count only picks the faster one.
"""

from __future__ import annotations

import numpy as np

from repro.core import kernels
from repro.errors import InvalidParameterError

__all__ = ["batch_first_available"]


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
        :func:`first_available_fast`).
    check:
        When False, skip input validation (shape / integer / sign / reach
        checks).  For inner-loop callers whose inputs are pre-validated —
        the fast simulator and the service tick loop; malformed input then
        produces undefined results instead of :class:`InvalidParameterError`.

    Returns
    -------
    ``(M, k)`` integer array ``assign`` where ``assign[m, b]`` is the input
    wavelength granted output channel ``b`` of output ``m``, or ``-1`` if
    the channel is unused.
    """
    req, avail = prepare_inputs(request_matrix, available, e, f, check)
    if req.shape[0] <= kernels.SCALAR_ROWS:
        return kernels.fa_scalar(req, avail, int(e), int(f))
    return kernels.fa_vectorized(req, avail, int(e), int(f))


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
