"""Batch Break-and-First-Available across many output fibers.

Companion to :mod:`repro.core.batch` for *circular* conversion.  The key
observation enabling the vectorized sweep: in the Lemma-2 shifted
frame (wavelength offsets ``s = (w - pivot) mod k``, channel positions
``p = (b - u - 1) mod k``), the reduced adjacency of the paper's
three-case analysis collapses to a single closed form that depends only on
``s`` and the break offset ``t`` — *not* on the row's pivot wavelength::

    s = 0:   [0, f - t - 1]
    s >= 1:  [max(0, s - t - e - 1),  min(s - t + f - 1, k - 2)]

(the prefix case ``1 <= s <= t + e`` and the suffix case ``s >= k + t - f``
are the clamped ends of the same line; both endpoints are non-decreasing in
``s``, which is exactly the Lemma-2 monotonicity).  Every row can therefore
share one interval table per ``t``, and the First Available sweep fuses
across rows just like :func:`~repro.core.batch.batch_first_available`.

Like its companion, this module is the validating public entry point; the
scalar and vectorized sweeps live in :mod:`repro.core.kernels`, picked by
row count.  Results are bit-identical to running
:func:`~repro.core.break_first_available.bfa_fast` per row (tested),
including pivot selection and the first-best tie-break over the ``d``
break offsets, on both sweeps.
"""

from __future__ import annotations

import numpy as np

from repro.core import kernels
from repro.core.batch import prepare_inputs

__all__ = ["batch_break_first_available"]


def batch_break_first_available(
    request_matrix: np.ndarray,
    available: np.ndarray | None,
    e: int,
    f: int,
    *,
    check: bool = True,
) -> np.ndarray:
    """Break-and-First-Available over ``M`` output fibers at once (circular).

    Parameters and return value mirror
    :func:`~repro.core.batch.batch_first_available`:
    ``assign[m, b]`` is the wavelength granted channel ``b`` of output ``m``
    or ``-1``.  ``O(d k)`` work per row.  ``check=False`` skips input
    validation for pre-validated inner-loop callers.
    """
    req, avail = prepare_inputs(request_matrix, available, e, f, check)
    if req.shape[0] <= kernels.SCALAR_ROWS:
        return kernels.bfa_scalar(req, avail, int(e), int(f))
    return kernels.bfa_vectorized(req, avail, int(e), int(f))
