"""Bit-identity of the scalar and vectorized FA/BFA sweeps.

The contract under test (``repro/core/kernels.py``): the scalar list
sweeps, the lock-step vectorized sweeps and the batch entry points that
pick between them by row count all produce byte-identical assign matrices,
equal to running the per-row schedulers (``first_available_fast`` /
``bfa_fast``) row by row; and the ``SCALAR_ROWS`` cutover is one constant
read at call time.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.batch import batch_first_available
from repro.core.batch_bfa import batch_break_first_available
from repro.core.break_first_available import bfa_fast
from repro.core.first_available import first_available_fast


def _inputs(rows: int, k: int, seed: int):
    rng = np.random.default_rng(seed)
    req = rng.integers(0, 3, size=(rows, k)).astype(np.int64)
    avail = rng.random((rows, k)) > 0.3
    return req, np.ascontiguousarray(avail)


def _fa_oracle(req, avail, e, f):
    """Per-row First Available on the scalar scheduler."""
    rows, k = req.shape
    out = np.full((rows, k), -1, dtype=np.int64)
    for m in range(rows):
        for g in first_available_fast(req[m].tolist(), avail[m].tolist(), e, f):
            out[m, g.channel] = g.wavelength
    return out


def _bfa_oracle(req, avail, e, f):
    """Per-row BFA on the scalar scheduler."""
    rows, k = req.shape
    out = np.full((rows, k), -1, dtype=np.int64)
    for m in range(rows):
        grants, _ = bfa_fast(req[m].tolist(), avail[m].tolist(), e, f)
        for g in grants:
            out[m, g.channel] = g.wavelength
    return out


#: batch entry point -> (scalar sweep, vectorized sweep, per-row oracle)
SWEEPS = {
    batch_first_available: (kernels.fa_scalar, kernels.fa_vectorized, _fa_oracle),
    batch_break_first_available: (
        kernels.bfa_scalar,
        kernels.bfa_vectorized,
        _bfa_oracle,
    ),
}


class TestCrossBackendIdentity:
    """Scalar sweep == vectorized sweep == batch entry point == oracle."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 6),   # rows
        st.integers(1, 8),   # k
        st.integers(0, 2),   # e
        st.integers(0, 2),   # f
        st.integers(0, 2**31 - 1),
    )
    def test_all_backends_bit_identical(self, rows, k, e, f, seed):
        if e + f + 1 > k:
            return
        req, avail = _inputs(rows, k, seed)
        for kernel, (scalar, vectorized, oracle) in SWEEPS.items():
            expected = oracle(req, avail, e, f).tolist()
            for got in (
                scalar(req, avail, e, f),
                vectorized(req, avail, e, f),
                kernel(req, avail, e, f),
            ):
                assert got.tolist() == expected, (kernel.__name__, req, avail)

    @pytest.mark.parametrize("rows", [127, 128, 129])
    @pytest.mark.parametrize(
        "kernel", [batch_first_available, batch_break_first_available]
    )
    def test_scalar_cutover_rows_bit_identical(self, rows, kernel):
        """Pin bit-identity at exactly the SCALAR_ROWS boundary.

        128 is the last matrix the batch entry points hand to the scalar
        sweep, 129 the first they vectorize; 127/128/129 must all agree
        with both sweeps and the per-row oracle byte for byte.
        """
        assert kernels.SCALAR_ROWS == 128
        req, avail = _inputs(rows, 16, seed=rows)
        scalar, vectorized, oracle = SWEEPS[kernel]
        expected = oracle(req, avail, 1, 1).tolist()
        assert kernel(req, avail, 1, 1).tolist() == expected
        assert scalar(req, avail, 1, 1).tolist() == expected
        assert vectorized(req, avail, 1, 1).tolist() == expected

    def test_scalar_rows_is_read_at_call_time(self, monkeypatch):
        """The cutover is the single module constant, not a frozen copy."""
        calls = []
        real = kernels.fa_scalar

        def spy(req, avail, e, f):
            calls.append(req.shape[0])
            return real(req, avail, e, f)

        monkeypatch.setattr(kernels, "fa_scalar", spy)
        req, avail = _inputs(8, 8, seed=1)
        monkeypatch.setattr(kernels, "SCALAR_ROWS", 8)
        batch_first_available(req, avail, 1, 1)
        assert calls == [8]  # 8 <= 8: the scalar sweep
        monkeypatch.setattr(kernels, "SCALAR_ROWS", 7)
        batch_first_available(req, avail, 1, 1)
        assert calls == [8]  # 8 > 7: vectorized, scalar sweep not called


class TestReportName:
    def test_get_backend_reports_numpy(self):
        assert kernels.get_backend().name == "numpy"
