"""Bit-identity of the FA/BFA sweeps and the batch entry points.

The contract under test (``repro/core/kernels.py``): the scalar list
sweeps, FA's lock-step vectorized sweep and the batch entry points that
run them all produce byte-identical assign matrices, equal to running the
per-row schedulers (``first_available_fast`` / ``bfa_fast``) row by row;
FA's ``SCALAR_ROWS`` cutover is one constant read at call time; and the
per-row and batch entry points reject the same bad reach.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.break_first_available import bfa_fast
from repro.core.first_available import first_available_fast
from repro.core.kernels import batch_break_first_available, batch_first_available
from repro.errors import InvalidParameterError


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


#: batch entry point -> (the sweeps it may run, per-row oracle)
SWEEPS = {
    batch_first_available: (
        (kernels.fa_scalar, kernels.fa_vectorized),
        _fa_oracle,
    ),
    batch_break_first_available: ((kernels.bfa_scalar,), _bfa_oracle),
}


class TestCrossBackendIdentity:
    """Every sweep == batch entry point == oracle."""

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
        for kernel, (sweeps, oracle) in SWEEPS.items():
            expected = oracle(req, avail, e, f).tolist()
            for got in (
                *(sweep(req, avail, e, f) for sweep in sweeps),
                kernel(req, avail, e, f),
            ):
                assert got.tolist() == expected, (kernel.__name__, req, avail)

    @pytest.mark.parametrize("k, e, f", [(16, 1, 1), (64, 2, 1), (9, 0, 2)])
    @pytest.mark.parametrize("rows", [127, 128, 129])
    @pytest.mark.parametrize(
        "kernel", [batch_first_available, batch_break_first_available]
    )
    def test_scalar_cutover_rows_bit_identical(self, rows, kernel, k, e, f):
        """Pin bit-identity at exactly the SCALAR_ROWS boundary.

        128 is the last matrix the FA entry point hands to the scalar
        sweep, 129 the first it vectorizes; 127/128/129 must all agree
        with every sweep and the per-row oracle byte for byte, at equal
        and unequal reaches.
        """
        assert kernels.SCALAR_ROWS == 128
        req, avail = _inputs(rows, k, seed=rows)
        sweeps, oracle = SWEEPS[kernel]
        expected = oracle(req, avail, e, f).tolist()
        assert kernel(req, avail, e, f).tolist() == expected
        for sweep in sweeps:
            assert sweep(req, avail, e, f).tolist() == expected

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


def _reaches(k: int) -> list[tuple[int, int]]:
    """Reaches for one ``k``: PERF-D's, one-sided, none, and e+f+1 = k."""
    last = k - 1
    return [(1, 1), (0, 3), (3, 0), (0, 0), (last // 2, last - last // 2),
            (0, last), (last, 0)]


def _assert_bfa_rows(req, avail):
    """bfa_scalar and the batch entry point == bfa_fast, row by row, at
    every reach of ``_reaches``."""
    k = req.shape[1]
    for e, f in _reaches(k):
        expected = _bfa_oracle(req, avail, e, f).tolist()
        got = (
            kernels.bfa_scalar(req, avail, e, f).tolist(),
            batch_break_first_available(req, avail, e, f).tolist(),
        )
        for rows in got:
            for m, (row, want) in enumerate(zip(rows, expected)):
                assert row == want, (e, f, req[m].tolist(), avail[m].tolist())


class TestBreakFirstAvailableShapes:
    """The row shapes the random suite above seldom draws: whole bands
    free (every single-slot simulator row), one free channel, k past 8,
    the widest and one-sided reaches, and PERF-D's own slots."""

    @pytest.mark.parametrize("k", [16, 17, 32])
    def test_all_free_rows(self, k):
        rng = np.random.default_rng(k)
        avail = np.ones((48, k), dtype=bool)
        for high in (2, 3, 6):
            req = rng.integers(0, high, size=(48, k)).astype(np.int64)
            _assert_bfa_rows(req, avail)
            for e, f in _reaches(k):
                assert (
                    batch_break_first_available(req, None, e, f).tolist()
                    == _bfa_oracle(req, avail, e, f).tolist()
                )

    @pytest.mark.parametrize("k", [16, 17, 32])
    def test_single_free_channel_rows(self, k):
        rng = np.random.default_rng(100 + k)
        req = rng.integers(0, 3, size=(2 * k, k)).astype(np.int64)
        avail = np.zeros((2 * k, k), dtype=bool)
        avail[np.arange(2 * k), np.arange(2 * k) % k] = True
        _assert_bfa_rows(req, avail)

    @pytest.mark.parametrize("k", [16, 17, 32])
    def test_mostly_occupied_and_sparse_rows(self, k):
        rng = np.random.default_rng(200 + k)
        req = (rng.random((64, k)) < 0.3).astype(np.int64)
        req *= rng.integers(1, 4, size=(64, k))
        avail = rng.random((64, k)) > 0.8
        _assert_bfa_rows(req, avail)

    def test_perfd_slots(self):
        """200 slots of PERF-D arrivals (N=16, k=16, e=f=1, load 0.9)."""
        from repro.sim.traffic import BernoulliTraffic
        from repro.util.rng import spawn_rngs

        traffic = BernoulliTraffic(16, 16, 0.9)
        rng = spawn_rngs(0, 2)[0]
        avail = np.ones((16, 16), dtype=bool)
        for slot in range(200):
            batch = traffic.arrivals_batch(slot, rng)
            req = np.zeros((16, 16), dtype=np.int64)
            np.add.at(req, (batch.output_fiber, batch.wavelength), 1)
            expected = _bfa_oracle(req, avail, 1, 1).tolist()
            assert kernels.bfa_scalar(req, avail, 1, 1).tolist() == expected
            assert (
                batch_break_first_available(req, None, 1, 1).tolist()
                == expected
            )


class TestReachValidation:
    """The per-row schedulers reject a negative reach, as the batch entry
    points do, instead of granting outside the conversion window."""

    @pytest.mark.parametrize("e, f", [(-1, 1), (1, -1)])
    def test_negative_reach_rejected_everywhere(self, e, f):
        req, avail = [1, 0, 0, 0], [True] * 4
        per_row = (
            lambda: first_available_fast(req, avail, e, f),
            lambda: bfa_fast(req, avail, e, f),
        )
        batch = (
            lambda: batch_first_available(np.array([req]), None, e, f),
            lambda: batch_break_first_available(np.array([req]), None, e, f),
        )
        for call in (*per_row, *batch):
            with pytest.raises(InvalidParameterError):
                call()


class TestReportName:
    def test_get_backend_reports_numpy(self):
        assert kernels.get_backend().name == "numpy"
