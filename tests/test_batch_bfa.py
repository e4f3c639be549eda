"""Tests for the batch Break-and-First-Available scheduler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.break_first_available import bfa_fast
from repro.core.kernels import batch_break_first_available
from repro.errors import InvalidParameterError
from repro.graphs.conversion import CircularConversion


def _expected_row(req_row, avail_row, e, f):
    grants, _ = bfa_fast(req_row.tolist(), avail_row.tolist(), e, f)
    k = len(req_row)
    expected = [-1] * k
    for g in grants:
        expected[g.channel] = g.wavelength
    return expected


class TestValidation:
    def test_requires_2d(self):
        with pytest.raises(InvalidParameterError):
            batch_break_first_available(np.zeros(4), None, 1, 1)

    def test_negative_counts(self):
        with pytest.raises(InvalidParameterError):
            batch_break_first_available(np.array([[-1, 0, 0]]), None, 1, 1)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidParameterError):
            batch_break_first_available(
                np.zeros((2, 4), dtype=int), np.ones((2, 3), dtype=bool), 1, 1
            )

    def test_degree_bound(self):
        with pytest.raises(InvalidParameterError):
            batch_break_first_available(np.zeros((1, 2), dtype=int), None, 1, 1)
        with pytest.raises(InvalidParameterError):
            batch_break_first_available(np.zeros((1, 4), dtype=int), None, -1, 0)

    def test_rejects_non_integer_counts(self):
        with pytest.raises(InvalidParameterError, match="integers"):
            batch_break_first_available(np.array([[0.5, 1, 0, 0]]), None, 1, 1)
        with pytest.raises(InvalidParameterError, match="integers"):
            batch_break_first_available(np.array([[np.inf, 1, 0, 0]]), None, 1, 1)


class TestSemantics:
    def test_empty(self):
        assign = batch_break_first_available(
            np.zeros((3, 5), dtype=int), None, 1, 1
        )
        assert (assign == -1).all()

    def test_zero_rows_keep_k_columns(self):
        assign = batch_break_first_available(
            np.zeros((0, 5), dtype=int), None, 1, 1
        )
        assert assign.shape == (0, 5)

    def test_paper_example_row(self):
        req = np.array([[2, 1, 0, 1, 1, 2]])
        assign = batch_break_first_available(req, None, 1, 1)
        assert (assign[0] >= 0).sum() == 6  # Fig. 4: all channels used

    def test_intro_example_row(self):
        req = np.array([[0, 2, 3, 0, 1, 0]])
        assign = batch_break_first_available(req, None, 1, 1)
        assert (assign[0] >= 0).sum() == 5  # Section I: one dropped

    def test_k_one(self):
        assign = batch_break_first_available(np.array([[3]]), None, 0, 0)
        assert assign[0, 0] == 0

    def test_all_occupied_row(self):
        req = np.array([[1, 1, 1]])
        avail = np.zeros((1, 3), dtype=bool)
        assign = batch_break_first_available(req, avail, 1, 1)
        assert (assign == -1).all()

    def test_rows_independent(self):
        req = np.array([[1, 0, 0, 0], [0, 0, 1, 0]])
        assign = batch_break_first_available(req, None, 0, 0)
        assert assign[0].tolist() == [0, -1, -1, -1]
        assert assign[1].tolist() == [-1, -1, 2, -1]

    def test_grants_feasible(self):
        rng = np.random.default_rng(3)
        req = rng.integers(0, 3, size=(8, 10))
        avail = rng.random((8, 10)) > 0.3
        assign = batch_break_first_available(req, avail, 1, 2)
        scheme = CircularConversion(10, 1, 2)
        for m in range(8):
            used = {}
            for b in range(10):
                w = assign[m, b]
                if w < 0:
                    continue
                assert avail[m, b]
                assert scheme.can_convert(int(w), b)
                used[b] = w
            # per-wavelength grant counts within request counts
            for w in range(10):
                granted = sum(1 for v in used.values() if v == w)
                assert granted <= req[m, w]

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(1, 9),
        st.integers(0, 2),
        st.integers(0, 2),
        st.integers(0, 2**31 - 1),
    )
    def test_bit_identical_to_scalar(self, rows, k, e, f, seed):
        if e + f + 1 > k:
            return
        rng = np.random.default_rng(seed)
        req = rng.integers(0, 3, size=(rows, k))
        avail = rng.random((rows, k)) > 0.3
        assign = batch_break_first_available(req, avail, e, f)
        for m in range(rows):
            assert assign[m].tolist() == _expected_row(
                req[m], avail[m], e, f
            ), (m, req[m].tolist(), avail[m].tolist())

    def test_optimality_spotcheck(self):
        from repro.core.baseline import HopcroftKarpScheduler
        from repro.graphs.request_graph import RequestGraph

        rng = np.random.default_rng(11)
        req = rng.integers(0, 3, size=(20, 8))
        avail = rng.random((20, 8)) > 0.2
        assign = batch_break_first_available(req, avail, 1, 1)
        hk = HopcroftKarpScheduler()
        scheme = CircularConversion(8, 1, 1)
        for m in range(20):
            rg = RequestGraph(scheme, req[m].tolist(), avail[m].tolist())
            assert (assign[m] >= 0).sum() == hk.schedule(rg).n_granted
