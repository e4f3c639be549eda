"""Tests for the batch First Available scheduler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.first_available import first_available_fast
from repro.core.kernels import batch_first_available
from repro.errors import InvalidParameterError


class TestValidation:
    def test_requires_2d(self):
        with pytest.raises(InvalidParameterError):
            batch_first_available(np.zeros(4), None, 1, 1)

    def test_rejects_negative_counts(self):
        with pytest.raises(InvalidParameterError):
            batch_first_available(np.array([[-1, 0]]), None, 0, 0)

    def test_availability_shape(self):
        with pytest.raises(InvalidParameterError):
            batch_first_available(
                np.zeros((2, 4), dtype=int), np.ones((3, 4), dtype=bool), 1, 1
            )

    def test_degree_bound(self):
        with pytest.raises(InvalidParameterError):
            batch_first_available(np.zeros((1, 2), dtype=int), None, 1, 1)
        with pytest.raises(InvalidParameterError):
            batch_first_available(np.zeros((1, 4), dtype=int), None, -1, 0)

    def test_rejects_non_integer_counts(self):
        with pytest.raises(InvalidParameterError, match="integers"):
            batch_first_available(np.array([[0.5, 1, 0, 0]]), None, 1, 1)
        with pytest.raises(InvalidParameterError, match="integers"):
            batch_first_available(np.array([[np.nan, 1, 0, 0]]), None, 1, 1)

    def test_whole_float_counts_accepted(self):
        counts = [[2, 0, 1, 1]]
        assert (
            batch_first_available(np.array(counts, dtype=float), None, 1, 1).tolist()
            == batch_first_available(np.array(counts), None, 1, 1).tolist()
        )


class TestSemantics:
    def test_empty_matrix(self):
        assign = batch_first_available(np.zeros((3, 4), dtype=int), None, 1, 1)
        assert (assign == -1).all()

    def test_zero_rows_keep_k_columns(self):
        assign = batch_first_available(np.zeros((0, 4), dtype=int), None, 1, 1)
        assert assign.shape == (0, 4)
        assign = batch_first_available(
            np.zeros((0, 4), dtype=int), None, 1, 1, check=False
        )
        assert assign.shape == (0, 4)

    def test_single_row_matches_scalar(self):
        vec = [2, 0, 1, 1]
        assign = batch_first_available(np.array([vec]), None, 1, 1)
        scalar = first_available_fast(vec, [True] * 4, 1, 1)
        expected = [-1] * 4
        for g in scalar:
            expected[g.channel] = g.wavelength
        assert assign[0].tolist() == expected

    def test_rows_independent(self):
        req = np.array([[1, 0, 0], [0, 0, 1]])
        assign = batch_first_available(req, None, 0, 0)
        assert assign[0].tolist() == [0, -1, -1]
        assert assign[1].tolist() == [-1, -1, 2]

    def test_availability_respected(self):
        req = np.array([[1, 1, 1]])
        avail = np.array([[False, True, False]])
        assign = batch_first_available(req, avail, 1, 1)
        assert assign[0, 0] == -1 and assign[0, 2] == -1
        assert assign[0, 1] >= 0

    def test_grant_counts_bounded(self):
        rng = np.random.default_rng(0)
        req = rng.integers(0, 3, size=(10, 8))
        assign = batch_first_available(req, None, 1, 1)
        granted = (assign >= 0).sum(axis=1)
        assert (granted <= req.sum(axis=1)).all()
        assert (granted <= 8).all()

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 6),   # rows
        st.integers(1, 8),   # k
        st.integers(0, 2),   # e
        st.integers(0, 2),   # f
        st.integers(0, 2**31 - 1),
    )
    def test_identical_to_scalar_pass(self, rows, k, e, f, seed):
        if e + f + 1 > k:
            return
        rng = np.random.default_rng(seed)
        req = rng.integers(0, 3, size=(rows, k))
        avail = rng.random((rows, k)) > 0.3
        assign = batch_first_available(req, avail, e, f)
        for m in range(rows):
            scalar = first_available_fast(
                req[m].tolist(), avail[m].tolist(), e, f
            )
            expected = [-1] * k
            for g in scalar:
                expected[g.channel] = g.wavelength
            assert assign[m].tolist() == expected, (m, req[m], avail[m])
