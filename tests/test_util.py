"""Tests for validation helpers, RNG utilities and table rendering."""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.util.rng import make_rng, spawn_rngs
from repro.util.tables import format_table
from repro.util.validation import (
    check_index,
    check_nonnegative_int,
    check_positive_int,
    check_probability,
)


class TestValidation:
    def test_positive_int_accepts(self):
        assert check_positive_int(3, "x") == 3
        assert check_positive_int(np.int64(5), "x") == 5

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "3", None, True])
    def test_positive_int_rejects(self, bad):
        with pytest.raises(InvalidParameterError):
            check_positive_int(bad, "x")

    def test_nonnegative_int(self):
        assert check_nonnegative_int(0, "x") == 0
        with pytest.raises(InvalidParameterError):
            check_nonnegative_int(-1, "x")

    def test_check_index(self):
        assert check_index(0, 5, "i") == 0
        assert check_index(4, 5, "i") == 4
        with pytest.raises(InvalidParameterError):
            check_index(5, 5, "i")
        with pytest.raises(InvalidParameterError):
            check_index(-1, 5, "i")

    def test_check_probability(self):
        assert check_probability(0.5, "p") == 0.5
        assert check_probability(0, "p") == 0.0
        assert check_probability(1, "p") == 1.0
        with pytest.raises(InvalidParameterError):
            check_probability(1.1, "p")
        with pytest.raises(InvalidParameterError):
            check_probability(-0.1, "p")
        with pytest.raises(InvalidParameterError):
            check_probability(True, "p")

    def test_error_message_names_parameter(self):
        with pytest.raises(InvalidParameterError, match="wavelengths"):
            check_positive_int(-2, "wavelengths")


class TestIntegerFastPath:
    """Exact ints return early; every other input takes the full checks
    and behaves exactly as before the fast path."""

    CHECKS = [
        lambda v: check_positive_int(v, "x"),
        lambda v: check_nonnegative_int(v, "x"),
        lambda v: check_index(v, 5, "x"),
    ]

    @pytest.mark.parametrize("check", CHECKS)
    def test_bool_is_not_an_integer(self, check):
        for flag in (True, False):
            with pytest.raises(InvalidParameterError, match="an integer"):
                check(flag)

    @pytest.mark.parametrize("check", CHECKS)
    def test_numpy_integers_are_accepted_as_int(self, check):
        out = check(np.int64(3))
        assert out == 3 and type(out) is int

    @pytest.mark.parametrize("check", CHECKS)
    def test_floats_are_rejected_even_when_whole(self, check):
        with pytest.raises(InvalidParameterError, match="an integer"):
            check(3.0)

    def test_exact_int_is_returned_unchanged(self):
        assert check_index(3, 5, "x") == 3
        assert check_nonnegative_int(0, "x") == 0

    def test_out_of_range_messages(self):
        with pytest.raises(InvalidParameterError, match=r">= 1, got 0"):
            check_positive_int(0, "x")
        with pytest.raises(InvalidParameterError, match=r">= 0, got -1"):
            check_nonnegative_int(-1, "x")
        with pytest.raises(
            InvalidParameterError, match=r"x must be in \[0, 5\), got 5"
        ):
            check_index(5, 5, "x")
        with pytest.raises(
            InvalidParameterError, match=r"x must be in \[0, 5\), got -1"
        ):
            check_index(np.int64(-1), 5, "x")


class TestRng:
    def test_make_rng_from_seed_reproducible(self):
        a = make_rng(7).random(4)
        b = make_rng(7).random(4)
        assert np.allclose(a, b)

    def test_make_rng_passthrough(self):
        gen = np.random.default_rng(0)
        assert make_rng(gen) is gen

    def test_spawn_rngs_independent_and_reproducible(self):
        fam1 = spawn_rngs(11, 3)
        fam2 = spawn_rngs(11, 3)
        for g1, g2 in zip(fam1, fam2):
            assert np.allclose(g1.random(4), g2.random(4))
        # Streams differ from each other.
        fam3 = spawn_rngs(11, 2)
        assert not np.allclose(fam3[0].random(8), fam3[1].random(8))

    def test_spawn_rngs_rejects_bad_count(self):
        with pytest.raises(InvalidParameterError):
            spawn_rngs(1, 0)


class TestFormatTable:
    def test_alignment_and_title(self):
        out = format_table(["a", "bb"], [[1, 2.5], [30, 4.0]], title="T")
        lines = out.split("\n")
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        # All rows share the same width.
        assert len({len(line) for line in lines[1:]}) == 1

    def test_bool_rendering(self):
        out = format_table(["ok"], [[True], [False]])
        assert "yes" in out and "no" in out

    def test_float_format(self):
        out = format_table(["x"], [[0.123456]], float_fmt=".2f")
        assert "0.12" in out

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError, match="row 0"):
            format_table(["a", "b"], [[1]])

    def test_empty_rows(self):
        out = format_table(["a"], [])
        assert "a" in out
