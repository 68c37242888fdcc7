"""Form scanning: pass data, violation selection, scalar mismatches."""

import numpy as np
import pytest

from susim.blocking import Partition
from susim.linalg import DEFAULT_TOLERANCES
from susim.structure import (
    GRAM_LEFT,
    GRAM_RIGHT,
    HERM_IMAG,
    HERM_REAL,
    ScalarMismatch,
    SolutionForm,
    Violation,
    check_presolution,
)

TOL = DEFAULT_TOLERANCES


def cplx(rows):
    return np.array(rows, dtype=complex)


def run_sus(a_mats, b_mats, partition):
    return check_presolution(a_mats, b_mats, partition, partition, "sus", TOL)


class TestDiagonalCells:
    def test_matching_scalar_passes(self):
        rep = run_sus([2.0 * np.eye(3)], [2.0 * np.eye(3)], Partition.whole(3))
        assert isinstance(rep, SolutionForm)
        assert rep.diag_alphas == {(0, 0): pytest.approx(2.0 + 0j)}

    def test_scalar_mismatch_certified(self):
        rep = run_sus([2.0 * np.eye(2)], [3.0 * np.eye(2)], Partition.whole(2))
        assert isinstance(rep, ScalarMismatch)
        assert rep.target == "diag_alpha"
        assert rep.at == (0, 0, 0)
        assert rep.a_value == pytest.approx(2.0 + 0j)
        assert rep.b_value == pytest.approx(3.0 + 0j)

    def test_nonscalar_diagonal_picks_real_part(self):
        a = np.diag([1.0, 2.0]).astype(complex)
        rep = run_sus([a], [a.copy()], Partition.whole(2))
        assert isinstance(rep, Violation)
        assert rep.functional == HERM_REAL
        assert rep.at == (0, 0, 0)
        assert rep.touch == ("row", 0)

    def test_skew_diagonal_picks_imag_part(self):
        a = cplx([[0.0, 1.0], [-1.0, 0.0]])
        rep = run_sus([a], [a.copy()], Partition.whole(2))
        assert isinstance(rep, Violation)
        assert rep.functional == HERM_IMAG

    def test_b_side_examined_after_a(self):
        a = np.diag([1.0, 2.0]).astype(complex)
        b = cplx([[0.0, 1.0], [-1.0, 0.0]])
        rep = run_sus([a], [b], Partition.whole(2))
        assert rep.functional == HERM_REAL

    def test_b_side_violation_when_a_passes(self):
        a = 2.0 * np.eye(2)
        b = cplx([[2.0, 0.0], [0.0, 5.0]])
        rep = run_sus([a], [b], Partition.whole(2))
        assert isinstance(rep, Violation)
        assert rep.functional == HERM_REAL

    def test_size_one_diagonal_scalars_compared(self):
        p = Partition((1, 1))
        rep = run_sus([np.diag([1.0, 2.0])], [np.diag([2.0, 1.0])], p)
        assert isinstance(rep, ScalarMismatch)
        assert rep.at == (0, 0, 0)


class TestSquareOffDiagonalCells:
    def test_unitary_multiple_scale_recorded(self):
        p = Partition((1, 1))
        a = cplx([[1.0, 3.0], [0.0, 1.0]])
        rep = run_sus([a], [a.copy()], p)
        assert isinstance(rep, SolutionForm)
        assert rep.cell_scales_a == {(0, 0, 1): pytest.approx(9.0)}
        assert rep.cell_scales_b == {(0, 0, 1): pytest.approx(9.0)}

    def test_zero_cells_not_recorded(self):
        p = Partition((1, 1))
        rep = run_sus([np.eye(2)], [np.eye(2)], p)
        assert isinstance(rep, SolutionForm)
        assert rep.cell_scales_a == {}

    def test_cell_zero_on_one_side_not_recorded(self):
        # Both scales pass as equal within the context, but a zero scale on
        # either side cannot carry a path product, so neither is an edge.
        p = Partition((1, 1))
        a = cplx([[1.0, 1e-8], [0.0, 2.0]])
        b = cplx([[1.0, 0.0], [0.0, 2.0]])
        for x, y in ((a, b), (b, a)):
            rep = run_sus([x], [y], p)
            assert isinstance(rep, SolutionForm)
            assert rep.cell_scales_a == rep.cell_scales_b == {}

    def test_scale_mismatch_becomes_gram_violation(self):
        p = Partition((1, 1))
        a = cplx([[1.0, 2.0], [0.0, 1.0]])
        b = cplx([[1.0, 3.0], [0.0, 1.0]])
        rep = run_sus([a], [b], p)
        assert isinstance(rep, Violation)
        assert rep.functional == GRAM_LEFT
        assert rep.at == (0, 0, 1)
        assert rep.touch == ("row", 0)

    def test_non_unitary_square_cell(self):
        p = Partition((2, 2))
        a = np.zeros((4, 4), dtype=complex)
        a[:2, :2] = np.eye(2)
        a[2:, 2:] = np.eye(2)
        a[0:2, 2:4] = np.diag([1.0, 2.0])
        rep = run_sus([a], [a.copy()], p)
        assert isinstance(rep, Violation)
        assert rep.functional == GRAM_LEFT
        assert rep.at == (0, 0, 1)

    def test_zero_versus_nonzero_cell(self):
        p = Partition((1, 1))
        a = np.eye(2, dtype=complex)
        b = cplx([[1.0, 1.0], [0.0, 1.0]])
        rep = run_sus([a], [b], p)
        assert isinstance(rep, Violation)
        assert rep.functional == GRAM_LEFT
        assert rep.at == (0, 0, 1)


class TestNonSquareCells:
    def test_zero_required_and_passes(self):
        p = Partition((1, 2))
        a = np.diag([1.0, 2.0, 2.0]).astype(complex)
        b = a.copy()
        rep = check_presolution([a], [b], p, p, "sus", TOL)
        assert isinstance(rep, (Violation, SolutionForm))
        # diagonal cell (1,1) is 2x2 scalar, (0,0) is 1x1; off-diagonal
        # non-square cells are zero, so this instance is in form.
        assert isinstance(rep, SolutionForm)

    def test_wide_nonzero_cell_touches_column(self):
        p = Partition((1, 2))
        a = np.zeros((3, 3), dtype=complex)
        a[0, 0] = 1.0
        a[1, 1] = a[2, 2] = 1.0
        a[0, 1] = 2.0
        rep = run_sus([a], [a.copy()], p)
        assert isinstance(rep, Violation)
        assert rep.functional == GRAM_RIGHT
        assert rep.at == (0, 0, 1)
        assert rep.touch == ("col", 1)

    def test_tall_rank_deficient_cell_touches_row(self):
        p = Partition((2, 1))
        a = np.zeros((3, 3), dtype=complex)
        a[0, 0] = a[1, 1] = 1.0
        a[2, 2] = 1.0
        a[0, 2] = 1.0
        rep = run_sus([a], [a.copy()], p)
        assert isinstance(rep, Violation)
        assert rep.functional == GRAM_LEFT
        assert rep.touch == ("row", 0)

    def test_b_side_nonzero_detected(self):
        p = Partition((1, 2))
        a = np.diag([1.0, 1.0, 1.0]).astype(complex)
        b = a.copy()
        b[0, 2] = 0.5
        rep = run_sus([a], [b], p)
        assert isinstance(rep, Violation)
        assert rep.at == (0, 0, 1)


class TestEquivalenceMode:
    def test_no_diagonal_rule(self):
        rows = cols = Partition.whole(2)
        a = cplx([[1.0, 3.0], [-3.0, 1.0]])
        rep = check_presolution([a], [a.copy()], rows, cols, "sueq", TOL)
        assert isinstance(rep, SolutionForm)
        assert rep.cell_scales_a == {(0, 0, 0): pytest.approx(10.0)}
        assert rep.diag_alphas == {}

    def test_rectangular_instance(self):
        rows, cols = Partition.whole(2), Partition.whole(3)
        a = np.zeros((2, 3), dtype=complex)
        rep = check_presolution([a], [a.copy()], rows, cols, "sueq", TOL)
        assert isinstance(rep, SolutionForm)

    def test_diagonal_like_cell_needs_unitary_multiple(self):
        rows = cols = Partition.whole(2)
        a = np.diag([1.0, 2.0]).astype(complex)
        rep = check_presolution([a], [a.copy()], rows, cols, "sueq", TOL)
        assert isinstance(rep, Violation)
        assert rep.functional == GRAM_LEFT
        assert rep.touch == ("row", 0)


class TestScanOrder:
    def test_matrix_index_is_outermost(self):
        p = Partition((1, 1))
        a0 = cplx([[1.0, 2.0], [0.0, 1.0]])
        b0 = cplx([[1.0, 3.0], [0.0, 1.0]])
        a1 = np.diag([1.0, 2.0])
        b1 = np.diag([5.0, 2.0])
        rep = run_sus([a0, a1], [b0, b1], p)
        assert isinstance(rep, Violation)
        assert rep.at[0] == 0

    def test_row_major_within_matrix(self):
        p = Partition((1, 1))
        a = cplx([[1.0, 2.0], [4.0, 1.0]])
        b = cplx([[1.0, 3.0], [5.0, 1.0]])
        rep = run_sus([a], [b], p)
        assert rep.at == (0, 0, 1)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            check_presolution([], [], Partition.whole(1), Partition.whole(1), "other", TOL)
