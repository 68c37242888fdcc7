"""Refinement steps: spectra comparison, conjugation, class splitting.

Each violation carries its functional pair from the form scan or the
holonomy check, so the tests let the scan find the deviation wherever it
picks the functional under test, and build the pair by hand otherwise.
"""

import numpy as np
import pytest
from test_blocking import blockdiag

from susim.blocking import Partition, submatrix
from susim.errors import NumericalFailure
from susim.graph import build_paths, check_pr
from susim.linalg import DEFAULT_TOLERANCES, adjoint, fro
from susim.model import GRAM_LEFT, GRAM_RIGHT, HERM_IMAG, HERM_REAL, PR_NORMAL
from susim.refine import apply_refinement
from susim.structure import Violation, check_presolution

TOL = DEFAULT_TOLERANCES


def random_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def dense_changes(out, rows, cols):
    """The refinement's A-side and B-side changes of basis, identity-padded
    from the touched class's diagonalizers over the partitions it refined."""
    axis, t = out.step.touch
    part = rows if axis == "row" else cols
    assert out.y.shape == out.z.shape == (part.sizes[t], part.sizes[t])
    return blockdiag(part, {t: out.y}), blockdiag(part, {t: out.z})


def scanned(a, b, rows, cols, mode="sus"):
    """The violation the form scan reports for the collections ``a``, ``b``."""
    rep = check_presolution(a, b, rows, cols, mode, TOL)
    assert isinstance(rep, Violation)
    return rep


class TestFunctionalPair:
    def test_herm_real_extracts_hermitian_part(self):
        a = np.array([[1.0, 1.0j], [1.0j, 2.0]], dtype=complex)
        b = np.array([[2.0, 1.0], [1.0, 1.0]], dtype=complex)
        v = scanned([a], [b], Partition.whole(2), Partition.whole(2))
        assert (v.functional, v.at, v.touch) == (HERM_REAL, (0, 0, 0), ("row", 0))
        assert np.allclose(v.s, (a + adjoint(a)) / 2.0)
        assert np.allclose(v.r, b)
        assert (v.ctx_a, v.ctx_b) == (pytest.approx(fro(a)), pytest.approx(fro(b)))
        assert v.pr_paths is None

    def test_herm_imag_extracts_skew_part(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
        v = scanned([a], [a.copy()], Partition.whole(2), Partition.whole(2))
        assert v.functional == HERM_IMAG
        assert np.allclose(v.s, np.array([[0.0, -1.0j], [1.0j, 0.0]]))
        assert np.allclose(v.r, v.s)

    def test_gram_sides(self):
        # A wide cell has a scalar left Gram, so the scan takes the right one.
        p = Partition((1, 2))
        a = np.zeros((3, 3), dtype=complex)
        a[0, 1] = 2.0
        b = np.zeros((3, 3), dtype=complex)
        b[0, 2] = 2.0
        v = scanned([a], [b], p, p)
        assert (v.functional, v.at, v.touch) == (GRAM_RIGHT, (0, 0, 1), ("col", 1))
        assert np.allclose(v.s, np.diag([4.0, 0.0]))
        assert np.allclose(v.r, np.diag([0.0, 4.0]))
        # Gram contexts are the squared matrix norms.
        assert (v.ctx_a, v.ctx_b) == (pytest.approx(4.0), pytest.approx(4.0))
        # A tall cell refines the row class by its left Gram.
        p = Partition((2, 1))
        a = np.zeros((3, 3), dtype=complex)
        a[0, 2] = 2.0
        v = scanned([a], [a.copy()], p, p)
        assert (v.functional, v.at, v.touch) == (GRAM_LEFT, (0, 0, 1), ("row", 0))
        assert np.allclose(v.s, np.diag([4.0, 0.0]))
        assert v.ctx_a == pytest.approx(4.0)

    def test_b_side_deviation_carries_both_sides(self):
        p = Partition((1, 2))
        a = np.eye(3, dtype=complex)
        b = np.eye(3, dtype=complex)
        b[0, 1] = 3.0
        v = scanned([a], [b], p, p)
        assert v.functional == GRAM_RIGHT
        assert np.allclose(v.s, np.zeros((2, 2)))
        assert np.allclose(v.r, np.diag([9.0, 0.0]))


class TestDiagonalRefinement:
    def test_distinct_eigenvalues_split_class(self):
        rng = np.random.default_rng(2)
        q = random_unitary(3, rng)
        d = np.diag([5.0, 5.0, 1.0]).astype(complex)
        a = [q @ d @ adjoint(q)]
        b = [d.copy()]
        whole = Partition.whole(3)
        out = apply_refinement(a, b, whole, whole, "sus", scanned(a, b, whole, whole), TOL)
        assert out.status == "refined"
        assert out.step.functional == HERM_REAL
        assert out.rows.sizes == (2, 1)
        assert out.rows is out.cols
        assert [m for _, m in out.step.groups_a] == [2, 1]
        # Both sides are now diagonal with the eigenvalues in the same order.
        assert np.allclose(out.a_mats[0], d, atol=1e-9)
        assert np.allclose(out.b_mats[0], d, atol=1e-9)
        # Conjugators actually perform the transformation that was applied.
        y, z = dense_changes(out, whole, whole)
        assert np.allclose(y @ a[0] @ adjoint(y), out.a_mats[0])
        assert np.allclose(z @ b[0] @ adjoint(z), out.b_mats[0])

    def test_spectral_mismatch_reported(self):
        a = [np.diag([2.0, 1.0]).astype(complex)]
        b = [np.diag([3.0, 1.0]).astype(complex)]
        whole = Partition.whole(2)
        out = apply_refinement(a, b, whole, whole, "sus", scanned(a, b, whole, whole), TOL)
        assert out.status == "mismatch"
        assert out.step.groups_a == ((pytest.approx(2.0 + 0j), 1), (pytest.approx(1.0 + 0j), 1))
        assert out.step.groups_b == ((pytest.approx(3.0 + 0j), 1), (pytest.approx(1.0 + 0j), 1))

    def test_multiplicity_mismatch_reported(self):
        a = [np.diag([2.0, 2.0, 1.0]).astype(complex)]
        b = [np.diag([2.0, 1.0, 1.0]).astype(complex)]
        whole = Partition.whole(3)
        out = apply_refinement(a, b, whole, whole, "sus", scanned(a, b, whole, whole), TOL)
        assert out.status == "mismatch"

    def test_collapse_raises_numerical_failure(self):
        # Eigenvalue spread sits between the comparison and grouping
        # tolerances, so the class cannot be split honestly.
        eps = 1e-8
        a = [np.diag([1.0 + eps, 1.0]).astype(complex)]
        b = [a[0].copy()]
        whole = Partition.whole(2)
        v = scanned(a, b, whole, whole)
        assert v.functional == HERM_REAL
        with pytest.raises(NumericalFailure):
            apply_refinement(a, b, whole, whole, "sus", v, TOL)

    def test_uses_the_carried_pair(self):
        # The refinement diagonalises the pair it is given and never goes
        # back to the cell: here the pair disagrees although the cells agree.
        a = [np.diag([2.0, 1.0]).astype(complex)]
        whole = Partition.whole(2)
        v = Violation(
            HERM_REAL, (0, 0, 0), ("row", 0), np.diag([2.0, 1.0]), np.diag([4.0, 1.0]), 3.0, 3.0
        )
        out = apply_refinement(a, [a[0].copy()], whole, whole, "sus", v, TOL)
        assert out.status == "mismatch"
        assert out.step.groups_b[0] == (pytest.approx(4.0 + 0j), 1)


class TestGramRefinement:
    def test_rectangular_cell_splits_column_class(self):
        p = Partition((1, 2))
        a = np.zeros((3, 3), dtype=complex)
        a[0, 0] = a[1, 1] = a[2, 2] = 1.0
        a[0, 1] = 3.0
        b = a.copy()
        v = scanned([a], [b], p, p)
        assert (v.functional, v.touch) == (GRAM_RIGHT, ("col", 1))
        out = apply_refinement([a], [b], p, p, "sus", v, TOL)
        assert out.status == "refined"
        assert out.rows.sizes == (1, 1, 1)
        # Only the touched class moves: rows and columns 1..2 of both sides.
        y, z = dense_changes(out, p, p)
        assert np.allclose(out.a_mats[0], y @ a @ adjoint(y))
        assert np.allclose(out.b_mats[0], z @ b @ adjoint(z))
        assert np.array_equal(out.a_mats[0][0, 0], a[0, 0])
        # After the split the offending cell lands in a square 1x1 cell.
        cell = submatrix(out.a_mats[0], out.rows, 0, out.cols, 1)
        assert abs(cell[0, 0]) == pytest.approx(3.0)


class TestPrRefinement:
    def _instance(self):
        p = Partition((2, 2))
        a0 = np.zeros((4, 4), dtype=complex)
        a0[0:2, 2:4] = np.eye(2)
        a1 = np.zeros((4, 4), dtype=complex)
        a1[0:2, 2:4] = np.diag([2.0, -2.0])
        return p, [a0, a1]

    def test_holonomy_splits_representative(self):
        p, mats = self._instance()
        b = [m.copy() for m in mats]
        rep = check_presolution(mats, b, p, p, "sus", TOL)
        paths = build_paths(mats, b, p, p, "sus", rep.cell_scales_a, rep.cell_scales_b)
        v = check_pr(mats, b, p, p, rep.cell_scales_a, paths, TOL)
        assert isinstance(v, Violation)
        assert (v.functional, v.at, v.touch) == (PR_NORMAL, (1, 0, 1), ("row", 0))
        # The holonomy matrix on the representative space, on both sides.
        assert np.allclose(v.s, np.diag([2.0, -2.0]))
        assert np.allclose(v.r, v.s)
        out = apply_refinement(mats, b, p, p, "sus", v, TOL)
        assert out.status == "refined"
        assert out.rows.sizes == (1, 1, 2)
        assert out.step.pr_paths == v.pr_paths
        steps_row, steps_col = out.step.pr_paths
        assert steps_row == ()
        assert len(steps_col) == 1


class TestEquivalenceRefinement:
    def test_row_touch_multiplies_one_side_only(self):
        rng = np.random.default_rng(4)
        rows, cols = Partition.whole(2), Partition.whole(3)
        a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        b = a.copy()
        v = scanned([a], [b], rows, cols, "sueq")
        assert (v.functional, v.touch) == (GRAM_LEFT, ("row", 0))
        out = apply_refinement([a], [b], rows, cols, "sueq", v, TOL)
        assert out.status == "refined"
        y, _ = dense_changes(out, rows, cols)
        assert np.allclose(out.a_mats[0], y @ a)
        assert out.cols.sizes == (3,)
        assert out.rows.count >= 2
        # The refined left Gram is diagonal in the new basis.
        g = out.a_mats[0] @ adjoint(out.a_mats[0])
        assert np.allclose(g, np.diag(np.diagonal(g)), atol=1e-9)

    def test_col_touch_multiplies_right(self):
        # Orthonormal rows make the left Gram scalar, so the scan picks the
        # right Gram and the column class.
        rng = np.random.default_rng(5)
        rows, cols = Partition.whole(2), Partition.whole(3)
        a = 2.0 * random_unitary(3, rng)[:2]
        v = scanned([a], [a.copy()], rows, cols, "sueq")
        assert (v.functional, v.touch) == (GRAM_RIGHT, ("col", 0))
        out = apply_refinement([a], [a.copy()], rows, cols, "sueq", v, TOL)
        assert out.status == "refined"
        y, _ = dense_changes(out, rows, cols)
        assert np.allclose(out.a_mats[0], a @ adjoint(y))
        assert out.rows.sizes == (2,)
        g = adjoint(out.a_mats[0]) @ out.a_mats[0]
        assert np.allclose(g, np.diag(np.diagonal(g)), atol=1e-9)


class TestSolvabilityPreservation:
    def test_refinement_commutes_with_planted_witness(self):
        # If B = W A W*, a refinement step maps the witness to Z W Y*.
        rng = np.random.default_rng(6)
        q = random_unitary(3, rng)
        d = np.diag([4.0, 4.0, -1.0]).astype(complex)
        a0 = q @ d @ adjoint(q)
        w = random_unitary(3, rng)
        b0 = w @ a0 @ adjoint(w)
        whole = Partition.whole(3)
        v = scanned([a0], [b0], whole, whole)
        assert v.functional == HERM_REAL
        out = apply_refinement([a0], [b0], whole, whole, "sus", v, TOL)
        assert out.status == "refined"
        y, z = dense_changes(out, whole, whole)
        w_new = z @ w @ adjoint(y)
        assert np.allclose(w_new @ out.a_mats[0] @ adjoint(w_new), out.b_mats[0], atol=1e-8)
        # The transported witness is block diagonal for the refined partition.
        s0 = out.rows.slice_of(0)
        s1 = out.rows.slice_of(1)
        assert np.allclose(w_new[s0, s1.start : s1.stop], 0.0, atol=1e-8)
        assert np.allclose(w_new[s1, s0.start : s0.stop], 0.0, atol=1e-8)
