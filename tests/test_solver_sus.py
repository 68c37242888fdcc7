"""End-to-end similarity decisions: witnesses, certificates, iteration bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susim.errors import DimensionMismatch
from susim.linalg import DEFAULT_TOLERANCES, adjoint
from susim.model import FAILED, NOT_SIMILAR, SOLVED
from susim.solver import solve_sueq, solve_sus, witness_residual

TOL = DEFAULT_TOLERANCES


def random_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def planted_pair(n, p, rng, structured=False):
    if structured and n >= 4:
        half = n // 2
        mats = []
        for _ in range(p):
            m = np.zeros((n, n), dtype=complex)
            m[:half, :half] = (1.0 + rng.random()) * np.eye(half)
            m[half:, half:] = (2.0 + rng.random()) * np.eye(n - half)
            m[:half, half : 2 * half] = (0.5 + rng.random()) * random_unitary(half, rng)
            mats.append(m)
        q = random_unitary(n, rng)
        mats = [q @ m @ adjoint(q) for m in mats]
    else:
        mats = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(p)]
    u = random_unitary(n, rng)
    return mats, [u @ m @ adjoint(u) for m in mats], u


class TestSolvedInstances:
    def test_identical_collections(self):
        rng = np.random.default_rng(1)
        a = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(2)]
        res = solve_sus(a, [m.copy() for m in a])
        assert res.status == SOLVED
        assert res.residual <= TOL.verify

    def test_planted_dense(self):
        rng = np.random.default_rng(2)
        a, b, _ = planted_pair(6, 3, rng)
        res = solve_sus(a, b)
        assert res.status == SOLVED
        assert witness_residual(a, b, "sus", res.u) <= TOL.verify
        assert res.iterations <= 6

    def test_planted_structured(self):
        rng = np.random.default_rng(3)
        a, b, _ = planted_pair(6, 2, rng, structured=True)
        res = solve_sus(a, b)
        assert res.status == SOLVED
        assert witness_residual(a, b, "sus", res.u) <= TOL.verify

    def test_permuted_diagonal(self):
        res = solve_sus([np.diag([1.0, 2.0])], [np.diag([2.0, 1.0])])
        assert res.status == SOLVED
        assert res.residual <= 1e-12

    def test_skew_rotation_pair(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
        rng = np.random.default_rng(4)
        u = random_unitary(2, rng)
        res = solve_sus([a], [u @ a @ adjoint(u)])
        assert res.status == SOLVED

    def test_zero_collection(self):
        res = solve_sus([np.zeros((3, 3))], [np.zeros((3, 3))])
        assert res.status == SOLVED
        assert res.residual == 0.0

    def test_scalar_case(self):
        res = solve_sus([np.array([[2.0 + 1.0j]])], [np.array([[2.0 + 1.0j]])])
        assert res.status == SOLVED
        assert res.iterations == 1

    def test_witness_is_unitary(self):
        rng = np.random.default_rng(5)
        a, b, _ = planted_pair(5, 2, rng)
        res = solve_sus(a, b)
        assert np.allclose(res.u @ adjoint(res.u), np.eye(5), atol=1e-8)


class TestScalarCertificates:
    def test_distinct_scalars(self):
        res = solve_sus([np.array([[2.0]])], [np.array([[3.0]])])
        assert res.status == NOT_SIMILAR
        cert = res.certificate
        assert cert.kind == "scalar"
        assert cert.target == "diag_alpha"
        assert cert.at == (0, 0, 0)
        assert cert.a_value == pytest.approx(2.0 + 0j)
        assert cert.b_value == pytest.approx(3.0 + 0j)
        assert cert.steps == ()

    def test_scaled_identity_collections(self):
        res = solve_sus([2.0 * np.eye(3)], [2.0000001 * np.eye(3)])
        assert res.status == NOT_SIMILAR
        assert res.certificate.target == "diag_alpha"

    def test_holonomy_scalar_disagreement(self):
        # Classes {0,1} and {2,3} joined by three parallel cells; the third
        # cell has holonomy +1 on the A side and -1 on the B side.
        a1 = np.diag([2.0, 2.0, 1.0, 1.0]).astype(complex)
        a2 = np.zeros((4, 4), dtype=complex)
        a2[0:2, 2:4] = 2.0 * np.eye(2)
        a3 = np.zeros((4, 4), dtype=complex)
        a3[0:2, 2:4] = 2.0 * np.eye(2)
        b3 = np.zeros((4, 4), dtype=complex)
        b3[0:2, 2:4] = -2.0 * np.eye(2)
        res = solve_sus([a1, a2, a3], [a1.copy(), a2.copy(), b3])
        assert res.status == NOT_SIMILAR
        cert = res.certificate
        assert cert.kind == "scalar"
        assert cert.target == "pr_beta"
        assert cert.at == (2, 0, 1)
        assert cert.a_value == pytest.approx(1.0 + 0j)
        assert cert.b_value == pytest.approx(-1.0 + 0j)
        assert cert.pr_paths is not None
        steps_row, steps_col = cert.pr_paths
        assert steps_row == ()
        assert len(steps_col) == 1


class TestEigenvalueCertificates:
    def test_diagonal_spectra_differ(self):
        res = solve_sus([np.diag([1.0, 2.0])], [np.diag([1.0, 3.0])])
        assert res.status == NOT_SIMILAR
        cert = res.certificate
        assert cert.kind == "eigenvalue"
        assert cert.target == "herm_real"
        assert cert.groups_a == ((pytest.approx(2.0 + 0j), 1), (pytest.approx(1.0 + 0j), 1))
        assert cert.groups_b == ((pytest.approx(3.0 + 0j), 1), (pytest.approx(1.0 + 0j), 1))

    def test_multiplicities_differ(self):
        res = solve_sus([np.diag([2.0, 2.0, 1.0])], [np.diag([2.0, 1.0, 1.0])])
        assert res.status == NOT_SIMILAR
        assert res.certificate.kind == "eigenvalue"
        assert [m for _, m in res.certificate.groups_a] == [2, 1]
        assert [m for _, m in res.certificate.groups_b] == [1, 2]

    def test_skew_spectra_differ(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
        b = np.array([[0.0, 2.0], [-2.0, 0.0]], dtype=complex)
        res = solve_sus([a], [b])
        assert res.status == NOT_SIMILAR
        assert res.certificate.target in ("herm_imag", "gram_left")

    def test_perturbed_planted_pair(self):
        rng = np.random.default_rng(6)
        a, b, _ = planted_pair(5, 2, rng)
        e = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        b[0] = b[0] + 0.01 * e / np.linalg.norm(e)
        res = solve_sus(a, b)
        assert res.status == NOT_SIMILAR
        assert res.certificate is not None

    def test_holonomy_spectra_differ(self):
        # The third parallel cell has non-scalar holonomy on the A side and
        # scalar holonomy on the B side.
        a1 = np.diag([2.0, 2.0, 1.0, 1.0]).astype(complex)
        a2 = np.zeros((4, 4), dtype=complex)
        a2[0:2, 2:4] = 2.0 * np.eye(2)
        a3 = np.zeros((4, 4), dtype=complex)
        a3[0:2, 2:4] = np.diag([1.0, -1.0])
        b3 = np.zeros((4, 4), dtype=complex)
        b3[0:2, 2:4] = np.eye(2)
        res = solve_sus([a1, a2, a3], [a1.copy(), a2.copy(), b3])
        assert res.status == NOT_SIMILAR
        cert = res.certificate
        assert cert.kind == "eigenvalue"
        assert cert.target == "pr_normal"
        assert cert.at == (2, 0, 1)
        assert cert.pr_paths is not None
        assert [m for _, m in cert.groups_a] == [1, 1]
        assert [m for _, m in cert.groups_b] == [2]


class TestHolonomyRefinement:
    def test_nonscalar_holonomy_still_solvable(self):
        # Same-side holonomies match, so the pr step refines and the run
        # ends in a solution.
        a1 = np.diag([2.0, 2.0, 1.0, 1.0]).astype(complex)
        a2 = np.zeros((4, 4), dtype=complex)
        a2[0:2, 2:4] = 2.0 * np.eye(2)
        a3 = np.zeros((4, 4), dtype=complex)
        a3[0:2, 2:4] = np.diag([1.0, -1.0])
        mats = [a1, a2, a3]
        rng = np.random.default_rng(7)
        u = random_unitary(4, rng)
        b = [u @ m @ adjoint(u) for m in mats]
        res = solve_sus(mats, b)
        assert res.status == SOLVED
        assert witness_residual(mats, b, "sus", res.u) <= TOL.verify
        assert res.iterations <= 4


@pytest.mark.parametrize(
    "solve, shape", [(solve_sus, (0, 0)), (solve_sueq, (2, 0)), (solve_sueq, (0, 3))]
)
def test_zero_size_matrix_is_a_dimension_mismatch(solve, shape):
    with pytest.raises(DimensionMismatch, match="hold no entry"):
        solve([np.zeros(shape)], [np.zeros(shape)])


class TestFailureHonesty:
    def test_tolerance_boundary_reports_failed(self):
        a = np.diag([1.0, 1.0 + 1e-8]).astype(complex)
        res = solve_sus([a], [a.copy()])
        assert res.status == FAILED
        assert "tolerance" in res.message


class TestOneSidedEdge:
    @pytest.mark.parametrize("eps", [1e-8, 3e-8, 1e-7, 1e-6])
    @pytest.mark.parametrize("swap", [False, True])
    def test_tiny_cell_against_zero_solved_either_way(self, eps, swap):
        # The off-diagonal cell is nonzero on one side only and below the
        # scale comparison's context: the verdict must not depend on which
        # side is A, and no path product may divide by a zero scale.
        a = np.array([[1.0, eps], [0.0, 2.0]], dtype=complex)
        b = np.diag([1.0, 2.0]).astype(complex)
        if swap:
            a, b = b, a
        res = solve_sus([a], [b])
        assert res.status == SOLVED
        assert witness_residual([a], [b], "sus", res.u) <= TOL.verify


class TestIterationBound:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.booleans(),
    )
    def test_planted_instances_solved_within_bound(self, n, p, seed, structured):
        rng = np.random.default_rng(seed)
        a, b, _ = planted_pair(n, p, rng, structured=structured)
        res = solve_sus(a, b)
        assert res.status == SOLVED
        assert res.iterations <= n
        assert witness_residual(a, b, "sus", res.u) <= TOL.verify

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2, max_value=7),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_perturbed_instances_rejected_within_bound(self, n, seed):
        rng = np.random.default_rng(seed)
        a, b, _ = planted_pair(n, 2, rng)
        e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b[1] = b[1] + 0.05 * e / np.linalg.norm(e)
        res = solve_sus(a, b)
        assert res.status in (NOT_SIMILAR, FAILED)
        assert res.iterations <= n
