"""End-to-end equivalence decisions for rectangular collections."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susim.errors import DimensionMismatch
from susim.linalg import DEFAULT_TOLERANCES, adjoint
from susim.model import FAILED, NOT_SIMILAR, SOLVED
from susim.solver import solve_sueq, witness_residual

TOL = DEFAULT_TOLERANCES


def random_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def planted_pair(m, n, p, rng):
    a = [rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)) for _ in range(p)]
    u, v = random_unitary(m, rng), random_unitary(n, rng)
    return a, [u @ x @ adjoint(v) for x in a], (u, v)


class TestSolvedInstances:
    @pytest.mark.parametrize("m,n,p", [(2, 3, 1), (3, 2, 2), (4, 4, 2), (5, 7, 3)])
    def test_planted_rectangular(self, m, n, p):
        rng = np.random.default_rng(10 * m + n + p)
        a, b, _ = planted_pair(m, n, p, rng)
        res = solve_sueq(a, b)
        assert res.status == SOLVED
        assert witness_residual(a, b, "sueq", res.u, res.v) <= TOL.verify
        assert res.iterations <= m + n

    def test_witnesses_have_matching_shapes(self):
        rng = np.random.default_rng(11)
        a, b, _ = planted_pair(3, 5, 2, rng)
        res = solve_sueq(a, b)
        assert res.u.shape == (3, 3)
        assert res.v.shape == (5, 5)
        assert np.allclose(res.u @ adjoint(res.u), np.eye(3), atol=1e-8)
        assert np.allclose(res.v @ adjoint(res.v), np.eye(5), atol=1e-8)

    def test_zero_rectangular(self):
        a = [np.zeros((2, 4))]
        res = solve_sueq(a, [np.zeros((2, 4))])
        assert res.status == SOLVED
        assert res.residual == 0.0

    def test_square_equivalence_ignores_eigenvalues(self):
        # diag(1, 2) and diag(2, 1) are equivalent through permutations even
        # though no similarity is involved; singular values are what counts.
        res = solve_sueq([np.diag([1.0, 2.0])], [np.diag([2.0, 1.0])])
        assert res.status == SOLVED

    def test_phase_rotation_is_equivalence(self):
        a = np.diag([1.0, 2.0]).astype(complex)
        res = solve_sueq([a], [1.0j * a])
        assert res.status == SOLVED


class TestRejectedInstances:
    def test_singular_values_differ(self):
        res = solve_sueq([np.diag([1.0, 2.0, 3.0])], [np.diag([1.0, 2.0, 4.0])])
        assert res.status == NOT_SIMILAR
        assert res.certificate.kind == "eigenvalue"

    def test_rank_differs(self):
        a = np.zeros((2, 3), dtype=complex)
        a[0, 0] = 1.0
        b = np.zeros((2, 3), dtype=complex)
        res = solve_sueq([a], [b])
        assert res.status == NOT_SIMILAR

    def test_pairwise_equivalent_but_not_simultaneously(self):
        # Each pair alone is equivalent; the coupling through A1 = I forces
        # U = V, and then the second pair needs a similarity that cannot
        # exist because the eigenvalues differ.
        a1 = np.eye(2, dtype=complex)
        a2 = np.diag([1.0, 2.0]).astype(complex)
        b2 = np.diag([1.0, -2.0]).astype(complex)
        res = solve_sueq([a1, a2], [a1.copy(), b2])
        assert res.status == NOT_SIMILAR
        cert = res.certificate
        assert cert.kind == "scalar"
        assert cert.target == "pr_beta"

    def test_perturbed_planted_pair(self):
        rng = np.random.default_rng(12)
        a, b, _ = planted_pair(3, 4, 2, rng)
        e = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        b[0] = b[0] + 0.05 * e / np.linalg.norm(e)
        res = solve_sueq(a, b)
        assert res.status in (NOT_SIMILAR, FAILED)


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_planted_always_solved_within_bound(self, m, n, p, seed):
        rng = np.random.default_rng(seed)
        a, b, _ = planted_pair(m, n, p, rng)
        res = solve_sueq(a, b)
        assert res.status == SOLVED
        assert res.iterations <= m + n
        assert witness_residual(a, b, "sueq", res.u, res.v) <= TOL.verify

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**32 - 1))
    def test_agreement_with_svd_for_single_matrix(self, n, seed):
        # For one matrix, equivalence holds exactly when the sorted singular
        # values agree.
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n + 1)) + 1j * rng.standard_normal((n, n + 1))
        if seed % 2 == 0:
            u, v = random_unitary(n, rng), random_unitary(n + 1, rng)
            b = u @ a @ adjoint(v)
            expected = SOLVED
        else:
            b = rng.standard_normal((n, n + 1)) + 1j * rng.standard_normal((n, n + 1))
            sa = np.linalg.svd(a, compute_uv=False)
            sb = np.linalg.svd(b, compute_uv=False)
            expected = SOLVED if np.allclose(sa, sb, atol=1e-9) else NOT_SIMILAR
        res = solve_sueq([a], [b])
        assert res.status == expected


@pytest.mark.parametrize(
    "mode, shapes, message",
    [
        ("sueq", ((3, 3), None), "witness v is missing, the collections need 4 x 4"),
        ("sueq", ((4, 4), (4, 4)), "witness u is of shape (4, 4), the collections need 3 x 3"),
        ("sueq", ((3, 3), (3, 3)), "witness v is of shape (3, 3), the collections need 4 x 4"),
        ("sueq", ((3,), (4, 4)), "witness u is of shape (3,), the collections need 3 x 3"),
        ("sus", ((4, 4), None), "witness u is of shape (4, 4), the collections need 3 x 3"),
        ("sus", ((3, 3, 1), None), "witness u is of shape (3, 3, 1), the collections need 3 x 3"),
    ],
)
def test_witness_of_the_wrong_shape_is_a_dimension_mismatch(mode, shapes, message):
    rng = np.random.default_rng(5)
    a, b, _ = planted_pair(3, 3 if mode == "sus" else 4, 2, rng)
    u, v = (None if s is None else np.ones(s, dtype=complex) for s in shapes)
    with pytest.raises(DimensionMismatch) as caught:
        witness_residual(a, b, mode, u, v)
    assert str(caught.value) == message
