"""Kernel predicates and eigendecompositions against closed-form oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susim.errors import DimensionMismatch, NotHermitian, NotMultipleOfUnitary
from susim.linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    adjoint,
    as_matrix,
    canonical_sort,
    close_scalars,
    eig_hermitian,
    eig_normal,
    fro,
    groups_match,
    identity_multiple,
    is_zero,
    order_and_group,
    unitary_multiple,
)

TOL = DEFAULT_TOLERANCES


def hermitian_2x2_eigenvalues(a: float, b: complex, c: float) -> tuple[float, float]:
    """Closed-form spectrum of [[a, b], [conj(b), c]], descending."""
    mid = (a + c) / 2.0
    rad = np.sqrt(((a - c) / 2.0) ** 2 + abs(b) ** 2)
    return mid + rad, mid - rad


def random_unitary_qr(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


class TestTolerances:
    def test_defaults_are_ordered(self):
        assert 0 < TOL.cmp <= TOL.group <= TOL.verify < 1

    @pytest.mark.parametrize(
        "kw",
        [
            dict(cmp=0.0),
            dict(cmp=1e-6, group=1e-9),
            dict(group=1e-3, verify=1e-6),
            dict(verify=1.5),
        ],
    )
    def test_invalid_orderings_rejected(self, kw):
        with pytest.raises(ValueError):
            Tolerances(**kw)


class TestCoercionsAndBasics:
    def test_as_matrix_rejects_vectors(self):
        with pytest.raises(DimensionMismatch):
            as_matrix([1.0, 2.0])

    def test_as_matrix_rejects_nan(self):
        with pytest.raises(ValueError):
            as_matrix([[np.nan, 0.0], [0.0, 1.0]])

    def test_adjoint_is_conjugate_transpose(self):
        m = as_matrix([[1 + 2j, 3], [0, 4 - 1j]])
        assert np.array_equal(adjoint(m), m.conj().T)

    def test_fro_matches_definition(self):
        m = as_matrix([[3.0, 0.0], [0.0, 4.0]])
        assert fro(m) == pytest.approx(5.0)


class TestPredicates:
    def test_zero_matrix_is_zero(self):
        assert is_zero(np.zeros((3, 4)), TOL)

    def test_tiny_noise_below_context_is_zero(self):
        m = np.full((2, 2), 1e-12, dtype=complex)
        assert is_zero(m, TOL, context_scale=10.0)
        assert not is_zero(np.full((2, 2), 1e-6, dtype=complex), TOL, context_scale=10.0)

    def test_identity_multiple_exact(self):
        alpha = identity_multiple((2.5 - 1.0j) * np.eye(4), TOL)
        assert alpha == pytest.approx(2.5 - 1.0j)

    def test_identity_multiple_rejects_distinct_diagonal(self):
        assert identity_multiple(np.diag([1.0, 1.0 + 1e-3]), TOL) is None

    def test_identity_multiple_epsilon_stability(self):
        m = 2.0 * np.eye(3) + 1e-12 * np.ones((3, 3))
        assert identity_multiple(m, TOL) == pytest.approx(2.0, abs=1e-9)

    def test_unitary_multiple_of_scaled_unitary(self):
        rng = np.random.default_rng(7)
        q = random_unitary_qr(4, rng)
        r = unitary_multiple(3.0 * q, TOL)
        assert r == pytest.approx(9.0)

    def test_unitary_multiple_zero_block(self):
        assert unitary_multiple(np.zeros((3, 3)), TOL) == 0.0

    def test_unitary_multiple_rejects_unequal_singular_values(self):
        assert unitary_multiple(np.diag([1.0, 2.0]), TOL) is None

    def test_close_scalars_relative(self):
        assert close_scalars(1e6, 1e6 * (1 + 1e-10), TOL)
        assert not close_scalars(1.0, 1.0 + 1e-6, TOL)
        assert close_scalars(0.0, 1e-12, TOL, context=1.0)


class TestOrderingAndGrouping:
    def test_reals_descending(self):
        vals = [1.0, 3.0, 2.0]
        assert np.allclose(canonical_sort(vals, 1e-7), [3.0, 2.0, 1.0])

    def test_ties_broken_by_imag_descending(self):
        vals = [1.0 - 1.0j, 2.0, 1.0 + 1.0j]
        assert np.allclose(canonical_sort(vals, 1e-7), [2.0, 1.0 + 1.0j, 1.0 - 1.0j])

    def test_near_ties_cluster_before_imag_sort(self):
        # Real parts chain within threshold, so the imaginary sort sees one
        # cluster even though the extreme reals differ by more than the gap.
        thr = 1e-3
        vals = [1.0 + 0j, 1.0006 + 1.0j, 1.0012 - 1.0j]
        got = canonical_sort(vals, thr)
        assert np.allclose(got, [1.0006 + 1.0j, 1.0 + 0j, 1.0012 - 1.0j])

    def test_grouping_multiplicities(self):
        _, sig = order_and_group([2.0, 1.0, 2.0 + 1e-9, 1.0 - 1e-9], 1e-7)
        assert [m for _, m in sig] == [2, 2]
        assert sig[0][0] == pytest.approx(2.0)
        assert sig[1][0] == pytest.approx(1.0)

    def test_perm_indexes_input(self):
        vals = np.array([1.0, 5.0, 3.0], dtype=complex)
        perm, groups = order_and_group(vals, 1e-7)
        assert np.allclose(vals[perm], [5.0, 3.0, 1.0])
        assert [m for _, m in groups] == [1, 1, 1]

    def test_empty_input(self):
        perm, groups = order_and_group([], 1e-7)
        assert perm.size == 0 and groups == ()

    def test_canonical_sort_idempotent(self):
        rng = np.random.default_rng(11)
        vals = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        once = canonical_sort(vals, 1e-7)
        twice = canonical_sort(once, 1e-7)
        assert np.allclose(once, twice)

    def test_groups_match_positional(self):
        ga = ((2.0 + 0j, 2), (1.0 + 0j, 1))
        gb = ((2.0 + 1e-9j, 2), (1.0 + 0j, 1))
        assert groups_match(ga, gb, TOL)
        assert not groups_match(ga, ((2.0 + 0j, 1), (1.0 + 0j, 2)), TOL)
        assert not groups_match(ga, ((3.0 + 0j, 2), (1.0 + 0j, 1)), TOL)
        assert not groups_match(ga, ga[:1], TOL)


class TestHermitianEigen:
    def test_identity(self):
        d = eig_hermitian(np.eye(2, dtype=complex), TOL)
        assert np.allclose(d.eigenvalues, [1.0, 1.0])
        assert d.groups == ((pytest.approx(1.0 + 0j), 2),)
        assert np.allclose(d.diagonalizer @ adjoint(d.diagonalizer), np.eye(2))

    def test_diagonal_reordered_descending(self):
        d = eig_hermitian(np.diag([-1.0, 3.0]).astype(complex), TOL)
        assert np.allclose(d.eigenvalues, [3.0, -1.0])
        recon = adjoint(d.diagonalizer) @ np.diag(d.eigenvalues) @ d.diagonalizer
        assert np.allclose(recon, np.diag([-1.0, 3.0]))

    def test_off_diagonal_against_closed_form(self):
        h = as_matrix([[0.0, 1.0], [1.0, 0.0]])
        lo_hi = hermitian_2x2_eigenvalues(0.0, 1.0, 0.0)
        d = eig_hermitian(h, TOL)
        assert np.allclose(d.eigenvalues, lo_hi)

    @pytest.mark.parametrize(
        "a,b,c",
        [(2.0, 1.0 + 1.0j, -1.0), (0.5, 0.25j, 0.5), (-3.0, 2.0, 4.0)],
    )
    def test_generic_2x2_against_closed_form(self, a, b, c):
        h = as_matrix([[a, b], [np.conj(b), c]])
        d = eig_hermitian(h, TOL)
        assert np.allclose(d.eigenvalues, hermitian_2x2_eigenvalues(a, b, c))
        assert np.allclose(d.diagonalizer @ h @ adjoint(d.diagonalizer), np.diag(d.eigenvalues))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            eig_hermitian(as_matrix([[0.0, 1.0], [0.0, 0.0]]), TOL)

    def test_row_convention(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h = (z + adjoint(z)) / 2.0
        d = eig_hermitian(h, TOL)
        assert np.allclose(d.diagonalizer @ h @ adjoint(d.diagonalizer), np.diag(d.eigenvalues))


class TestNormalEigen:
    def test_scaled_identity(self):
        d = eig_normal((2.0 + 0j) * np.eye(3), TOL)
        assert np.allclose(d.eigenvalues, [2.0, 2.0, 2.0])
        assert d.groups[0][1] == 3

    def test_rotation_has_imaginary_pair(self):
        # [[0, 1], [-1, 0]] is unitary with spectrum {i, -i}.
        d = eig_normal(as_matrix([[0.0, 1.0], [-1.0, 0.0]]), TOL)
        assert np.allclose(d.eigenvalues, [1.0j, -1.0j])
        m = as_matrix([[0.0, 1.0], [-1.0, 0.0]])
        assert np.allclose(d.diagonalizer @ m @ adjoint(d.diagonalizer), np.diag(d.eigenvalues))

    def test_conjugated_unitary_diagonal(self):
        rng = np.random.default_rng(5)
        q = random_unitary_qr(4, rng)
        lam = np.array([1.0, 1.0j, -1.0, -1.0j])
        n = q @ np.diag(lam) @ adjoint(q)
        d = eig_normal(n, TOL)
        assert np.allclose(canonical_sort(lam, TOL.group), d.eigenvalues)
        assert np.allclose(d.diagonalizer @ n @ adjoint(d.diagonalizer), np.diag(d.eigenvalues))

    def test_repeated_real_part_split_by_imag(self):
        # Eigenvalues 3+4j and 3-4j share a real part; the second Hermitian
        # pass must separate them.
        rng = np.random.default_rng(9)
        q = random_unitary_qr(2, rng)
        lam = np.array([3.0 + 4.0j, 3.0 - 4.0j])
        n = q @ np.diag(lam) @ adjoint(q)
        d = eig_normal(n, TOL)
        assert np.allclose(d.eigenvalues, [3.0 + 4.0j, 3.0 - 4.0j])
        assert [m for _, m in d.groups] == [1, 1]

    def test_rejects_non_normal(self):
        with pytest.raises(NotMultipleOfUnitary):
            eig_normal(as_matrix([[1.0, 1.0], [0.0, 1.0]]), TOL)

    def test_rejects_normal_but_not_unitary_multiple(self):
        # diag(1, 2) is normal yet not a multiple of a unitary; the kernel
        # only promises the unitary-multiple case and must refuse the rest.
        with pytest.raises(NotMultipleOfUnitary):
            eig_normal(np.diag([1.0, 2.0]).astype(complex), TOL)


@st.composite
def hermitian_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (z + adjoint(z)) / 2.0


@st.composite
def scaled_unitaries(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    scale = draw(st.floats(min_value=0.1, max_value=10.0))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return scale * (q * (d / np.abs(d)))


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(hermitian_matrices())
    def test_hermitian_diagonalizer_unitary_and_reconstructs(self, h):
        d = eig_hermitian(h, TOL)
        n = h.shape[0]
        assert fro(d.diagonalizer @ adjoint(d.diagonalizer) - np.eye(n)) <= 1e-9 * n
        recon = adjoint(d.diagonalizer) @ np.diag(d.eigenvalues) @ d.diagonalizer
        assert fro(recon - h) <= 1e-7 * (1.0 + fro(h))

    @settings(max_examples=60, deadline=None)
    @given(scaled_unitaries())
    def test_normal_diagonalizer_unitary_and_reconstructs(self, m):
        d = eig_normal(m, TOL)
        n = m.shape[0]
        assert fro(d.diagonalizer @ adjoint(d.diagonalizer) - np.eye(n)) <= 1e-9 * n
        recon = adjoint(d.diagonalizer) @ np.diag(d.eigenvalues) @ d.diagonalizer
        assert fro(recon - m) <= 1e-7 * (1.0 + fro(m))

    @settings(max_examples=60, deadline=None)
    @given(scaled_unitaries())
    def test_unitary_multiple_detects_scale(self, m):
        r = unitary_multiple(m, TOL)
        assert r is not None
        sv = np.linalg.svd(m, compute_uv=False)
        assert r == pytest.approx(sv[0] ** 2, rel=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=8))
    def test_group_multiplicities_sum_to_length(self, seed, n):
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        perm, groups = order_and_group(vals, 1e-7)
        assert sorted(perm.tolist()) == list(range(n))
        assert sum(m for _, m in groups) == n


def order_and_group_loop(values, threshold):
    """Reference: the per-cluster loop that ``order_and_group`` replaced."""
    vals = np.asarray(values, dtype=np.complex128)
    if len(vals) == 0:
        return np.empty(0, dtype=int), ()
    idx = np.argsort(-vals.real, kind="stable")
    perm: list[int] = []
    groups: list[tuple[complex, int]] = []
    k = 0
    while k < len(idx):
        j = k
        while j + 1 < len(idx) and vals[idx[j]].real - vals[idx[j + 1]].real <= threshold:
            j += 1
        cluster = idx[k : j + 1]
        cluster = cluster[np.argsort(-vals[cluster].imag, kind="stable")]
        start = 0
        cvals = vals[cluster]
        for t in range(1, len(cluster) + 1):
            if t == len(cluster) or cvals[t - 1].imag - cvals[t].imag > threshold:
                members = cvals[start:t]
                groups.append((complex(members.mean()), len(members)))
                start = t
        perm.extend(int(c) for c in cluster)
        k = j + 1
    return np.asarray(perm, dtype=int), tuple(groups)


# Coordinates on a half-threshold grid chain real clusters and imaginary
# groups, and land gaps exactly on the threshold; ±0.0 and NaN are included.
GRID = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 1.5, 2.0, 3.0, -2.5, float("nan")])
COORD = st.one_of(GRID, st.floats(min_value=-4.0, max_value=4.0))


class TestOrderAndGroupAgainstLoop:
    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(st.tuples(COORD, COORD), max_size=12),
        st.sampled_from([1.0, 0.5, 1e-7, 0.0]),
    )
    def test_same_order_and_groups_as_the_loop(self, coords, threshold):
        vals = np.array([complex(re, im) for re, im in coords], dtype=np.complex128)
        perm, groups = order_and_group(vals, threshold)
        want_perm, want_groups = order_and_group_loop(vals, threshold)
        assert perm.dtype == want_perm.dtype
        assert perm.tolist() == want_perm.tolist()
        assert [m for _, m in groups] == [m for _, m in want_groups]
        got = np.array([v for v, _ in groups], dtype=np.complex128)
        want = np.array([v for v, _ in want_groups], dtype=np.complex128)
        assert np.allclose(got, want, rtol=0.0, atol=1e-12, equal_nan=True)
        assert all(type(v) is complex and type(m) is int for v, m in groups)

    @pytest.mark.parametrize(
        "vals",
        [
            [],
            [2.0],
            [0.0, -0.0, 0.0j, -0.0 - 0.0j],
            [1.0, 2.0, 3.0, 4.0, 10.0],  # one chain longer than the threshold
            [1.0 + 3.0j, 1.0 + 2.0j, 1.0, 1.0 - 5.0j],  # imaginary groups in one cluster
            [1.0, float("nan"), 1.0, complex(1.0, float("nan"))],
        ],
    )
    def test_edge_cases(self, vals):
        perm, groups = order_and_group(vals, 1.0)
        want_perm, want_groups = order_and_group_loop(vals, 1.0)
        assert perm.tolist() == want_perm.tolist()
        assert [m for _, m in groups] == [m for _, m in want_groups]
