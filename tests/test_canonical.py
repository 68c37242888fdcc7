"""Canonical features: invariance under conjugation, sensitivity otherwise."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susim import canonical
from susim.canonical import compare_features, extract_features
from susim.errors import DimensionMismatch, SpecInvalid
from susim.linalg import DEFAULT_TOLERANCES, adjoint

TOL = DEFAULT_TOLERANCES


def random_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def structured_collection(rng, n=6):
    half = n // 2
    mats = []
    for scale in (1.0, 2.0):
        m = np.zeros((n, n), dtype=complex)
        m[:half, :half] = scale * np.eye(half)
        m[half:, half:] = (scale + 2.0) * np.eye(n - half)
        m[:half, half:] = scale * random_unitary(half, rng)
        mats.append(m)
    return mats


class TestExtraction:
    def test_diagonal_collection_features(self):
        f = extract_features([np.diag([3.0, 3.0, 1.0])])
        assert f.mode == "sus"
        assert f.shape == (3, 3)
        assert f.count == 1
        assert len(f.steps) == 1
        assert f.steps[0].functional == "herm_real"
        assert f.steps[0].rows_sizes == (3,)
        assert [m for _, m in f.steps[0].groups] == [2, 1]
        assert f.rows_sizes == (2, 1)
        assert dict(f.alphas) == {
            (0, 0): pytest.approx(3.0 + 0j),
            (0, 1): pytest.approx(1.0 + 0j),
        }

    def test_scalar_collection_has_no_steps(self):
        f = extract_features([2.0 * np.eye(4)])
        assert f.steps == ()
        assert f.rows_sizes == (4,)

    def test_edge_scales_and_holonomies_recorded(self):
        a1 = np.diag([2.0, 2.0, 1.0, 1.0]).astype(complex)
        a2 = np.zeros((4, 4), dtype=complex)
        a2[0:2, 2:4] = 3.0 * np.eye(2)
        f = extract_features([a1, a2])
        assert dict(f.scales)[(1, 0, 1)] == pytest.approx(9.0)
        assert dict(f.betas)[(1, 0, 1)] == pytest.approx(1.0 + 0j)
        assert f.components == (((("row", 0)), ("row", 1)),)

    def test_equivalence_mode(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        f = extract_features([a], mode="sueq")
        assert f.shape == (2, 4)
        assert f.mode == "sueq"

    def test_empty_collection_is_invalid_input(self):
        with pytest.raises(SpecInvalid):
            extract_features([])

    @pytest.mark.parametrize(
        "mats, mode, error",
        [
            ([np.diag([1.0, 2.0]), np.eye(3)], "sus", DimensionMismatch),
            ([np.ones((2, 3)), np.ones((2, 3))], "sus", DimensionMismatch),
            ([np.diag([1.0, 2.0])], "bogus", SpecInvalid),
            ([np.zeros((0, 0))], "sus", DimensionMismatch),
            ([np.zeros((2, 0))], "sueq", DimensionMismatch),
        ],
        ids=["unequal_shapes", "rectangular_sus", "unknown_mode", "empty_sus", "empty_sueq"],
    )
    def test_invalid_collection_is_refused_before_the_loop(self, mats, mode, error, monkeypatch):
        def loop(*args):
            raise AssertionError("the decision loop ran on an invalid collection")

        monkeypatch.setattr(canonical, "_refinements", loop)
        with pytest.raises(error):
            extract_features(mats, mode=mode)


class TestInvariance:
    def test_conjugated_collection_equal_features(self):
        rng = np.random.default_rng(2)
        mats = structured_collection(rng)
        q = random_unitary(6, rng)
        conj = [q @ m @ adjoint(q) for m in mats]
        fa = extract_features(mats)
        fb = extract_features(conj)
        equal, diffs = compare_features(fa, fb)
        assert equal, diffs

    def test_scaling_changes_features(self):
        rng = np.random.default_rng(3)
        mats = structured_collection(rng)
        fa = extract_features(mats)
        fb = extract_features([2.0 * m for m in mats])
        equal, diffs = compare_features(fa, fb)
        assert not equal
        assert diffs

    def test_different_multiplicity_pattern_detected(self):
        fa = extract_features([np.diag([2.0, 2.0, 1.0])])
        fb = extract_features([np.diag([2.0, 1.0, 1.0])])
        equal, diffs = compare_features(fa, fb)
        assert not equal

    def test_spectral_value_difference_detected(self):
        fa = extract_features([np.diag([2.0, 1.0])])
        fb = extract_features([np.diag([3.0, 1.0])])
        equal, diffs = compare_features(fa, fb)
        assert not equal
        assert any("group values" in d or "alphas" in d for d in diffs)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_conjugation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        mats = structured_collection(rng)
        q = random_unitary(6, rng)
        conj = [q @ m @ adjoint(q) for m in mats]
        equal, diffs = compare_features(extract_features(mats), extract_features(conj))
        assert equal, diffs

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_dense_collection_invariance(self, seed):
        rng = np.random.default_rng(seed)
        mats = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(2)]
        q = random_unitary(4, rng)
        conj = [q @ m @ adjoint(q) for m in mats]
        equal, diffs = compare_features(extract_features(mats), extract_features(conj))
        assert equal, diffs
