"""Spanning forest, path products against a naive oracle, and pr tests."""

import numpy as np
import pytest

from susim.blocking import Partition, submatrix
from susim.graph import EdgeStep, build_paths, check_pr, vertex_key
from susim.linalg import DEFAULT_TOLERANCES, adjoint
from susim.structure import PR_NORMAL, check_presolution

TOL = DEFAULT_TOLERANCES


def naive_path_product(mats, rows, cols, steps):
    """Recompute a path product from edge descriptors with a generic inverse."""
    out = None
    for s in steps:
        cell = submatrix(mats[s.l], rows, s.i, cols, s.j)
        factor = np.linalg.inv(cell) if s.invert else cell
        out = factor if out is None else out @ factor
    if out is None:
        return None
    return out


def random_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def sus_paths(a, b, partition, mode="sus"):
    rep = check_presolution(a, b, partition, partition, mode, TOL)
    assert rep.status == "ok", rep
    paths = build_paths(a, b, partition, partition, mode, rep.cell_scales_a, rep.cell_scales_b)
    return rep, paths


class TestVertexKey:
    def test_rows_before_cols(self):
        assert vertex_key(("row", 3)) < vertex_key(("col", 0))
        assert vertex_key(("row", 1)) < vertex_key(("row", 2))


class TestChainPaths:
    def test_scalar_chain_matches_hand_computation(self):
        # Classes 0..3 of size 1, nonzero cells (1,0)=2, (1,2)=3, (3,2)=4.
        p = Partition((1, 1, 1, 1))
        a = np.zeros((4, 4), dtype=complex)
        a[1, 0], a[1, 2], a[3, 2] = 2.0, 3.0, 4.0
        _, paths = sus_paths([a], [a.copy()], p)
        assert paths.rep_of[("row", 3)] == ("row", 0)
        assert paths.paths_a[("row", 1)][0, 0] == pytest.approx(0.5)
        assert paths.paths_a[("row", 2)][0, 0] == pytest.approx(1.5)
        assert paths.paths_a[("row", 3)][0, 0] == pytest.approx(3.0 / 8.0)
        assert paths.amps_a[("row", 3)] == pytest.approx(3.0 / 8.0)
        assert paths.steps_to[("row", 3)] == (
            EdgeStep(0, 1, 0, invert=True),
            EdgeStep(0, 1, 2, invert=False),
            EdgeStep(0, 3, 2, invert=True),
        )

    def test_block_chain_matches_naive_oracle(self):
        rng = np.random.default_rng(21)
        p = Partition((2, 2, 2))
        a = np.zeros((6, 6), dtype=complex)
        a[0:2, 2:4] = 1.5 * random_unitary(2, rng)
        a[4:6, 2:4] = 0.5 * random_unitary(2, rng)
        _, paths = sus_paths([a], [a.copy()], p)
        for v in [("row", 1), ("row", 2)]:
            oracle = naive_path_product([a], p, p, paths.steps_to[v])
            assert np.allclose(paths.paths_a[v], oracle)

    def test_multiple_matrices_first_witness_wins(self):
        p = Partition((1, 1))
        a0 = np.zeros((2, 2), dtype=complex)
        a1 = np.zeros((2, 2), dtype=complex)
        a0[0, 1] = 2.0
        a1[1, 0] = 5.0
        _, paths = sus_paths([a0, a1], [a0.copy(), a1.copy()], p)
        # The edge {0, 1} is witnessed by the l=0 cell (0, 1), scanned first.
        assert paths.steps_to[("row", 1)] == (EdgeStep(0, 0, 1, invert=False),)
        assert paths.paths_a[("row", 1)][0, 0] == pytest.approx(2.0)


class TestComponents:
    def test_isolated_vertices_are_own_reps(self):
        p = Partition((1, 1, 1))
        a = np.diag([1.0, 2.0, 3.0]).astype(complex)
        b = a.copy()
        _, paths = sus_paths([a], [b], p)
        assert len(paths.components) == 3
        for i in range(3):
            v = ("row", i)
            assert paths.rep_of[v] == v
            assert np.allclose(paths.paths_a[v], np.eye(1))
            assert paths.steps_to[v] == ()

    def test_two_components(self):
        p = Partition((1, 1, 1, 1))
        a = np.zeros((4, 4), dtype=complex)
        a[0, 1] = 1.0
        a[2, 3] = 1.0
        _, paths = sus_paths([a], [a.copy()], p)
        comps = paths.components
        assert comps == [
            (("row", 0), ("row", 1)),
            (("row", 2), ("row", 3)),
        ]
        assert paths.rep_of[("row", 3)] == ("row", 2)


class TestEquivalenceModeGraph:
    def test_bipartite_single_edge(self):
        rows = cols = Partition.whole(2)
        a = [1.5 * np.eye(2, dtype=complex)]
        rep = check_presolution(a, a, rows, cols, "sueq", TOL)
        paths = build_paths(a, a, rows, cols, "sueq", rep.cell_scales_a, rep.cell_scales_b)
        assert paths.rep_of[("col", 0)] == ("row", 0)
        assert np.allclose(paths.paths_a[("col", 0)], 1.5 * np.eye(2))
        assert paths.amps_a[("col", 0)] == pytest.approx(1.5)

    def test_rectangular_all_zero_has_isolated_vertices(self):
        rows, cols = Partition.whole(2), Partition.whole(3)
        a = [np.zeros((2, 3), dtype=complex)]
        rep = check_presolution(a, a, rows, cols, "sueq", TOL)
        paths = build_paths(a, a, rows, cols, "sueq", rep.cell_scales_a, rep.cell_scales_b)
        assert len(paths.components) == 2
        assert paths.rep_of[("col", 0)] == ("col", 0)


class TestPrCheck:
    def test_tree_edges_give_unit_beta(self):
        p = Partition((1, 1, 1, 1))
        a = np.zeros((4, 4), dtype=complex)
        a[1, 0], a[1, 2], a[3, 2] = 2.0, 3.0, 4.0
        rep, paths = sus_paths([a], [a.copy()], p)
        out = check_pr([a], [a.copy()], p, p, "sus", rep.cell_scales_a, paths, TOL)
        assert out.status == "ok"
        assert set(out.betas) == {(0, 1, 0), (0, 1, 2), (0, 3, 2)}
        for beta in out.betas.values():
            assert beta == pytest.approx(1.0)

    def test_nonscalar_holonomy_is_violation(self):
        p = Partition((2, 2))
        a0 = np.zeros((4, 4), dtype=complex)
        a0[0:2, 2:4] = np.eye(2)
        a1 = np.zeros((4, 4), dtype=complex)
        a1[0:2, 2:4] = np.diag([1.0, -1.0])
        mats = [a0, a1]
        rep, paths = sus_paths(mats, [m.copy() for m in mats], p)
        out = check_pr(mats, [m.copy() for m in mats], p, p, "sus", rep.cell_scales_a, paths, TOL)
        assert out.status == "violation"
        assert out.violation.functional == PR_NORMAL
        assert out.violation.at == (1, 0, 1)
        assert out.violation.touch == ("row", 0)
        assert np.allclose(out.violation.s, np.diag([1.0, -1.0]))
        assert np.allclose(out.violation.r, out.violation.s)
        assert out.violation.pr_paths == paths.cell_paths("sus", 0, 1)

    def test_scalar_holonomy_disagreement_is_mismatch(self):
        p = Partition((2, 2))
        a0 = np.zeros((4, 4), dtype=complex)
        a0[0:2, 2:4] = np.eye(2)
        a1 = np.zeros((4, 4), dtype=complex)
        a1[0:2, 2:4] = 2.0 * np.eye(2)
        b1 = np.zeros((4, 4), dtype=complex)
        b1[0:2, 2:4] = -2.0 * np.eye(2)
        rep, paths = sus_paths([a0, a1], [a0.copy(), b1], p)
        out = check_pr([a0, a1], [a0.copy(), b1], p, p, "sus", rep.cell_scales_a, paths, TOL)
        assert out.status == "mismatch"
        assert out.mismatch.target == "pr_beta"
        assert out.mismatch.at == (1, 0, 1)
        assert out.mismatch.a_value == pytest.approx(2.0 + 0j)
        assert out.mismatch.b_value == pytest.approx(-2.0 + 0j)
        assert out.mismatch.pr_paths == paths.cell_paths("sus", 0, 1)

    def test_pr_matrices_against_naive_oracle(self):
        # A dense one-component instance: pr of each cell must equal the
        # naive product path_row * cell * path_col^-1 with generic inverses.
        rng = np.random.default_rng(33)
        p = Partition((2, 2, 2))
        a = np.zeros((6, 6), dtype=complex)
        for (bi, bj) in [(0, 1), (1, 2), (0, 2)]:
            a[p.slice_of(bi), p.slice_of(bj)] = (0.5 + rng.random()) * random_unitary(2, rng)
        rep, paths = sus_paths([a], [a.copy()], p)
        for (l, i, j) in rep.cell_scales_a:
            pa = paths.paths_a[("row", i)]
            pc = paths.paths_a[("row", j)]
            cell = submatrix(a, p, i, p, j)
            oracle = pa @ cell @ np.linalg.inv(pc)
            mine = pa @ cell @ (adjoint(pc) / paths.amps_a[("row", j)] ** 2)
            assert np.allclose(mine, oracle)
