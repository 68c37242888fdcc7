"""Spanning forest, path products against a naive oracle, and pr tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susim.blocking import Partition, submatrix
from susim.graph import build_paths, check_pr, endpoints, vertex_key
from susim.linalg import DEFAULT_TOLERANCES, adjoint, close_scalars, identity_multiple
from susim.model import PR_NORMAL, EdgeStep
from susim.structure import ScalarMismatch, SolutionForm, Violation, check_presolution

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


def reference_check_pr(a_mats, b_mats, rows, cols, mode, scales_a, paths, tol):
    """Per-edge reference for :func:`check_pr`: conjugate each edge cell on its
    own and stop at the first failure in scan order, which is array order."""
    betas = []
    for l, i, j in np.argwhere(scales_a).tolist():
        row_end, col_end = endpoints(mode, i, j)
        prs = []
        for mats, prods, amps in ((a_mats, paths.paths_a, paths.amps_a), (b_mats, paths.paths_b, paths.amps_b)):
            cell = submatrix(mats[l], rows, i, cols, j)
            prs.append(prods[row_end] @ cell @ adjoint(prods[col_end]) / amps[col_end] ** 2)
        pr_a, pr_b = prs
        beta_a = identity_multiple(pr_a, tol)
        beta_b = None if beta_a is None else identity_multiple(pr_b, tol)
        pr_paths = paths.cell_paths(mode, i, j)
        if beta_a is None or beta_b is None:
            return Violation(PR_NORMAL, (l, i, j), paths.rep_of[row_end], pr_a, pr_b, pr_paths=pr_paths)
        if not close_scalars(beta_a, beta_b, tol):
            return ScalarMismatch("pr_beta", (l, i, j), beta_a, beta_b, pr_paths)
        betas.append(beta_a)
    return np.array(betas, dtype=np.complex128)


def random_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def sus_paths(a, b, partition, mode="sus"):
    rep = check_presolution(a, b, partition, partition, mode, TOL)
    assert isinstance(rep, SolutionForm), rep
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
        assert isinstance(out, np.ndarray)
        assert np.argwhere(rep.cell_scales_a).tolist() == [[0, 1, 0], [0, 1, 2], [0, 3, 2]]
        assert out.tolist() == [pytest.approx(1.0)] * 3

    def test_nonscalar_holonomy_is_violation(self):
        p = Partition((2, 2))
        a0 = np.zeros((4, 4), dtype=complex)
        a0[0:2, 2:4] = np.eye(2)
        a1 = np.zeros((4, 4), dtype=complex)
        a1[0:2, 2:4] = np.diag([1.0, -1.0])
        mats = [a0, a1]
        rep, paths = sus_paths(mats, [m.copy() for m in mats], p)
        out = check_pr(mats, [m.copy() for m in mats], p, p, "sus", rep.cell_scales_a, paths, TOL)
        assert isinstance(out, Violation)
        assert out.functional == PR_NORMAL
        assert out.at == (1, 0, 1)
        assert out.touch == ("row", 0)
        assert np.allclose(out.s, np.diag([1.0, -1.0]))
        assert np.allclose(out.r, out.s)
        assert out.pr_paths == paths.cell_paths("sus", 0, 1)

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
        assert isinstance(out, ScalarMismatch)
        assert out.target == "pr_beta"
        assert out.at == (1, 0, 1)
        assert out.a_value == pytest.approx(2.0 + 0j)
        assert out.b_value == pytest.approx(-2.0 + 0j)
        assert out.pr_paths == paths.cell_paths("sus", 0, 1)

    def test_pr_matrices_against_naive_oracle(self):
        # A dense one-component instance: pr of each cell must equal the
        # naive product path_row * cell * path_col^-1 with generic inverses.
        rng = np.random.default_rng(33)
        p = Partition((2, 2, 2))
        a = np.zeros((6, 6), dtype=complex)
        for (bi, bj) in [(0, 1), (1, 2), (0, 2)]:
            a[p.slice_of(bi), p.slice_of(bj)] = (0.5 + rng.random()) * random_unitary(2, rng)
        rep, paths = sus_paths([a], [a.copy()], p)
        for l, i, j in np.argwhere(rep.cell_scales_a).tolist():
            pa = paths.paths_a[("row", i)]
            pc = paths.paths_a[("row", j)]
            cell = submatrix(a, p, i, p, j)
            oracle = pa @ cell @ np.linalg.inv(pc)
            mine = pa @ cell @ (adjoint(pc) / paths.amps_a[("row", j)] ** 2)
            assert np.allclose(mine, oracle)


def gauge_instance(mode, row_sizes, col_sizes, p, plant, rng):
    """A collection that passes the form scan with scalar holonomies by
    construction (every edge cell is ``c W_i W_j*`` for per-vertex unitaries
    ``W``), and its conjugate by block-diagonal unitaries.  ``plant`` names the
    defects to plant, each at a random nonzero cell: ``"holonomy"`` multiplies
    an A cell by a unitary, ``"beta"`` a B cell by a phase."""
    rows = Partition(row_sizes)
    cols = rows if mode == "sus" else Partition(col_sizes)
    gauge_r = [random_unitary(s, rng) for s in rows.sizes]
    gauge_c = gauge_r if mode == "sus" else [random_unitary(s, rng) for s in cols.sizes]
    a_mats, cells = [], []
    for l in range(p):
        a = np.zeros((rows.total, cols.total), dtype=complex)
        for i in range(rows.count):
            for j in range(cols.count):
                if mode == "sus" and i == j:
                    a[rows.slice_of(i), cols.slice_of(j)] = rng.standard_normal() * np.eye(rows.sizes[i])
                elif rows.sizes[i] == cols.sizes[j] and rng.random() < 0.6:
                    c = (0.5 + 1.5 * rng.random()) * np.exp(2j * np.pi * rng.random())
                    a[rows.slice_of(i), cols.slice_of(j)] = c * gauge_r[i] @ adjoint(gauge_c[j])
                    cells.append((l, i, j))
        a_mats.append(a)
    v = np.zeros((rows.total, rows.total), dtype=complex)
    for i in range(rows.count):
        v[rows.slice_of(i), rows.slice_of(i)] = random_unitary(rows.sizes[i], rng)
    w = v
    if mode == "sueq":
        w = np.zeros((cols.total, cols.total), dtype=complex)
        for j in range(cols.count):
            w[cols.slice_of(j), cols.slice_of(j)] = random_unitary(cols.sizes[j], rng)
    b_mats = [v @ a @ adjoint(w) for a in a_mats]
    for defect in plant if cells else ():
        l, i, j = cells[rng.integers(len(cells))]
        rs, cs = rows.slice_of(i), cols.slice_of(j)
        if defect == "holonomy":
            a_mats[l][rs, cs] = a_mats[l][rs, cs] @ random_unitary(cols.sizes[j], rng)
        else:
            b_mats[l][rs, cs] *= np.exp(1j * (0.5 + rng.random()))
    return a_mats, b_mats, rows, cols


class TestPrCheckAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(
        mode=st.sampled_from(["sus", "sueq"]),
        row_sizes=st.lists(st.integers(1, 3), min_size=1, max_size=5),
        col_sizes=st.lists(st.integers(1, 3), min_size=1, max_size=5),
        p=st.integers(1, 3),
        plant=st.sets(st.sampled_from(["holonomy", "beta"])),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batched_matches_per_edge(self, mode, row_sizes, col_sizes, p, plant, seed):
        rng = np.random.default_rng(seed)
        a, b, rows, cols = gauge_instance(mode, tuple(row_sizes), tuple(col_sizes), p, plant, rng)
        pre = check_presolution(a, b, rows, cols, mode, TOL)
        assert isinstance(pre, SolutionForm), pre
        paths = build_paths(a, b, rows, cols, mode, pre.cell_scales_a, pre.cell_scales_b)
        got = check_pr(a, b, rows, cols, mode, pre.cell_scales_a, paths, TOL)
        want = reference_check_pr(a, b, rows, cols, mode, pre.cell_scales_a, paths, TOL)
        assert type(got) is type(want)
        if not plant:
            assert isinstance(got, np.ndarray)
        if isinstance(want, Violation):
            gv, wv = got, want
            assert (gv.functional, gv.at, gv.touch, gv.pr_paths) == (wv.functional, wv.at, wv.touch, wv.pr_paths)
            assert np.allclose(gv.s, wv.s, rtol=1e-12, atol=1e-12)
            assert np.allclose(gv.r, wv.r, rtol=1e-12, atol=1e-12)
        elif isinstance(want, ScalarMismatch):
            gm, wm = got, want
            assert (gm.target, gm.at, gm.pr_paths) == (wm.target, wm.at, wm.pr_paths)
            assert gm.a_value == pytest.approx(wm.a_value, rel=1e-12)
            assert gm.b_value == pytest.approx(wm.b_value, rel=1e-12)
        else:
            assert got.shape == want.shape == (np.count_nonzero(pre.cell_scales_a),)
            assert got.tolist() == pytest.approx(want.tolist(), rel=1e-12)
