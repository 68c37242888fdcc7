"""Pairs that hold one matrix on both sides are computed once.

``solve`` makes each ``B_l`` that equals ``A_l`` bit for bit into the ``A_l``
object itself, and the loop reads, tests, eigensolves and conjugates such a
shared matrix once.  Equal inputs give equal arithmetic, so every result
document must be byte-identical to the one a run without any sharing gives.
"""

import json
from collections import Counter

import numpy as np
import pytest
from test_golden import CONFIGS

from susim import refine, solver, structure
from susim.instances import GenConfig, generate, ginibre, random_unitary
from susim.linalg import DEFAULT_TOLERANCES, adjoint, as_matrix
from susim.model import NOT_SIMILAR, SOLVED, Instance
from susim.serialize import result_to_json

TOL = DEFAULT_TOLERANCES


def block_diag(*blocks):
    size = sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)
    out = np.zeros(size, dtype=np.complex128)
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def commutant(mode, seed, eps=0.0):
    """``A = [A_1, A_2]``, ``B = [copy of A_1, U A_2 V* (+ eps G)]`` with
    ``U A_1 V* = A_1``: ``A_1`` has repeated eigen- or singular values and
    ``(U, V)`` rotates inside each repeated space."""
    rng = np.random.default_rng(seed)
    if mode == "sus":
        w = random_unitary(6, rng)
        a1 = w @ np.diag([2.0, 2.0, 2.0, -1.0, -1.0, 0.5]) @ adjoint(w)
        rotation = block_diag(random_unitary(3, rng), random_unitary(2, rng), random_unitary(1, rng))
        u = v = w @ rotation @ adjoint(w)
        shape = (6, 6)
    else:
        x, y = random_unitary(5, rng), random_unitary(4, rng)
        s = np.zeros((5, 4))
        s[0, 0], s[1, 1], s[2, 2] = 2.0, 2.0, 1.0
        a1 = x @ s @ adjoint(y)
        r2, ph = random_unitary(2, rng), random_unitary(1, rng)
        u = x @ block_diag(r2, ph, random_unitary(2, rng)) @ adjoint(x)
        v = y @ block_diag(r2, ph, random_unitary(1, rng)) @ adjoint(y)
        shape = (5, 4)
    a2 = ginibre(*shape, rng)
    b2 = u @ a2 @ adjoint(v)
    if eps:
        bump = ginibre(*shape, rng)
        b2 = b2 + eps / np.linalg.norm(bump) * bump
    return Instance(mode, [a1, a2], [a1.copy(), b2])


def document(result):
    return json.dumps(result_to_json(result), sort_keys=True)


def unshared_document(inst):
    """The result of the loop run on two lists that share no matrix."""
    a = [as_matrix(m) for m in inst.a_mats]
    b = [as_matrix(m).copy() for m in inst.b_mats]
    return document(solver._run(inst.mode, a, b, TOL))


def assert_sharing_changes_nothing(inst):
    """``inst`` with its equal B-side matrices as copies, and with them as the
    A-side objects, solves to the document of a run that shares nothing."""
    a = [as_matrix(m) for m in inst.a_mats]
    copies = [as_matrix(m).copy() for m in inst.b_mats]
    same = [x if x.tobytes() == y.tobytes() else y for x, y in zip(a, copies)]
    want = unshared_document(inst)
    assert document(solver.solve(Instance(inst.mode, a, copies), TOL)) == want
    assert document(solver.solve(Instance(inst.mode, a, same), TOL)) == want


def variants(inst):
    """The instance, its B_1 replaced by A_1, and its A side on both sides."""
    a = list(inst.a_mats)
    yield inst
    yield Instance(inst.mode, a, [a[0].copy(), *inst.b_mats[1:]])
    yield Instance(inst.mode, a, [m.copy() for m in a])


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda cfg: cfg["kind"])
def test_shared_pairs_give_the_documents_of_an_unshared_run(cfg):
    for seed in range(20):
        inst, _ = generate(GenConfig(seed=seed, **cfg))
        for variant in variants(inst):
            assert_sharing_changes_nothing(variant)


def test_benchmark_size_pairwise_traps():
    for seed in range(5):
        inst, _ = generate(GenConfig(kind="pairwise", n=12, seed=seed))
        assert_sharing_changes_nothing(inst)


@pytest.mark.parametrize("mode", ["sus", "sueq"])
def test_commutant_families(mode):
    statuses = Counter()
    for seed in range(10):
        for eps in (0.0, 1e-2):
            inst = commutant(mode, seed, eps)
            assert_sharing_changes_nothing(inst)
            statuses[eps, solver.solve(inst, TOL).status] += 1
    assert statuses == {(0.0, SOLVED): 10, (1e-2, NOT_SIMILAR): 10}


@pytest.fixture
def entry(monkeypatch):
    """The lists ``solve`` hands to the loop."""
    seen = []
    run = solver._run

    def spy(mode, a_mats, b_mats, tol):
        seen.append((a_mats, b_mats))
        return run(mode, a_mats, b_mats, tol)

    monkeypatch.setattr(solver, "_run", spy)
    return seen


def test_sharing_is_decided_per_matrix_and_bit_for_bit(entry):
    a = [np.diag([1.0, 0.0, 2.0]), np.diag([3.0, 1.0, 1.0])]
    negative_zero = np.diag([1.0, -0.0, 2.0])
    assert negative_zero.tobytes() != a[0].tobytes() and np.array_equal(negative_zero, a[0])
    solver.solve_sus(a, [negative_zero, a[1].copy()])
    solver.solve_sus(a, [a[0].copy(), np.diag([1.0, 3.0, 1.0])])
    solver.solve_sus(a, [m.copy() for m in a])
    (a1, b1), (a2, b2), (a3, b3) = entry
    assert b1 is not a1 and b1[0] is not a1[0] and b1[1] is a1[1]
    assert b2 is not a2 and b2[0] is a2[0] and b2[1] is not a2[1]
    assert b3 is not a3 and all(y is x for x, y in zip(a3, b3))


def test_shared_matrices_are_computed_once(monkeypatch):
    """Counted on solves whose B side holds copies of some A-side matrices:
    a scan reads a shared matrix's cells once, a scan violation on a shared
    matrix is eigensolved once, and a refinement that diagonalizes both
    sides alike keeps every shared matrix shared."""
    calls = Counter()

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in ("eig_hermitian", "eig_normal", "submatrix"):
        count(refine if name.startswith("eig") else structure, name)

    def eigs():
        return calls["eig_hermitian"] + calls["eig_normal"]

    seen = Counter()
    scan, refinement = solver.check_presolution, solver.apply_refinement

    def counted_scan(a_mats, b_mats, rows, cols, mode, tol):
        before = calls["submatrix"]
        pre = scan(a_mats, b_mats, rows, cols, mode, tol)
        # Cells scanned in order (matrix, row class, column class): all of
        # them when the scan passes, else up to the first deviation.
        per_matrix = rows.count * cols.count
        read = len(a_mats) * per_matrix
        if not isinstance(pre, structure.SolutionForm):
            l, i, j = pre.at
            read = (l * rows.count + i) * cols.count + j + 1
        shared = [b_mats[k // per_matrix] is a_mats[k // per_matrix] for k in range(read)]
        assert calls["submatrix"] - before == sum(1 if s else 2 for s in shared)
        seen["shared reads"] += any(shared)
        return pre

    def counted_refinement(a_mats, b_mats, rows, cols, mode, violation, tol):
        before = eigs()
        out = refinement(a_mats, b_mats, rows, cols, mode, violation, tol)
        shared = [l for l, (a, b) in enumerate(zip(a_mats, b_mats)) if b is a]
        if violation.functional != structure.PR_NORMAL and violation.at[0] in shared:
            assert violation.r is violation.s and eigs() - before == 1
            seen["shared violations"] += 1
        if out.status == "refined" and out.z is out.y:
            assert all(out.b_mats[l] is out.a_mats[l] for l in shared)
            seen["sharing kept"] += bool(shared)
        return out

    monkeypatch.setattr(solver, "check_presolution", counted_scan)
    monkeypatch.setattr(solver, "apply_refinement", counted_refinement)
    instances = [commutant(mode, seed) for mode in ("sus", "sueq") for seed in range(5)]
    instances += [generate(GenConfig(kind="pairwise", n=6, seed=seed))[0] for seed in range(5)]
    for inst in instances:
        b = [m.copy() for m in inst.b_mats]
        solver.solve(Instance(inst.mode, inst.a_mats, b), TOL)
    assert seen["shared reads"] and seen["shared violations"] and seen["sharing kept"]


def test_all_shared_b_side_is_computed_once(monkeypatch):
    """A B side of copies of every A-side matrix is, matrix by matrix, the
    A side: each refinement eigensolves once and the final path products
    are the A side's, as in a collection paired with itself."""
    calls = Counter()
    for name in ("eig_hermitian", "eig_normal"):
        real = getattr(refine, name)

        def counted(*args, _real=real, **kwargs):
            calls["eig"] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(refine, name, counted)
    ends = []
    refinements = solver._refinements

    def spy(mode, a_mats, b_mats, tol):
        ends.append((yield from refinements(mode, a_mats, b_mats, tol)))
        return ends[-1]

    monkeypatch.setattr(solver, "_refinements", spy)
    for cfg in CONFIGS:
        inst, _ = generate(GenConfig(seed=0, **cfg))
        mats = list(inst.a_mats)
        calls.clear()
        result = solver.solve(Instance(inst.mode, mats, [m.copy() for m in mats]), TOL)
        assert result.status == SOLVED
        assert calls["eig"] == result.iterations - 1 > 0
        assert ends[-1].paths.paths_b is ends[-1].paths.paths_a
