"""Pairs that hold one matrix on both sides are computed once.

``solve`` makes each ``B_l`` that equals ``A_l`` bit for bit into the ``A_l``
object itself, and the loop reads, tests, eigensolves and conjugates such a
shared matrix once.  Equal inputs give equal arithmetic, so every result
document must be byte-identical to the one a run without any sharing gives.
"""

import dataclasses
import itertools
import json
import warnings
from collections import Counter

import numpy as np
import pytest
from test_golden import CONFIGS
from test_singleton_cells import assert_same_answer, bits, predicate_scan, predicates_only

from susim import blocking, linalg, model, refine, solver, structure
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
    """The result of the loop run on two lists that share no matrix, with
    every cell tested by the form predicates."""
    a = [as_matrix(m) for m in inst.a_mats]
    b = [as_matrix(m).copy() for m in inst.b_mats]
    with predicates_only():
        return document(solver._run(inst.mode, a, b, TOL))


def assert_sharing_changes_nothing(inst):
    """``inst`` with its equal B-side matrices as copies, and with them as the
    A-side objects, solves to the document of a run that shares nothing and
    tests every cell."""
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


def at_threshold(rest, direction, factor):
    """``rest + t * direction``, ``direction`` of unit norm and zero wherever
    ``rest`` is not, with ``t`` ``factor`` times the ``is_zero`` threshold
    ``cmp * (1 + ‖rest + t * direction‖)`` of the sum."""
    t = 0.0
    for _ in range(5):
        t = factor * TOL.cmp * (1.0 + linalg.fro(rest + t * direction))
    return rest + t * direction


@pytest.mark.parametrize(
    "mode, row_sizes, col_sizes, scalars, cell",
    [
        ("sus", (2, 3), (2, 3), (3.0, 5.0), np.arange(1.0, 7.0).reshape(2, 3) - 2.5j),
        ("sus", (2, 2), (2, 2), (3.0, 5.0), np.diag([1.0, 3.0])),
        ("sueq", (2, 3), (2, 1), (3.0, 0.0), np.array([[1.0], [2.0j]])),
        ("sueq", (2, 2), (2, 2), (3.0, 5.0), np.diag([1.0, 3.0])),
    ],
    ids=["sus-non_square", "sus-square", "sueq-non_square", "sueq-square"],
)
def test_cells_at_the_zero_threshold(mode, row_sizes, col_sizes, scalars, cell):
    """A matrix whose off-diagonal cell ``(0, 1)`` has a norm just below, at
    and just above the ``is_zero`` threshold, alone under fixed partitions and
    behind a diagonal matrix that makes the solver find them: a shared run,
    and a run on an unshared copy, return the answer and the document of a
    run that tests every cell.  The kernel leaves the cell to the predicate
    within its margin of the threshold and skips it below.  Then unshared
    pairs whose cells sit at different factors of their own thresholds: the
    kernel skips the cell only where both sides are below, so a cell below
    on one side only is tested and deviates as before, and it does so with
    one side's norm, and so its threshold, about five times the other's."""
    rows, cols = blocking.Partition(row_sizes), blocking.Partition(col_sizes)
    shape = (rows.total, cols.total)
    rest, guide, direction = (np.zeros(shape, dtype=np.complex128) for _ in range(3))
    for i, scalar in enumerate(scalars):
        block = (rows.slice_of(i), cols.slice_of(i))
        rest[block] = scalar * np.eye(rows.sizes[i], cols.sizes[i])
        guide[block] = (2.0 - i) * np.eye(rows.sizes[i], cols.sizes[i])
    direction[rows.slice_of(0), cols.slice_of(1)] = cell / linalg.fro(cell)
    below = 1.0 - structure._ZERO_MARGIN
    factors = (1.0 - 2.0 * structure._ZERO_MARGIN, 1.0 - 1e-12, 1.0, 1.0 + 1e-12)
    documents, answers = {}, {}
    for factor in factors:
        m = at_threshold(rest, direction, factor)
        ctx = linalg.fro(m)
        tested, _ = structure._tested_cells(m, m, rows, cols, mode, TOL, ctx, ctx)
        assert ([0, 1] not in tested) == (factor < below)
        tested, _ = structure._tested_cells(m, m.copy(), rows, cols, mode, TOL, ctx, ctx)
        assert ([0, 1] not in tested) == (factor < below)
        shared = structure.check_presolution([m], [m], rows, cols, mode, TOL)
        copied = structure.check_presolution([m], [m.copy()], rows, cols, mode, TOL)
        predicted = predicate_scan([m], [m.copy()], rows, cols, mode)
        assert_same_answer(shared, predicted)
        assert_same_answer(copied, predicted)
        scales = getattr(shared, "cell_scales_a", None)
        answers[factor] = type(shared), None if scales is None else scales.tolist()
        inst = Instance(mode, [guide, m], [guide.copy(), m.copy()])
        assert_sharing_changes_nothing(inst)
        documents[factor] = unshared_document(inst)
    # The cell is zero below the threshold and not above it, in the scan
    # and in the solve; at the threshold itself rounding decides.
    assert answers[1.0 - 1e-12] != answers[1.0 + 1e-12]
    assert documents[1.0 - 1e-12] != documents[1.0 + 1e-12]
    heavy = rest.copy()
    heavy[-1, -1] += 40.0
    assert linalg.fro(heavy) > 4.0 * linalg.fro(rest)
    pairs = ((rest, rest), (rest, heavy), (heavy, rest))
    for (a_rest, b_rest), fa, fb in itertools.product(pairs, factors, factors):
        a, b = at_threshold(a_rest, direction, fa), at_threshold(b_rest, direction, fb)
        ctx_a, ctx_b = linalg.fro(a), linalg.fro(b)
        tested, _ = structure._tested_cells(a, b, rows, cols, mode, TOL, ctx_a, ctx_b)
        assert ([0, 1] not in tested) == (max(fa, fb) < below)
        found = structure.check_presolution([a], [b], rows, cols, mode, TOL)
        assert_same_answer(found, predicate_scan([a], [b], rows, cols, mode))
        if min(fa, fb) < below and max(fa, fb) > 1.0 and row_sizes[0] != col_sizes[1]:
            # Zero on one side only: the non-square cell is the deviation.
            assert isinstance(found, structure.Violation) and found.at == (0, 0, 1)
        inst = Instance(mode, [guide, a], [guide.copy(), b])
        assert document(solver.solve(inst, TOL)) == unshared_document(inst)


@pytest.mark.parametrize("scalar", [0.0, 3.0 - 1.0j])
def test_diagonal_cells_at_the_identity_multiple_threshold(scalar):
    """A matrix whose 2x2 diagonal cell ``(0, 0)`` is ``scalar`` times the
    identity plus an off-diagonal entry at a factor of the
    ``identity_multiple`` threshold ``cmp * (1 + ‖m‖)``.  The kernel proves
    the cell only below that threshold by the margin and by its slack, which
    is zero on a zero diagonal and makes a nonzero one wait for a lower
    factor; every other cell goes to the predicate.  The same holds for the
    matrix shared and for an unshared copy, whose two sides prove the cell
    alike, with equal means.  The scan then returns the answer, and the
    diagonal scalars bit for bit, of a run that tests every cell, and the
    solve behind a guide matrix the documents of a run that shares
    nothing."""
    rows = blocking.Partition((2, 3))
    rest, guide, direction = (np.zeros((5, 5), dtype=np.complex128) for _ in range(3))
    rest[:2, :2] = scalar * np.eye(2)
    rest[2:, 2:] = 5.0 * np.eye(3)
    guide[:2, :2] = 2.0 * np.eye(2)
    guide[2:, 2:] = np.eye(3)
    direction[0, 1] = 1.0
    below = 1.0 - structure._ZERO_MARGIN
    factors = (0.5, 1.0 - 2.0 * structure._ZERO_MARGIN, 1.0 - 1e-12, 1.0, 1.0 + 1e-12)
    answers = {}
    for factor in factors:
        m = at_threshold(rest, direction, factor)
        ctx = linalg.fro(m)
        tested, _ = structure._tested_cells(m, m, rows, rows, "sus", TOL, ctx, ctx)
        proven = [0, 0] not in tested
        assert proven == proven_scalar(m[:2, :2], ctx, TOL)
        if factor >= below:
            assert not proven
        elif factor == 0.5 or scalar == 0.0:
            assert proven
        tested, _ = structure._tested_cells(m, m.copy(), rows, rows, "sus", TOL, ctx, ctx)
        assert ([0, 0] not in tested) == proven
        shared = structure.check_presolution([m], [m], rows, rows, "sus", TOL)
        copied = structure.check_presolution([m], [m.copy()], rows, rows, "sus", TOL)
        predicted = predicate_scan([m], [m.copy()], rows, rows, "sus")
        assert_same_answer(shared, predicted)
        assert_same_answer(copied, predicted)
        answers[factor] = type(shared)
        assert_sharing_changes_nothing(Instance("sus", [guide, m], [guide.copy(), m.copy()]))
    # At the threshold itself rounding decides.
    assert answers[1.0 - 1e-12] is structure.SolutionForm
    assert answers[1.0 + 1e-12] is structure.Violation


@pytest.mark.parametrize("side", ["a", "b"])
def test_an_unshared_diagonal_cell_proven_on_one_side_is_tested(side):
    """An unshared pair whose 2x2 diagonal cell ``(0, 0)`` is ``3 - 1j``
    times the identity on both sides, with, on one side, an off-diagonal
    entry at a factor of that side's ``identity_multiple`` threshold.  The
    other side proves the cell at every factor, this side only below the
    threshold by the margin and its slack, and the pair skips the cell only
    where both do; the 1x1 diagonal cell, proven on both sides with equal
    means, is always skipped.  The scan returns, bit for bit, the answer of
    the predicate scan, which tests every cell."""
    rows = blocking.Partition((2, 1, 3))
    rest, direction = np.zeros((6, 6), dtype=np.complex128), np.zeros((6, 6))
    rest[:2, :2] = (3.0 - 1.0j) * np.eye(2)
    rest[2, 2] = -2.0 + 0.5j
    rest[3:, 3:] = 5.0 * np.eye(3)
    direction[0, 1] = 1.0
    below = 1.0 - structure._ZERO_MARGIN
    answers = {}
    for factor in (0.5, 1.0 - 2.0 * structure._ZERO_MARGIN, 1.0 - 1e-12, 1.0, 1.0 + 1e-12):
        m = at_threshold(rest, direction, factor)
        a, b = (m, rest.copy()) if side == "a" else (rest, m)
        ctx_a, ctx_b = linalg.fro(a), linalg.fro(b)
        tested, _ = structure._tested_cells(a, b, rows, rows, "sus", TOL, ctx_a, ctx_b)
        proven = [proven_scalar(x[:2, :2], ctx, TOL) for x, ctx in ((a, ctx_a), (b, ctx_b))]
        assert proven[side == "a"]
        assert ([0, 0] not in tested) == all(proven)
        assert [1, 1] not in tested
        if factor >= below:
            assert [0, 0] in tested
        elif factor == 0.5:
            assert [0, 0] not in tested
        found = structure.check_presolution([a], [b], rows, rows, "sus", TOL)
        assert_same_answer(found, predicate_scan([a], [b], rows, rows, "sus"))
        answers[factor] = found
    # At the threshold itself rounding decides.
    assert isinstance(answers[1.0 - 1e-12], structure.SolutionForm)
    assert isinstance(answers[1.0 + 1e-12], structure.Violation)
    assert answers[1.0 + 1e-12].at == (0, 0, 0)


@pytest.mark.parametrize("scalar", [0.0, 3.0 - 1.0j])
@pytest.mark.parametrize("cell", [0, 1], ids=["2x2", "1x1"])
def test_unshared_diagonal_scalars_at_the_close_scalars_threshold(cell, scalar):
    """An unshared pair of block-diagonal matrices on the classes (2, 1, 3)
    whose diagonal cell ``cell`` is ``scalar`` times the identity on A, and
    the same moved by a factor of the ``close_scalars`` threshold
    ``cmp * max(|α_a|, |α_b|, ‖A‖, ‖B‖)`` on B.  Both sides prove the cell,
    and the pair skips it only where the two means agree by the margin and
    both slacks: at half the threshold, not near it.  The scan returns, bit
    for bit, the form or the ``ScalarMismatch`` of the predicate scan; on a
    zero scalar B's is exact to the last bits, so the threshold parts the
    two outcomes."""
    rows = blocking.Partition((2, 1, 3))
    a = np.zeros((6, 6), dtype=np.complex128)
    a[:2, :2] = (3.0 - 1.0j) * np.eye(2)
    a[2, 2] = -2.0 + 0.5j
    a[3:, 3:] = 5.0 * np.eye(3)
    block = rows.slice_of(cell)
    a[block, block] = scalar * np.eye(rows.sizes[cell])
    shift = (1.0 + 1.0j) / np.sqrt(2.0) * np.eye(rows.sizes[cell])
    answers = {}
    for factor in (0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12):
        b, t = a.copy(), 0.0
        for _ in range(5):
            b[block, block] = a[block, block] + t * shift
            moved = abs(scalar + t * shift[0, 0])
            t = factor * TOL.cmp * max(abs(scalar), moved, linalg.fro(a), linalg.fro(b))
        b[block, block] = a[block, block] + t * shift
        ctx_a, ctx_b = linalg.fro(a), linalg.fro(b)
        tested, _ = structure._tested_cells(a, b, rows, rows, "sus", TOL, ctx_a, ctx_b)
        assert ([cell, cell] not in tested) == (factor == 0.5)
        assert [1 - cell, 1 - cell] not in tested
        found = structure.check_presolution([a], [b], rows, rows, "sus", TOL)
        assert_same_answer(found, predicate_scan([a], [b], rows, rows, "sus"))
        answers[factor] = found
    assert isinstance(answers[0.5], structure.SolutionForm)
    if scalar == 0.0:
        assert isinstance(answers[1.0 - 1e-12], structure.SolutionForm)
        mismatch = answers[1.0 + 1e-12]
        assert isinstance(mismatch, structure.ScalarMismatch)
        assert mismatch.at == (0, cell, cell) and mismatch.a_value == 0.0


def test_negative_zero_diagonal_entries_are_read_off_as_zero():
    """A diagonal of ``-0.0`` entries, in a 1x1 and in a 2x2 class, shared,
    copied, and paired with ``+0.0``: each class's scalar is read off as
    ``+0.0`` in both parts, bit for bit what ``identity_multiple`` returns
    in the predicate scan."""
    rows = blocking.Partition((1, 2, 1))
    a = np.diag([complex(-0.0, -0.0), complex(-0.0, 0.0), complex(0.0, -0.0), 2.0])
    for b in (a, a.copy(), np.diag([0.0, 0.0, 0.0, 2.0]).astype(np.complex128)):
        found = structure.check_presolution([a], [b], rows, rows, "sus", TOL)
        assert_same_answer(found, predicate_scan([a], [b.copy()], rows, rows, "sus"))
        zero = float.hex(0.0)
        assert bits(found.diag_alphas[:, :2])[2] == [(zero, zero)] * 2


@pytest.mark.parametrize("side", ["a", "b"])
def test_an_infinite_context_on_either_side_proves_no_diagonal_cell(side):
    """An unshared pair one of whose sides holds 1e160 on its diagonal: its
    norm overflows, so that side proves no diagonal cell, not even a 1x1
    one, and the pair tests them all; the kernel raises no warning.  The
    off-diagonal cells, zero on both sides, are skipped."""
    rows = blocking.Partition((2, 1))
    big = np.diag([1e160, 1e160, 1.0]).astype(np.complex128)
    small = np.diag([3.0, 3.0, 1.0]).astype(np.complex128)
    a, b = (big, small) if side == "a" else (small, big)
    with np.errstate(over="ignore"):
        ctx_a, ctx_b = linalg.fro(a), linalg.fro(b)
        predicted = predicate_scan([a], [b], rows, rows, "sus")
        found = structure.check_presolution([a], [b], rows, rows, "sus", TOL)
    assert max(ctx_a, ctx_b) == np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tested, _ = structure._tested_cells(a, b, rows, rows, "sus", TOL, ctx_a, ctx_b)
    assert tested == [[0, 0], [1, 1]]
    assert_same_answer(found, predicted)


def test_no_diagonal_cell_is_proven_at_an_infinite_context():
    # The norm of a matrix with a 1e160 entry overflows, and so may the
    # traces of its cells: the kernel proves no diagonal cell, and warns of
    # nothing.  The same cell is proven at a finite context.
    rows = blocking.Partition((2, 1))
    for big, want in ((1e160, [[0, 0]]), (1e150, [])):
        m = np.diag([big, big, 1.0]).astype(np.complex128)
        with np.errstate(over="ignore"):
            ctx = linalg.fro(m)
        assert (ctx == np.inf) is (big == 1e160)
        tested, _ = structure._tested_cells(m, m, rows, rows, "sus", TOL, ctx, ctx)
        assert tested == want


def test_no_cell_is_skipped_as_zero_below_the_least_threshold():
    # With a threshold under about 1e-150, squares of entries near it are
    # subnormal, and the kernel's sum no longer bounds fro's rounding: no
    # cell is proven zero, nor a diagonal cell an identity multiple, which
    # at the default tolerances all of them are.
    tol = linalg.Tolerances(cmp=1e-170, group=1e-7, verify=1e-6)
    rows = blocking.Partition((2, 1, 2))
    m = np.zeros((5, 5), dtype=np.complex128)
    m[0, 3] = m[1, 4] = 1e-171
    m[0, 0] = m[1, 1] = 2.0
    m[2, 2] = 1.0
    ctx = linalg.fro(m)
    assert structure._tested_cells(m, m, rows, rows, "sus", TOL, ctx, ctx)[0] == []
    tested, _ = structure._tested_cells(m, m, rows, rows, "sus", tol, ctx, ctx)
    assert tested == [[i, j] for i in range(3) for j in range(3) if (i, j) != (1, 1)]
    tested, _ = structure._tested_cells(m, m.copy(), rows, rows, "sus", tol, ctx, ctx)
    assert tested == [[i, j] for i in range(3) for j in range(3)]
    predicted = predicate_scan([m], [m.copy()], rows, rows, "sus", tol)
    assert_same_answer(structure.check_presolution([m], [m], rows, rows, "sus", tol), predicted)
    assert_same_answer(structure.check_presolution([m], [m.copy()], rows, rows, "sus", tol), predicted)


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


def slack(cell):
    """``8 k^1.5 ε`` times the largest modulus on the diagonal of ``cell``."""
    d = np.diag(cell)
    return 8.0 * len(d) ** 1.5 * np.finfo(float).eps * np.max(np.abs(d))


def proven_scalar(cell, ctx, tol):
    """Whether one side's pass proves the diagonal cell ``cell`` an identity
    multiple: its residual to the mean of its diagonal, plus its slack, is
    below the ``is_zero`` threshold lowered by the scan's margin, which is
    finite and above the least threshold."""
    threshold = tol.cmp * (1.0 + ctx)
    if not structure._LEAST_THRESHOLD < threshold < np.inf:
        return False
    residual = linalg.fro(cell - np.mean(np.diag(cell)) * np.eye(len(cell)))
    return residual + slack(cell) < threshold * (1.0 - structure._ZERO_MARGIN)


def same_scalar(ca, cb, ctx, tol):
    """Whether the means of the diagonals of ``ca`` and ``cb``, with both
    slacks added to their distance, pass ``close_scalars`` at context
    ``ctx`` by the scan's margin, where its threshold is above the least."""
    threshold = tol.cmp * ctx
    gap = abs(np.mean(np.diag(ca)) - np.mean(np.diag(cb))) + slack(ca) + slack(cb)
    return threshold > structure._LEAST_THRESHOLD and gap < threshold * (1.0 - structure._ZERO_MARGIN)


def skipped_cells(a, b, rows, cols, mode, tol):
    """The cells of the pair ``(a, b)`` that a scan does not read one by one:
    every cell off the similarity diagonal that ``is_zero``, with the
    threshold lowered by the scan's margin, calls zero on both sides, each
    at its own norm, the 1x1 cells of a shared matrix, and the similarity
    diagonal's cells that ``proven_scalar`` proves on both sides, whose
    means an unshared pair also finds the ``same_scalar``."""
    at_margin = dataclasses.replace(tol, cmp=tol.cmp * (1.0 - structure._ZERO_MARGIN))
    sides = [(a, linalg.fro(a)), (b, linalg.fro(b))]
    skipped = set()
    for i, j in itertools.product(range(rows.count), range(cols.count)):
        cells = [(blocking.submatrix(m, rows, i, cols, j), ctx) for m, ctx in sides]
        if b is a and rows.sizes[i] == cols.sizes[j] == 1:
            skipped.add((i, j))
        elif mode == "sus" and i == j:
            (ca, ctx_a), (cb, ctx_b) = cells
            proven = all(proven_scalar(cell, ctx, tol) for cell, ctx in cells)
            if proven and (b is a or same_scalar(ca, cb, max(ctx_a, ctx_b), tol)):
                skipped.add((i, j))
        elif all(linalg.is_zero(cell, at_margin, ctx) for cell, ctx in cells):
            skipped.add((i, j))
    return skipped


def squared_moduli(m):
    return m.real * m.real + m.imag * m.imag


def off_diagonal_moduli(m):
    out = squared_moduli(m)
    np.fill_diagonal(out, 0.0)
    return out


def guard_scan_reads(monkeypatch):
    """Make every scan through ``solver.check_presolution`` assert how it
    reads cells.  In scan order (matrix, row class, column class), up to the
    first deviation or all of them when it passes, it calls ``submatrix``
    once for a cell of a shared matrix and twice for a cell of an unshared
    pair, but not at all for the ``skipped_cells`` of either.  On every
    partition, for each matrix it reaches, in scan order, it makes one
    ``cell_sums`` call on each side's squared moduli, with the diagonal
    zeroed in similarity mode, A before B, one for a shared matrix and none
    for an unshared pair where one similarity class leaves no cell to skip;
    it holds no other reader of ``blocking``: a passing scan reads a shared
    matrix's 1x1 cells off its sums, and every diagonal scalar off the
    traces of A's diagonal blocks.  Returns a counter of the scans that read
    a shared matrix, of the kernel reads, of the skipped zero cells larger
    than 1x1 and the skipped diagonal cells of shared matrices, and of the
    skipped diagonal and other cells of unshared pairs."""
    module = blocking.__name__
    readers = {n for n, f in vars(structure).items() if getattr(f, "__module__", "") == module}
    assert readers == {"Partition", "submatrix", "cell_sums"}
    reads = []  # one entry per cell read
    sums = []  # the arrays the kernel sums
    read_cell, read_sums = structure.submatrix, structure.cell_sums
    scan = solver.check_presolution

    def counted_cell(m, *args):
        reads.append(None)
        return read_cell(m, *args)

    def counted_sums(x, *args):
        sums.append(x)
        return read_sums(x, *args)

    seen = Counter()

    def guarded_scan(a_mats, b_mats, rows, cols, mode, tol):
        reads.clear()
        sums.clear()
        pre = scan(a_mats, b_mats, rows, cols, mode, tol)
        passed = isinstance(pre, structure.SolutionForm)
        reached = list(zip(a_mats, b_mats))[: None if passed else pre.at[0] + 1]
        shared = [b is a for a, b in reached]
        skipped = [skipped_cells(a, b, rows, cols, mode, tol) for a, b in reached]
        in_order = 0
        for at in itertools.product(range(len(reached)), range(rows.count), range(cols.count)):
            l, i, j = at
            if (i, j) not in skipped[l]:
                in_order += 1 if shared[l] else 2
            elif not shared[l]:
                diagonal = mode == "sus" and i == j
                seen["unshared scalar cells skipped" if diagonal else "unshared cells skipped"] += 1
            elif mode == "sus" and i == j and rows.sizes[i] > 1:
                seen["scalar cells skipped"] += 1
            elif rows.sizes[i] != 1 or cols.sizes[j] != 1:
                seen["zero cells skipped"] += 1
            if not passed and at == pre.at:
                break
        assert len(reads) == in_order
        kernel = []
        moduli = off_diagonal_moduli if mode == "sus" else squared_moduli
        for a, b in reached:
            if b is a:
                kernel.append(moduli(a))
            elif mode == "sueq" or rows.count > 1:
                kernel += [moduli(a), moduli(b)]
        assert len(sums) == len(kernel)
        assert all(np.array_equal(x, y) for x, y in zip(sums, kernel))
        seen["shared reads"] += any(shared)
        seen["kernel reads"] += len(sums)
        return pre

    monkeypatch.setattr(structure, "submatrix", counted_cell)
    monkeypatch.setattr(structure, "cell_sums", counted_sums)
    monkeypatch.setattr(solver, "check_presolution", guarded_scan)
    return seen


def test_shared_matrices_are_computed_once(monkeypatch):
    """Counted on solves whose B side holds copies of some A-side matrices:
    a scan reads a shared matrix's cells once and skips its scalar diagonal
    cells, and the zero cells and the agreeing scalar diagonal cells of
    unshared pairs, a scan violation on a shared
    matrix is eigensolved once, and a refinement that diagonalizes both
    sides alike keeps every shared matrix shared."""
    calls = Counter()

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in ("eig_hermitian", "eig_normal"):
        count(refine, name)

    def eigs():
        return calls["eig_hermitian"] + calls["eig_normal"]

    seen = guard_scan_reads(monkeypatch)
    refinement = solver.apply_refinement

    def counted_refinement(a_mats, b_mats, rows, cols, mode, violation, tol):
        before = eigs()
        out = refinement(a_mats, b_mats, rows, cols, mode, violation, tol)
        shared = [l for l, (a, b) in enumerate(zip(a_mats, b_mats)) if b is a]
        if violation.functional != model.PR_NORMAL and violation.at[0] in shared:
            assert violation.r is violation.s and eigs() - before == 1
            seen["shared violations"] += 1
        if out.status == "refined" and out.z is out.y:
            assert all(out.b_mats[l] is out.a_mats[l] for l in shared)
            seen["sharing kept"] += bool(shared)
        return out

    monkeypatch.setattr(solver, "apply_refinement", counted_refinement)
    instances = [commutant(mode, seed) for mode in ("sus", "sueq") for seed in range(5)]
    instances += [generate(GenConfig(kind="pairwise", n=6, seed=seed))[0] for seed in range(5)]
    instances += [generate(GenConfig(seed=0, **cfg))[0] for cfg in CONFIGS]
    for inst in instances:
        b = [m.copy() for m in inst.b_mats]
        solver.solve(Instance(inst.mode, inst.a_mats, b), TOL)
    assert seen["shared reads"] and seen["shared violations"] and seen["sharing kept"]
    assert seen["unshared cells skipped"] and seen["scalar cells skipped"]
    assert seen["unshared scalar cells skipped"]


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
