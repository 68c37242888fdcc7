"""Pairs that hold one matrix on both sides are computed once.

``solve`` makes each ``B_l`` that equals ``A_l`` bit for bit into the ``A_l``
object itself, and the loop reads, tests, eigensolves and conjugates such a
shared matrix once.  Equal inputs give equal arithmetic, so every result
document must be byte-identical to the one a run without any sharing gives.
"""

import dataclasses
import itertools
import json
from collections import Counter

import numpy as np
import pytest
from test_golden import CONFIGS
from test_singleton_cells import assert_same_answer, predicate_scan, predicates_only

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


def test_no_cell_is_skipped_as_zero_below_the_least_threshold():
    # With a threshold under about 1e-150, squares of entries near it are
    # subnormal, and the kernel's sum no longer bounds fro's rounding.
    tol = linalg.Tolerances(cmp=1e-170, group=1e-7, verify=1e-6)
    rows = blocking.Partition((2, 1, 2))
    m = np.zeros((5, 5), dtype=np.complex128)
    m[0, 3] = m[1, 4] = 1e-171
    m[2, 2] = 1.0
    ctx = linalg.fro(m)
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


def skipped_cells(a, b, rows, cols, mode, tol):
    """The cells of the pair ``(a, b)`` that a scan does not read one by one:
    every cell off the similarity diagonal that ``is_zero``, with the
    threshold lowered by the scan's margin, calls zero on both sides, each
    at its own norm, and the 1x1 cells of a shared matrix."""
    at_margin = dataclasses.replace(tol, cmp=tol.cmp * (1.0 - structure._ZERO_MARGIN))
    sides = [(a, linalg.fro(a)), (b, linalg.fro(b))]
    skipped = set()
    for i, j in itertools.product(range(rows.count), range(cols.count)):
        if b is a and rows.sizes[i] == cols.sizes[j] == 1:
            skipped.add((i, j))
        elif not (mode == "sus" and i == j) and all(
            linalg.is_zero(blocking.submatrix(m, rows, i, cols, j), at_margin, ctx)
            for m, ctx in sides
        ):
            skipped.add((i, j))
    return skipped


def squared_moduli(m):
    return m.real * m.real + m.imag * m.imag


def guard_scan_reads(monkeypatch):
    """Make every scan through ``solver.check_presolution`` assert how it
    reads cells.  In scan order (matrix, row class, column class), up to the
    first deviation or all of them when it passes, it calls ``submatrix``
    once for a cell of a shared matrix and twice for a cell of an unshared
    pair, but not at all for the ``skipped_cells`` of either.  On every
    partition, for each matrix it reaches, in scan order, it makes one
    ``cell_sums`` call on a shared matrix's squared moduli, and one on each
    side's of an unshared pair, A before B, unless one similarity class
    leaves no cell to skip; it holds no other reader of ``blocking``: a
    passing scan reads a shared matrix's 1x1 cells off its sums.  Returns a
    counter of the scans that read a shared matrix, of the kernel reads and
    of the skipped cells larger than 1x1, and of those of unshared pairs."""
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
                seen["unshared cells skipped"] += 1
            elif rows.sizes[i] != 1 or cols.sizes[j] != 1:
                seen["zero cells skipped"] += 1
            if not passed and at == pre.at:
                break
        assert len(reads) == in_order
        kernel = []
        for a, b in reached:
            if b is a:
                kernel.append(a)
            elif mode == "sueq" or rows.count > 1:
                kernel += [a, b]
        assert len(sums) == len(kernel)
        assert all(np.array_equal(x, squared_moduli(m)) for x, m in zip(sums, kernel))
        seen["shared reads"] += any(shared)
        seen["kernel reads"] += len(sums)
        return pre

    monkeypatch.setattr(structure, "submatrix", counted_cell)
    monkeypatch.setattr(structure, "cell_sums", counted_sums)
    monkeypatch.setattr(solver, "check_presolution", guarded_scan)
    return seen


def test_shared_matrices_are_computed_once(monkeypatch):
    """Counted on solves whose B side holds copies of some A-side matrices:
    a scan reads a shared matrix's cells once and skips the zero cells of
    unshared pairs, a scan violation on a shared matrix is eigensolved once,
    and a refinement that diagonalizes both sides alike keeps every shared
    matrix shared."""
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
    assert seen["unshared cells skipped"]


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
