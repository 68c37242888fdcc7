"""Singleton cells of a shared matrix are read off, not tested in scan order.

A 1x1 cell always passes its form test, and on a matrix that both sides
hold, every cross-side comparison compares a value with itself, so such a
cell can never be the first deviation.  ``check_presolution`` makes one
``cell_sums`` pass over each shared matrix's squared moduli, and once the
scan has passed, it reads these cells off that pass.  These tests pin the
rule (a finite 1x1 cell passes both predicates at any context), show that
the read-off returns bit for bit what the predicates return and that the
scan's answer is the one an unshared copy gives, and count the form tests
it saves.  Off-diagonal cells that the same pass proves zero are skipped
too, and so are those of an unshared pair that one pass per side proves
zero on both sides: ``predicate_scan``, which tests every cell of an
unshared pair, is the reference for both, and the last tests count the
form tests the skip saves.  A shared matrix's diagonal cells that the
pass proves identity multiples are skipped as well, and a passing scan
reads their scalars off, bit for bit as the predicate returns them.
"""

import contextlib
import dataclasses
import importlib.util
import itertools
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from test_golden import corpus as golden_corpus

from susim import linalg, refine, solver, structure
from susim.blocking import Partition, submatrix
from susim.canonical import extract_features
from susim.instances import GenConfig, generate, random_unitary
from susim.linalg import (
    DEFAULT_TOLERANCES,
    close_scalars,
    fro,
    identity_multiple,
    unitary_multiple,
)
from susim.structure import ScalarMismatch, SolutionForm, Violation, check_presolution

TOL = DEFAULT_TOLERANCES
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def cell_values(rng, count):
    """Complex 1x1 values: zero, subnormals, and magnitudes 1e-300 .. 1e150."""
    values = [0j, 5e-324 + 0j, -5e-324j, complex(1e-310, -3e-320)]
    mags = 10.0 ** rng.uniform(-300.0, 150.0, count)
    values += [complex(v) for v in mags * np.exp(2j * np.pi * rng.uniform(size=count))]
    values += [1e150 + 0j, 1e150j, complex(-7e149, 7e149)]
    return values


def test_finite_singleton_passes_both_predicates_at_any_context():
    # Above |c| of about 1e77 the norm of the 1x1 Gram overflows; the test's
    # threshold is then infinite and the residual 0, so the cell still passes.
    rng = np.random.default_rng(7)
    for c in cell_values(rng, 300):
        cell = np.array([[c]], dtype=np.complex128)
        contexts = [0.0, abs(c), abs(c) * 10.0 ** rng.uniform(0.0, 5.0), 1e150, np.inf]
        contexts += [10.0 ** rng.uniform(-320.0, 300.0)]
        for ctx in contexts:
            alpha = identity_multiple(cell, TOL, ctx)
            assert alpha == c, (c, ctx)
            assert close_scalars(alpha, alpha, TOL, context=ctx), (c, ctx)
            with np.errstate(over="ignore"):
                r = unitary_multiple(cell, TOL, ctx)
            assert r is not None and r >= 0.0, (c, ctx)
            assert close_scalars(r, r, TOL, context=ctx * ctx), (c, ctx)


@pytest.mark.parametrize("mode", ["sus", "sueq"])
def test_gram_scalar_is_finite_wherever_its_square_is(mode):
    """Between |c| of about 9.5e153 and 1.34e154, r = |c|^2 is finite but
    r + r is not: the predicate and the read-off must halve before they add.
    The Gram test's own threshold overflows here too, a separate fault, so
    numpy's overflow warnings are silenced and the values checked instead."""
    rng = np.random.default_rng(29)
    mags = 10.0 ** rng.uniform(np.log10(9.0e153), np.log10(1.35e154), 400)
    rows = Partition((1, 1))
    tested = 0
    for c in mags * np.exp(2j * np.pi * rng.uniform(size=mags.size)):
        with np.errstate(over="ignore"):
            if not np.isfinite(c.real * c.real + c.imag * c.imag):
                continue
            r = unitary_multiple(np.array([[c]]), TOL, abs(c))
            mat = np.array([[0.0, c], [0.0, 0.0]])
            found = check_presolution([mat], [mat], rows, rows, mode, TOL)
        assert r is not None and np.isfinite(r), c
        assert found.cell_scales_a[(0, 0, 1)] == r, c
        tested += 1
    assert tested > 100


def block_form(rng, rows, cols, mode, zero_share=0.3):
    """A matrix that passes the scan under the partitions: identity multiples
    on the similarity diagonal, unitary multiples (some zero) on the other
    square cells and zeros elsewhere."""
    out = np.zeros((rows.total, cols.total), dtype=np.complex128)
    for i, si in enumerate(rows.sizes):
        for j, sj in enumerate(cols.sizes):
            cell = (rows.slice_of(i), cols.slice_of(j))
            if mode == "sus" and i == j:
                out[cell] = complex(*rng.standard_normal(2)) * np.eye(si)
            elif si == sj and rng.uniform() > zero_share:
                out[cell] = complex(*rng.standard_normal(2)) * random_unitary(si, rng)
    return out


def bits(found):
    """An array of scalars as its shape and dtype, with the exact bits of
    both parts of every entry: ``==`` lets -0.0 pass for 0.0."""
    values = [complex(v) for v in found.ravel().tolist()]
    return found.shape, found.dtype, [(v.real.hex(), v.imag.hex()) for v in values]


def assert_same_form(form, expected):
    assert bits(form.diag_alphas) == bits(expected.diag_alphas)
    assert bits(form.cell_scales_a) == bits(expected.cell_scales_a)
    assert bits(form.cell_scales_b) == bits(expected.cell_scales_b)


def assert_form_layout(form, rows, cols, mode):
    """The layout graph and canonical read a form by: one diagonal scalar per
    matrix and class (none in equivalence mode), and two scale arrays whose
    nonzero cells, the edges, are the same, all square and all off the
    similarity diagonal."""
    p = form.cell_scales_a.shape[0]
    assert form.diag_alphas.shape == (p, rows.count if mode == "sus" else 0)
    assert form.diag_alphas.dtype == np.complex128
    square = np.equal.outer(rows.sizes, cols.sizes)
    for scales in (form.cell_scales_a, form.cell_scales_b):
        assert scales.shape == (p, rows.count, cols.count) and scales.dtype == np.float64
        assert not scales[:, ~square].any()
        if mode == "sus":
            assert not np.diagonal(scales, axis1=1, axis2=2).any()
    edges_a, edges_b = np.nonzero(form.cell_scales_a), np.nonzero(form.cell_scales_b)
    assert all(map(np.array_equal, edges_a, edges_b))


def assert_same_answer(shared, copied):
    assert type(shared) is type(copied)
    if isinstance(shared, SolutionForm):
        assert_same_form(shared, copied)
    elif isinstance(shared, Violation):
        assert (shared.functional, shared.at, shared.touch) == (
            copied.functional, copied.at, copied.touch
        )
        assert (shared.ctx_a, shared.ctx_b) == (copied.ctx_a, copied.ctx_b)
        np.testing.assert_array_equal(shared.s, copied.s)
        np.testing.assert_array_equal(shared.r, copied.r)
    else:
        assert isinstance(shared, ScalarMismatch) and shared == copied


kernel_cells = structure._tested_cells


def every_cell(a, b, rows, cols, mode, tol, ctx_a, ctx_b):
    """The scan's choice of cells, except that an unshared pair has every
    cell tested by the form predicates, none proven zero by the kernel."""
    if b is a:
        return kernel_cells(a, b, rows, cols, mode, tol, ctx_a, ctx_b)
    return [[i, j] for i in range(rows.count) for j in range(cols.count)], None


@contextlib.contextmanager
def predicates_only():
    """Scans within test every cell of an unshared pair one by one."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(structure, "_tested_cells", every_cell)
        yield


def predicate_scan(a_mats, b_mats, rows, cols, mode, tol=TOL):
    with predicates_only():
        return check_presolution(a_mats, b_mats, rows, cols, mode, tol)


def partitions(rng, mode, singletons):
    if singletons:
        rows = Partition((1,) * int(rng.integers(1, 7)))
        return rows, rows if mode == "sus" else Partition((1,) * int(rng.integers(1, 7)))
    rows = Partition(tuple(rng.integers(1, 4, size=rng.integers(2, 6))))
    if mode == "sus":
        return rows, rows
    return rows, Partition(tuple(rng.integers(1, 4, size=rng.integers(2, 6))))


@pytest.mark.parametrize("mode", ["sus", "sueq"])
@pytest.mark.parametrize("singletons", [True, False], ids=["all_singleton", "mixed"])
def test_shared_and_copied_b_give_the_same_answer(mode, singletons):
    rng = np.random.default_rng([3, mode == "sus", singletons])
    kinds = set()
    for _ in range(60):
        rows, cols = partitions(rng, mode, singletons)
        a_mats = [block_form(rng, rows, cols, mode) for _ in range(3)]
        if rng.uniform() < 0.5:
            # A dense matrix deviates at its first cell larger than 1x1.
            a_mats[rng.integers(3)] = rng.standard_normal((rows.total, cols.total)) + 0j
        copies = [m.copy() for m in a_mats]
        shared = check_presolution(a_mats, a_mats, rows, cols, mode, TOL)
        copied = check_presolution(a_mats, copies, rows, cols, mode, TOL)
        assert_same_answer(shared, copied)
        assert_same_answer(copied, predicate_scan(a_mats, copies, rows, cols, mode))
        if isinstance(shared, SolutionForm):
            # graph reads edge witnesses and the first failing edge in array order.
            assert_form_layout(shared, rows, cols, mode)
        kinds.add(type(shared).__name__)
    assert "SolutionForm" in kinds
    assert ("Violation" in kinds) is not singletons


@pytest.mark.parametrize("mode", ["sus", "sueq"])
def test_unshared_pairs_give_the_answer_of_the_predicates(mode):
    """Pairs of block forms whose sides differ: B as a copy of A, with one
    matrix scaled, which moves its norm and so its zero threshold, or
    replaced by another draw, and with one cell of one side raised by a
    bump from far below to far above the threshold.  The scan that skips
    the cells both sides prove zero returns the answer of the scan that
    tests every cell."""
    rng = np.random.default_rng([5, mode == "sus"])
    kinds = Counter()
    for _ in range(200):
        rows, cols = partitions(rng, mode, singletons=False)
        a_mats = [block_form(rng, rows, cols, mode) for _ in range(3)]
        b_mats = [m.copy() for m in a_mats]
        l = rng.integers(3)
        change = rng.integers(3)
        if change == 1:
            b_mats[l] *= 10.0 ** rng.uniform(-2.0, 2.0)
        elif change == 2:
            b_mats[l] = block_form(rng, rows, cols, mode)
        if rng.uniform() < 0.5:
            side = (a_mats, b_mats)[rng.integers(2)]
            i, j = rng.integers(rows.count), rng.integers(cols.count)
            side[l][rows.slice_of(i), cols.slice_of(j)] += 10.0 ** rng.uniform(-18.0, -6.0)
        found = check_presolution(a_mats, b_mats, rows, cols, mode, TOL)
        assert_same_answer(found, predicate_scan(a_mats, b_mats, rows, cols, mode))
        kinds[type(found).__name__] += 1
    assert kinds["SolutionForm"] > 20 and kinds["Violation"] > 5


@pytest.mark.parametrize("config", list(golden_corpus()), ids=GenConfig.label)
def test_features_are_in_key_order(config):
    # extract_features keeps the order the loop hands over, so a change of
    # that order would change the feature documents.
    inst, _ = generate(config)
    for mats in (inst.a_mats, inst.b_mats):
        features = extract_features(mats, mode=inst.mode)
        classes = len(features.rows_sizes) if inst.mode == "sus" else 0
        assert features.alphas.shape == (len(mats), classes)
        edges = features.edges.tolist()
        assert edges == sorted(edges)
        assert features.scales.shape == features.betas.shape == (len(edges),)


@pytest.mark.parametrize("config", list(golden_corpus()), ids=GenConfig.label)
def test_final_forms_keep_the_layout_their_readers_rely_on(config):
    """Each side of a golden instance, run paired with itself to its final
    partitions, in similarity mode where it is square and in equivalence
    mode: the passing scan there, with B shared and with B copied, returns
    the same form, and that form keeps ``assert_form_layout``."""
    inst, _ = generate(config)
    modes = ("sus", "sueq") if inst.shape[0] == inst.shape[1] else ("sueq",)
    for mats, mode in itertools.product((inst.a_mats, inst.b_mats), modes):
        final = list(mats)
        loop = solver._refinements(mode, final, final, TOL)
        while True:
            try:
                final = next(loop)[0].a_mats
            except StopIteration as stop:
                end = stop.value
                break
        copies = [m.copy() for m in final]
        shared = check_presolution(final, final, end.rows, end.cols, mode, TOL)
        copied = check_presolution(final, copies, end.rows, end.cols, mode, TOL)
        assert isinstance(shared, SolutionForm), (mode, shared)
        assert_same_answer(shared, copied)
        assert_same_answer(copied, predicate_scan(final, copies, end.rows, end.cols, mode))
        assert_same_form(shared, end.form)
        assert_form_layout(shared, end.rows, end.cols, mode)
        assert_form_layout(copied, end.rows, end.cols, mode)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("scale", [1e154, 1e160])
def test_overflowing_shared_matrix_keeps_its_in_order_tests(scale):
    rng = np.random.default_rng(1)
    rows = Partition((1,) * 4)
    a_mats = [scale * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))]
    copies = [a_mats[0].copy()]
    shared = check_presolution(a_mats, a_mats, rows, rows, "sus", TOL)
    copied = check_presolution(a_mats, copies, rows, rows, "sus", TOL)
    assert_same_answer(shared, copied)
    assert_same_answer(copied, predicate_scan(a_mats, copies, rows, rows, "sus"))


def predicted_form(mat, mode, rows=None):
    """The form of the square ``mat`` paired with itself, with ``rows`` (all
    singletons by default) partitioning both axes, from the per-cell
    predicates in scan order."""
    rows = rows or Partition((1,) * mat.shape[0])
    ctx = fro(mat)
    d = rows.count
    alphas = np.zeros((1, d if mode == "sus" else 0), dtype=np.complex128)
    scales = np.zeros((1, d, d))
    for i, j in np.ndindex(d, d):
        cell = submatrix(mat, rows, i, rows, j)
        if mode == "sus" and i == j:
            alphas[0, i] = identity_multiple(cell, TOL, ctx)
        elif cell.shape[0] != cell.shape[1]:
            assert linalg.is_zero(cell, TOL, ctx)
        elif (r := unitary_multiple(cell, TOL, ctx)) > 0.0:
            scales[0, i, j] = r
    return SolutionForm(alphas, scales, scales.copy())


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("mode", ["sus", "sueq"])
def test_read_off_returns_what_the_predicates_return(mode):
    """Each value of ``cell_values`` sits, with its conjugate and negative,
    in a 3x3 matrix whose norm, the context, is set by a ballast entry: none
    (the context is about |c|), |c| up to 1e5 |c|, 1e150, 1.3e154 (in
    equivalence mode a cell whose Gram scalar r is finite but 2r is not)
    and 1e160 (an infinite context)."""
    rng = np.random.default_rng(11)
    rows = Partition((1, 1, 1))
    values = cell_values(rng, 300) + [complex(1.2e154, -0.0), complex(-0.0, 1.3e154)]
    for c in values:
        for ballast in (0.0, abs(c) * 10.0 ** rng.uniform(0.0, 5.0), 1e150, 1.3e154, 1e160):
            mat = np.array(
                [[c, -c, 0.0], [c.conjugate(), complex(-0.0, c.imag), 0.0], [0.0, -0.0, ballast]]
            )
            found = check_presolution([mat], [mat], rows, rows, mode, TOL)
            assert_same_form(found, predicted_form(mat, mode))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("mode", ["sus", "sueq"])
def test_read_off_on_a_mixed_partition_returns_what_the_predicates_return(mode):
    """The matrices of the test above on the singleton classes 0, 2 and 3 of
    the partition (1, 2, 1, 1), whose class 1 holds ``c / 2`` times the
    identity.  The 1x1 cells come out of the same ``cell_sums`` pass that
    sums the 2x2 cell and the zero 1x2 and 2x1 cells, at offsets that
    differ from their class indices."""
    rng = np.random.default_rng(13)
    rows = Partition((1, 2, 1, 1))
    values = cell_values(rng, 300) + [complex(1.2e154, -0.0), complex(-0.0, 1.3e154)]
    for c in values:
        for ballast in (0.0, abs(c) * 10.0 ** rng.uniform(0.0, 5.0), 1e150, 1.3e154, 1e160):
            mat = np.zeros((5, 5), dtype=np.complex128)
            mat[np.ix_([0, 3, 4], [0, 3, 4])] = [
                [c, -c, 0.0], [c.conjugate(), complex(-0.0, c.imag), 0.0], [0.0, -0.0, ballast]
            ]
            mat[1:3, 1:3] = c / 2.0 * np.eye(2)
            found = check_presolution([mat], [mat], rows, rows, mode, TOL)
            assert_same_form(found, predicted_form(mat, mode, rows))


def test_read_off_of_proven_diagonal_cells_returns_what_the_predicate_returns():
    """Block forms on classes of up to 9 indices whose diagonal entries carry
    a noise far below the threshold, so that a cell's trace depends on the
    order of its sum in the last bits.  A passing scan of a shared matrix
    skips the diagonal cells its pass proves, and reads their scalars off
    bit for bit as ``identity_multiple`` returns them, as ``predicate_scan``
    does on a copy."""
    rng = np.random.default_rng(17)
    proven = 0
    for _ in range(60):
        rows = Partition(tuple(rng.integers(1, 10, size=rng.integers(1, 6))))
        a_mats = [block_form(rng, rows, rows, "sus") for _ in range(2)]
        for m in a_mats:
            noise = rng.standard_normal((rows.total, 2)) @ [1.0, 1.0j]
            m[np.diag_indices(rows.total)] += 1e-13 * noise
        copies = [m.copy() for m in a_mats]
        shared = check_presolution(a_mats, a_mats, rows, rows, "sus", TOL)
        assert isinstance(shared, SolutionForm)
        assert_same_form(shared, predicate_scan(a_mats, copies, rows, rows, "sus"))
        for m in a_mats:
            tested, _ = structure._tested_cells(m, m, rows, rows, "sus", TOL, fro(m), fro(m))
            proven += sum(size > 1 and [i, i] not in tested for i, size in enumerate(rows.sizes))
    assert proven > 100


def pool(kind, seed):
    """Every pool entry of ``kind`` (a kind's name in the benchmark's
    ``workloads`` module, e.g. ``"PAIRWISE"``) at workload seed ``seed``."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        kind = getattr(module, kind)
        return [module.make_instance(kind, seed, k, False) for k in range(kind.pool)]
    finally:
        del sys.modules[spec.name]


def test_pairwise_solve_makes_no_gram_test_on_its_shared_matrix(monkeypatch):
    """A pairwise trap holds its first matrix on both sides; once that matrix
    splits into singletons, none of its cells is tested in scan order."""
    shared_now: list[np.ndarray] = []
    passed_shared = []
    gram_tests = 0
    scan, gram_test = solver.check_presolution, structure.unitary_multiple

    def counted_scan(a_mats, b_mats, rows, cols, mode, tol):
        shared_now[:] = [a for a, b in zip(a_mats, b_mats) if b is a]
        found = scan(a_mats, b_mats, rows, cols, mode, tol)
        if shared_now and set(rows.sizes) == {1}:
            # The scan got past the shared matrix's off-diagonal 1x1 cells.
            passed_shared.append(isinstance(found, SolutionForm) or found.at[0] > 0)
        return found

    def counted_gram_test(cell, tol, ctx):
        nonlocal gram_tests
        gram_tests += any(np.shares_memory(cell, m) for m in shared_now)
        return gram_test(cell, tol, ctx)

    monkeypatch.setattr(solver, "check_presolution", counted_scan)
    monkeypatch.setattr(structure, "_SQUARE", (counted_gram_test,) + structure._SQUARE[1:])
    for inst in pool("PAIRWISE", 101):
        assert solver.solve(inst).status == "not_similar"
    assert passed_shared and all(passed_shared)
    assert gram_tests == 0


def test_dense_features_make_no_form_test_on_a_1x1_cell(monkeypatch):
    """The features of a dense planted collection (n=40, p=3) end on a
    passing scan of 40 singleton classes.  Its 4800 cells are read off
    without a form test; tested one by one, they took 4800 form tests and
    9360 ``identity_multiple`` calls on their 1x1 Gram matrices."""
    one_by_one = 0

    def counted(test):
        def wrapper(cell, tol, ctx):
            nonlocal one_by_one
            one_by_one += cell.shape == (1, 1)
            return test(cell, tol, ctx)

        return wrapper

    for rule in ("_DIAGONAL", "_SQUARE"):
        test, *pair = getattr(structure, rule)
        monkeypatch.setattr(structure, rule, (counted(test), *pair))
    monkeypatch.setattr(structure, "identity_multiple", counted(structure.identity_multiple))
    inst = pool("DENSE", 101)[0]
    assert inst.a_mats[0].shape == (40, 40) and len(inst.a_mats) == 3
    features = extract_features(list(inst.a_mats), mode=inst.mode)
    assert features.rows_sizes == (1,) * 40
    assert one_by_one == 0


def test_deep_split_features_make_no_form_test_on_a_proven_zero_cell(monkeypatch):
    """The features of a deep_split collection (n=128, p=2) take 33 scans of
    ever finer classes, most of whose cells are zero.  One ``cell_sums``
    pass per matrix proves them zero, so no ``is_zero`` or
    ``unitary_multiple`` call sees one of them; tested one by one, they took
    28094 form tests."""
    at_margin = dataclasses.replace(TOL, cmp=TOL.cmp * (1.0 - structure._ZERO_MARGIN))
    on_zero_cells = 0
    proven = 0

    def counted(test):
        def wrapper(cell, tol, ctx):
            nonlocal on_zero_cells
            on_zero_cells += linalg.is_zero(cell, at_margin, ctx)
            return test(cell, tol, ctx)

        return wrapper

    def counted_tested_cells(a, b, rows, cols, mode, tol, ctx_a, ctx_b):
        # The scan is in similarity mode, where the diagonal is always tested.
        nonlocal proven
        tested, sq = tested_cells(a, b, rows, cols, mode, tol, ctx_a, ctx_b)
        sizes = np.array(rows.sizes)
        larger = np.sum(np.maximum.outer(sizes, sizes) > 1) - np.sum(sizes > 1)
        proven += int(larger) - sum(i != j for i, j in tested)
        return tested, sq

    tested_cells = structure._tested_cells
    test, *pair = structure._SQUARE
    monkeypatch.setattr(structure, "_SQUARE", (counted(test), *pair))
    monkeypatch.setattr(structure, "is_zero", counted(structure.is_zero))
    monkeypatch.setattr(structure, "_tested_cells", counted_tested_cells)
    inst = pool("DEEP", 101)[0]
    assert inst.a_mats[0].shape == (128, 128) and len(inst.a_mats) == 2
    features = extract_features(list(inst.a_mats), mode=inst.mode)
    assert len(features.steps) == 32
    assert proven > 10_000
    assert on_zero_cells == 0


def test_deep_split_features_test_only_the_diagonal_cells_the_kernel_leaves(monkeypatch):
    """The same features: each diagonal cell larger than 1x1 that the one
    ``cell_sums`` pass proves an identity multiple is skipped, so the scan
    loop calls ``identity_multiple`` only on the diagonal cells that
    ``_tested_cells`` leaves, 32 times, where testing every diagonal cell
    took 1127 calls.  The run keeps its 33 scans, 32 refinements and 32
    eigensolves."""
    left = set()  # (first element's address, shape) of each diagonal cell left
    calls = Counter()

    def key(cell):
        return cell.__array_interface__["data"][0], cell.shape

    def counted_tested_cells(a, b, rows, cols, mode, tol, ctx_a, ctx_b):
        tested, sq = tested_cells(a, b, rows, cols, mode, tol, ctx_a, ctx_b)
        left.clear()
        left.update(key(a[rows.slice_of(i), cols.slice_of(j)]) for i, j in tested if i == j)
        larger = [i for i, size in enumerate(rows.sizes) if size > 1]
        calls["proven"] += sum([i, i] not in tested for i in larger)
        return tested, sq

    def counted(name, real, check=None):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if check:
                check(*args)
            return real(*args, **kwargs)

        return wrapper

    def on_a_left_cell(cell, tol, ctx):
        assert key(cell) in left

    tested_cells = structure._tested_cells
    test, *pair = structure._DIAGONAL
    monkeypatch.setattr(structure, "_DIAGONAL", (counted("form", test, on_a_left_cell), *pair))
    monkeypatch.setattr(structure, "_tested_cells", counted_tested_cells)
    monkeypatch.setattr(solver, "check_presolution", counted("scan", solver.check_presolution))
    monkeypatch.setattr(solver, "apply_refinement", counted("refine", solver.apply_refinement))
    for name in ("eig_hermitian", "eig_normal"):
        monkeypatch.setattr(refine, name, counted("eig", getattr(refine, name)))
    inst = pool("DEEP", 101)[0]
    features = extract_features(list(inst.a_mats), mode=inst.mode)
    assert len(features.steps) == 32
    assert (calls["scan"], calls["refine"], calls["eig"]) == (33, 32, 32)
    assert calls["form"] == 32
    assert calls["proven"] > 1000


def test_deep_split_solve_makes_no_form_test_on_a_cell_both_sides_prove_zero(monkeypatch):
    """An unshared deep_split solve (n=32, p=2, depth 8) takes 9 scans of
    ever finer classes, whose off-diagonal cells are zero on both sides.
    One ``cell_sums`` pass per side proves them zero, so no ``is_zero`` or
    ``unitary_multiple`` call sees one of them; tested one by one, they took
    838 form tests."""
    at_margin = dataclasses.replace(TOL, cmp=TOL.cmp * (1.0 - structure._ZERO_MARGIN))
    reads = []  # (cell, matrix, i, j) of the scan's two latest cell reads
    on_zero_cells = 0
    form_tests = 0

    def counted_read(m, rows, i, cols, j):
        cell = read(m, rows, i, cols, j)
        reads[:] = [*reads[-1:], (cell, m, i, j)]
        return cell

    def counted(test):
        def wrapper(cell, tol, ctx):
            nonlocal on_zero_cells, form_tests
            (_, a, i, j), (_, b, *at) = reads
            assert b is not a and at == [i, j] and any(cell is c for c, *_ in reads)
            both_zero = all(linalg.is_zero(c, at_margin, fro(m)) for c, m, *_ in reads)
            on_zero_cells += both_zero and i != j
            form_tests += 1
            return test(cell, tol, ctx)

        return wrapper

    read = structure.submatrix
    monkeypatch.setattr(structure, "submatrix", counted_read)
    for rule in ("_DIAGONAL", "_SQUARE"):
        test, *pair = getattr(structure, rule)
        monkeypatch.setattr(structure, rule, (counted(test), *pair))
    monkeypatch.setattr(structure, "is_zero", counted(structure.is_zero))
    inst, _ = generate(GenConfig(kind="deep_split", n=32, count=2, depth=8, seed=0))
    result = solver.solve(inst, TOL)
    assert result.status == "solved" and result.iterations == 9
    # The diagonal cells are tested, as before.
    assert form_tests > 0
    assert on_zero_cells == 0
