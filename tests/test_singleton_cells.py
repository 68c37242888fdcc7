"""Singleton cells of a shared matrix are read off, not tested in scan order.

A 1x1 cell always passes its form test, and on a matrix that both sides
hold, every cross-side comparison compares a value with itself, so such a
cell can never be the first deviation.  ``check_presolution`` reads these
cells off once the scan has passed.  These tests pin the rule (a finite 1x1
cell passes both predicates at any context), show that the scan's answer is
the one an unshared copy gives, and count the Gram tests it saves.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from susim import solver, structure
from susim.blocking import Partition
from susim.errors import InternalInconsistency
from susim.instances import random_unitary
from susim.linalg import DEFAULT_TOLERANCES, close_scalars, identity_multiple, unitary_multiple
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


def assert_same_answer(shared, copied):
    assert type(shared) is type(copied)
    if isinstance(shared, SolutionForm):
        assert list(shared.diag_alphas.items()) == list(copied.diag_alphas.items())
        assert list(shared.cell_scales_a.items()) == list(copied.cell_scales_a.items())
        assert list(shared.cell_scales_b.items()) == list(copied.cell_scales_b.items())
    elif isinstance(shared, Violation):
        assert (shared.functional, shared.at, shared.touch) == (
            copied.functional, copied.at, copied.touch
        )
        assert (shared.ctx_a, shared.ctx_b) == (copied.ctx_a, copied.ctx_b)
        np.testing.assert_array_equal(shared.s, copied.s)
        np.testing.assert_array_equal(shared.r, copied.r)
    else:
        assert isinstance(shared, ScalarMismatch) and shared == copied


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
        shared = check_presolution(a_mats, a_mats, rows, cols, mode, TOL)
        copied = check_presolution(a_mats, [m.copy() for m in a_mats], rows, cols, mode, TOL)
        assert_same_answer(shared, copied)
        if isinstance(shared, SolutionForm):
            # graph reads edge witnesses and the first failing edge in key order.
            for found in (shared.diag_alphas, shared.cell_scales_a, shared.cell_scales_b):
                assert list(found) == sorted(found)
        kinds.add(type(shared).__name__)
    assert "SolutionForm" in kinds
    assert ("Violation" in kinds) is not singletons


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("scale", [1e154, 1e160])
def test_overflowing_shared_matrix_keeps_its_in_order_tests(scale):
    rng = np.random.default_rng(1)
    rows = Partition((1,) * 4)
    a_mats = [scale * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))]
    shared = check_presolution(a_mats, a_mats, rows, rows, "sus", TOL)
    copied = check_presolution(a_mats, [a_mats[0].copy()], rows, rows, "sus", TOL)
    assert_same_answer(shared, copied)


def test_failed_read_off_is_an_internal_inconsistency(monkeypatch):
    rows = Partition((1, 1))
    a_mats = [np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.complex128)]
    monkeypatch.setattr(structure, "_SQUARE", (lambda c, tol, ctx: None,) + structure._SQUARE[1:])
    with pytest.raises(InternalInconsistency, match="singleton cell"):
        check_presolution(a_mats, a_mats, rows, rows, "sus", TOL)


def pairwise_pool(seed):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        kind = module.PAIRWISE
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
    for inst in pairwise_pool(101):
        assert solver.solve(inst).status == "not_similar"
    assert passed_shared and all(passed_shared)
    assert gram_tests == 0
