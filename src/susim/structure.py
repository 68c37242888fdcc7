"""Structural form check for partitioned matrix collections.

Both sides of a problem are repeatedly conjugated so that, relative to the
current row and column partitions, each cell passes the rule of its kind:

=====================  =================  =========================
cell                   form               functional pair
=====================  =================  =========================
diagonal (similarity)  identity multiple  ``herm_real, herm_imag``
other square           unitary multiple   ``gram_left, gram_right``
non-square             zero               ``gram_left, gram_right``
=====================  =================  =========================

with the same diagonal scalar, and the same squared amplitude ``r`` of a
square cell, on both sides.  In equivalence mode no cell is diagonal.

:func:`check_presolution` scans all cells in a fixed order (matrix index
``l`` outer, then row class, then column class, A side before B side) and
returns what it found.  A passing scan returns the :class:`SolutionForm`:
the diagonal scalars, and the squared amplitude of every square cell off
the similarity diagonal whose amplitude is positive on both sides; these
cells are the edges of the class graph.  Otherwise it returns the first
deviation, either a :class:`ScalarMismatch` (two scalars that should agree
do not, which is already a disproof) or a :class:`Violation` carrying a
functional of the deviating cell on both sides, whose eigenspaces will
drive the next refinement: the first of the cell's pair unless that one is
scalar on the failing side, and ``gram_left`` for unequal amplitudes.  The
four cell functionals are defined here once, under the names that
:mod:`susim.model` gives every recorded step.  Sharing is per matrix: a
B-side matrix that is the A-side matrix itself, as in the self-paired run
behind the canonical features or a pair that the solver found equal bit
for bit, is read and tested once, and a deviation on it carries one
functional matrix for both sides.  Each pair the scan reaches gets one
:func:`~susim.blocking.cell_sums` pass over each side's squared moduli
(one in all for a shared matrix), which gives every cell's squared norm,
and the cells that cannot deviate are skipped.  A cell off the similarity
diagonal whose norm is below the ``is_zero`` threshold of each side,
``cmp * (1 + ‖A_l‖)`` and ``cmp * (1 + ‖B_l‖)``, by a relative margin of
1e-9 is zero on both and records nothing.  The margin covers the
rounding between the pass's sum and :func:`~susim.linalg.fro`, so the
scan's answer stays, bit for bit, the one a cell-by-cell scan gives.  A
finite 1x1 cell passes its test at any context, and its scalar equals
itself; a shared matrix skips these cells too, and once the scan has
passed, reads them off its pass, where a one-entry cell's sum is its
``|c|²`` bit for bit, so the values are those the two predicates return.
An unshared pair still tests its 1x1 cells, and under a single
similarity class, with no cell off the diagonal, it gets no pass.  The
form holds arrays indexed by matrix and class, so array order is scan
order and the order :mod:`susim.graph` reads edges in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocking import Partition, cell_sums, submatrix
from .linalg import (
    Matrix,
    Tolerances,
    adjoint,
    close_scalars,
    fro,
    identity_multiple,
    is_zero,
    unitary_multiple,
)
from .model import GRAM_LEFT, GRAM_RIGHT, HERM_IMAG, HERM_REAL, PrPaths

__all__ = ["Violation", "ScalarMismatch", "SolutionForm", "check_presolution"]


@dataclass(frozen=True, eq=False)
class Violation:
    """A cell that breaks the expected form, with its functional pair.

    ``functional`` names the Hermitian (or normal) matrix derived from the
    cell whose eigenspaces refine the partition; ``s`` and ``r`` are that
    matrix on the A and the B side, and ``ctx_a``/``ctx_b`` their eigen-context
    scales.  ``touch`` is the partition class it refines, as an axis/class
    pair; in similarity mode the row and column axes address the same
    partition.  A holonomy functional also carries the edge steps of its
    two path products in ``pr_paths``.
    """

    functional: str
    at: tuple[int, int, int]
    touch: tuple[str, int]
    s: Matrix
    r: Matrix
    ctx_a: float = 0.0
    ctx_b: float = 0.0
    pr_paths: PrPaths | None = None


@dataclass(frozen=True)
class ScalarMismatch:
    """Two scalars forced to be equal by any solution, found unequal."""

    target: str
    at: tuple[int, int, int]
    a_value: complex
    b_value: complex
    pr_paths: PrPaths | None = None


@dataclass(frozen=True, eq=False)
class SolutionForm:
    """What a passing scan reads off, as arrays indexed by matrix ``l`` and
    class: ``diag_alphas[l, i]``, the diagonal scalar of class ``i`` (no
    column in equivalence mode), and ``cell_scales_a[l, i, j]`` and
    ``cell_scales_b[l, i, j]``, the squared amplitudes of the edge cells on
    each side, zero on every other cell."""

    diag_alphas: np.ndarray
    cell_scales_a: np.ndarray
    cell_scales_b: np.ndarray


# Cell functional: (Hermitian matrix read off the cell, power of ``||A_l||``
# that is its eigen-context scale, axis of the class it refines).
_FUNCTIONALS = {
    HERM_REAL: (lambda c: (c + adjoint(c)) / 2.0, 1, "row"),
    HERM_IMAG: (lambda c: (c - adjoint(c)) / 2.0j, 1, "row"),
    GRAM_LEFT: (lambda c: c @ adjoint(c), 2, "row"),
    GRAM_RIGHT: (lambda c: adjoint(c) @ c, 2, "col"),
}


def _violation(
    functional: str, at: tuple[int, int, int], ca: Matrix, cb: Matrix, ctx_a: float, ctx_b: float
) -> Violation:
    """The deviation at cell ``at``, with its functional pair."""
    f, power, axis = _FUNCTIONALS[functional]
    s = f(ca)
    r = s if cb is ca else f(cb)
    _, i, j = at
    touch = (axis, i if axis == "row" else j)
    return Violation(functional, at, touch, s, r, ctx_a**power, ctx_b**power)


# Cell rule: (form test, which returns the cell's scalar or None, and the
# functional pair a cell that fails it picks from).  A zero cell's scalar is 0.
_DIAGONAL = (identity_multiple, HERM_REAL, HERM_IMAG)
_SQUARE = (unitary_multiple, GRAM_LEFT, GRAM_RIGHT)
_NON_SQUARE = (lambda c, tol, ctx: 0.0 if is_zero(c, tol, ctx) else None, GRAM_LEFT, GRAM_RIGHT)


def _choice(first: str, second: str, cell: Matrix, ctx: float, tol: Tolerances) -> str:
    """The first functional of a failing cell's pair, or the second where the
    first is scalar on the cell, which forces the second to be non-scalar."""
    f, power, _ = _FUNCTIONALS[first]
    if identity_multiple(f(cell), tol, ctx * ctx if power == 2 else ctx) is None:
        return first
    return second


# A cell whose kernel norm is below the ``is_zero`` threshold by this
# relative margin is zero to ``is_zero`` too.  The kernel adds the cell's k
# squares in another order than ``fro``, which moves the norm by at most
# about k machine epsilons relative: 1e-9 is ample for cells of up to
# millions of entries.  Below a threshold of about 1e-150 the squares of
# entries near it are subnormal and that bound is lost, so no cell is
# skipped there.
_ZERO_MARGIN = 1e-9
_LEAST_THRESHOLD = 1e-150


def _proven_zero(
    m: Matrix, rows: Partition, cols: Partition, tol: Tolerances, ctx: float
) -> tuple[np.ndarray, np.ndarray]:
    """Every cell's squared norm, from one :func:`~susim.blocking.cell_sums`
    pass over ``m``'s squared moduli, and which cells it proves zero: those
    whose norm is below the ``is_zero`` threshold at context ``ctx`` by the
    margin."""
    threshold = tol.cmp * (1.0 + ctx)
    bound = threshold * (1.0 - _ZERO_MARGIN) if threshold > _LEAST_THRESHOLD else 0.0
    with np.errstate(over="ignore"):
        # An overflowing cell reads inf: not proven zero, so it is tested.
        sq = cell_sums(m.real * m.real + m.imag * m.imag, rows, cols)
    return sq, np.sqrt(sq) < bound


def _tested_cells(
    a: Matrix,
    b: Matrix,
    rows: Partition,
    cols: Partition,
    mode: str,
    tol: Tolerances,
    ctx_a: float,
    ctx_b: float,
) -> tuple[list[list[int]], np.ndarray | None]:
    """The cells ``[i, j]`` of the pair ``(a, b)`` that the scan tests, in
    scan order, and every cell's squared norm on the A side, from one
    :func:`~susim.blocking.cell_sums` pass per side (one for a shared
    matrix).  A cell off the similarity diagonal that each side proves zero
    at its own norm passes its test and records nothing, so it is skipped,
    as are the 1x1 cells of a shared matrix.  An unshared pair with one
    similarity class has no cell to skip and gets no pass."""
    if b is not a and mode == "sus" and rows.count == 1:
        return [[0, 0]], None
    sq, zero = _proven_zero(a, rows, cols, tol, ctx_a)
    if b is not a:
        zero &= _proven_zero(b, rows, cols, tol, ctx_b)[1]
    if mode == "sus":
        np.fill_diagonal(zero, False)
    if b is a:
        # An unshared pair still tests its 1x1 cells.  Read off, they make a
        # dense solve several times faster, and the benchmark's gate, which
        # caches every document it reads, reports the extra rounds as memory
        # growth; this waits on that fix (ROADMAP items 1 and 2).
        zero |= np.equal(rows.sizes, 1)[:, None] & np.equal(cols.sizes, 1)
    return np.argwhere(~zero).tolist(), sq


def check_presolution(
    a_mats: list[Matrix],
    b_mats: list[Matrix],
    rows: Partition,
    cols: Partition,
    mode: str,
    tol: Tolerances,
) -> SolutionForm | Violation | ScalarMismatch:
    """Scan both collections for the expected block structure.

    ``mode`` is ``"sus"`` (similarity, one shared partition) or ``"sueq"``
    (equivalence, independent partitions).  Returns the first deviation in
    scan order, or the :class:`SolutionForm` of a passing scan.
    """
    if mode not in ("sus", "sueq"):
        raise ValueError(f"unknown mode {mode!r}")
    p = len(a_mats)
    diag_alphas = np.zeros((p, rows.count if mode == "sus" else 0), dtype=np.complex128)
    scales_a = np.zeros((p, rows.count, cols.count))
    scales_b = np.zeros((p, rows.count, cols.count))
    # Shared matrices and their cells' squared norms, read off after a pass.
    shared: list[tuple[int, Matrix, np.ndarray, float]] = []
    for l, (a, b) in enumerate(zip(a_mats, b_mats)):
        same = b is a
        ctx_a = fro(a)
        ctx_b = ctx_a if same else fro(b)
        ctx = max(ctx_a, ctx_b)
        visit, sq = _tested_cells(a, b, rows, cols, mode, tol, ctx_a, ctx_b)
        if same:
            shared.append((l, a, sq, ctx_a))
        for i, j in visit:
            square = rows.sizes[i] == cols.sizes[j]
            ca = submatrix(a, rows, i, cols, j)
            cb = ca if same else submatrix(b, rows, i, cols, j)
            at = (l, i, j)
            rule = _DIAGONAL if mode == "sus" and i == j else _SQUARE if square else _NON_SQUARE
            test, first, second = rule
            va = test(ca, tol, ctx_a)
            vb = va if same or va is None else test(cb, tol, ctx_b)
            if va is None or vb is None:
                cell, cell_ctx = (ca, ctx_a) if va is None else (cb, ctx_b)
                functional = _choice(first, second, cell, cell_ctx, tol)
                return _violation(functional, at, ca, cb, ctx_a, ctx_b)
            if rule is _DIAGONAL:
                if not close_scalars(va, vb, tol, context=ctx):
                    return ScalarMismatch("diag_alpha", at, va, vb)
                diag_alphas[(l, i)] = va
            elif rule is _SQUARE:
                if not close_scalars(va, vb, tol, context=ctx * ctx):
                    return _violation(GRAM_LEFT, at, ca, cb, ctx_a, ctx_b)
                if va > 0.0 and vb > 0.0:
                    scales_a[at] = va
                    scales_b[at] = vb
    singletons = np.equal(rows.sizes, 1)
    single = singletons[:, None] & np.equal(cols.sizes, 1)
    entry = np.take(rows.offsets, np.flatnonzero(singletons))
    for l, a, sq, ctx in shared:
        with np.errstate(over="ignore"):
            # What unitary_multiple returns on a 1x1 cell, whose sum is |c|^2:
            # 0 within tolerance, else the mean of its two Gram scalars, both r.
            r = np.where(np.sqrt(sq) <= tol.cmp * (1.0 + ctx), 0.0, sq / 2.0 + sq / 2.0)
        if mode == "sus":
            # What identity_multiple returns: a trace, whose sum turns -0.0 into 0.0.
            diag_alphas[l, singletons] = a[entry, entry] + 0.0
            np.fill_diagonal(r, 0.0)
        np.copyto(scales_a[l], r, where=single)
        np.copyto(scales_b[l], r, where=single)
    return SolutionForm(diag_alphas, scales_a, scales_b)
