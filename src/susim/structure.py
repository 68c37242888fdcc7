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
four cell functionals are defined here once.  Sharing is per matrix: a
B-side matrix that is the A-side matrix itself, as in the self-paired run
behind the canonical features or a pair that the solver found equal bit
for bit, is read and tested once, and a deviation on it carries one
functional matrix for both sides.  Its 1x1 cells cannot deviate: a finite
1x1 cell passes its test at any context, and its scalar equals itself, so
they are read off only once the whole scan has passed.  The form's dicts
are in key order, which is scan order and the order :mod:`susim.graph`
reads edges in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .blocking import Partition, submatrix
from .errors import InternalInconsistency
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

if TYPE_CHECKING:
    from .graph import PrPaths

__all__ = [
    "Violation",
    "ScalarMismatch",
    "SolutionForm",
    "check_presolution",
    "HERM_REAL",
    "HERM_IMAG",
    "GRAM_LEFT",
    "GRAM_RIGHT",
    "PR_NORMAL",
]

HERM_REAL = "herm_real"
HERM_IMAG = "herm_imag"
GRAM_LEFT = "gram_left"
GRAM_RIGHT = "gram_right"
PR_NORMAL = "pr_normal"


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


@dataclass(frozen=True)
class SolutionForm:
    """What a passing scan reads off: the diagonal scalars by matrix and
    class, and the squared amplitudes of the edge cells on each side."""

    diag_alphas: dict[tuple[int, int], complex]
    cell_scales_a: dict[tuple[int, int, int], float]
    cell_scales_b: dict[tuple[int, int, int], float]


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
    diag_alphas: dict[tuple[int, int], complex] = {}
    scales_a: dict[tuple[int, int, int], float] = {}
    scales_b: dict[tuple[int, int, int], float] = {}
    # Singleton cells of shared matrices, read off once the scan has passed.
    deferred: list[tuple[tuple[int, int, int], tuple, Matrix, float]] = []
    for l, (a, b) in enumerate(zip(a_mats, b_mats)):
        same = b is a
        ctx_a = fro(a)
        ctx_b = ctx_a if same else fro(b)
        ctx = max(ctx_a, ctx_b)
        for i in range(rows.count):
            for j in range(cols.count):
                ca = submatrix(a, rows, i, cols, j)
                cb = ca if same else submatrix(b, rows, i, cols, j)
                square = rows.sizes[i] == cols.sizes[j]
                at = (l, i, j)
                rule = _DIAGONAL if mode == "sus" and i == j else _SQUARE if square else _NON_SQUARE
                if same and square and rows.sizes[i] == 1:
                    deferred.append((at, rule, ca, ctx_a))
                    continue
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
    for at, rule, cell, cell_ctx in deferred:
        v = rule[0](cell, tol, cell_ctx)
        if v is None:
            raise InternalInconsistency(f"singleton cell {at} of a shared matrix fails its form test")
        if rule is _DIAGONAL:
            diag_alphas[at[:2]] = v
        elif v > 0.0:
            scales_a[at] = scales_b[at] = v
    if deferred:
        # Key order (l, i, j) is scan order.
        diag_alphas, scales_a, scales_b = (
            dict(sorted(d.items())) for d in (diag_alphas, scales_a, scales_b)
        )
    return SolutionForm(diag_alphas, scales_a, scales_b)
