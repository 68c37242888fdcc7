"""Structural form check for partitioned matrix collections.

Both sides of a problem are repeatedly conjugated so that, relative to the
current row and column partitions, every matrix should look like this:

* similarity mode: diagonal cells are scalar multiples of the identity with
  the same scalar on both sides; every other square cell is a scalar
  multiple of a unitary with the same squared amplitude ``r`` on both
  sides; non-square cells are zero,
* equivalence mode: the same without the diagonal rule because every cell
  relates a row class to a column class.

:func:`check_presolution` scans all cells in a fixed order (matrix index
``l`` outer, then row class, then column class, A side before B side) and
returns what it found.  A passing scan returns the :class:`SolutionForm`:
the diagonal scalars, and the squared amplitude of every square cell off
the similarity diagonal whose amplitude is positive on both sides; these
cells are the edges of the class graph.  Otherwise it returns the first
deviation, either a :class:`ScalarMismatch` (two scalars that should agree
do not, which is already a disproof) or a :class:`Violation` carrying the
Hermitian functional of the deviating cell on both sides, whose eigenspaces
will drive the next refinement.  The four cell functionals are defined here
once.  A B-side matrix that is the A-side matrix itself, as in the
self-paired run behind the canonical features or a pair that the solver
found equal bit for bit, is read and tested once, and a deviation on it
carries one functional matrix for both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .blocking import Partition, submatrix
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


def _gram_choice(cell: Matrix, ctx: float, tol: Tolerances) -> str:
    """Pick the Gram functional that actually separates eigenvalues.

    The left Gram ``M M*`` refines the row class, the right Gram ``M* M``
    the column class.  Prefer the left one unless it is itself a scalar
    matrix, which for a nonzero non-square cell forces the right one to be
    non-scalar.
    """
    if identity_multiple(_FUNCTIONALS[GRAM_LEFT][0](cell), tol, ctx * ctx) is None:
        return GRAM_LEFT
    return GRAM_RIGHT


def _diag_choice(cell: Matrix, ctx: float, tol: Tolerances) -> str:
    """Pick the Hermitian part of a non-scalar diagonal cell that is non-scalar."""
    if identity_multiple(_FUNCTIONALS[HERM_REAL][0](cell), tol, ctx) is None:
        return HERM_REAL
    return HERM_IMAG


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
                if mode == "sus" and i == j:
                    alpha_a = identity_multiple(ca, tol, ctx_a)
                    if alpha_a is None:
                        return _violation(_diag_choice(ca, ctx_a, tol), at, ca, cb, ctx_a, ctx_b)
                    alpha_b = alpha_a if same else identity_multiple(cb, tol, ctx_b)
                    if alpha_b is None:
                        return _violation(_diag_choice(cb, ctx_b, tol), at, ca, cb, ctx_a, ctx_b)
                    if not close_scalars(alpha_a, alpha_b, tol, context=ctx):
                        return ScalarMismatch("diag_alpha", at, alpha_a, alpha_b)
                    diag_alphas[(l, i)] = alpha_a
                elif square:
                    ra = unitary_multiple(ca, tol, ctx_a)
                    if ra is None:
                        return _violation(_gram_choice(ca, ctx_a, tol), at, ca, cb, ctx_a, ctx_b)
                    rb = ra if same else unitary_multiple(cb, tol, ctx_b)
                    if rb is None:
                        return _violation(_gram_choice(cb, ctx_b, tol), at, ca, cb, ctx_a, ctx_b)
                    if not close_scalars(ra, rb, tol, context=ctx * ctx):
                        return _violation(GRAM_LEFT, at, ca, cb, ctx_a, ctx_b)
                    if ra > 0.0 and rb > 0.0:
                        scales_a[at] = ra
                        scales_b[at] = rb
                else:
                    if not is_zero(ca, tol, ctx_a):
                        return _violation(_gram_choice(ca, ctx_a, tol), at, ca, cb, ctx_a, ctx_b)
                    if not same and not is_zero(cb, tol, ctx_b):
                        return _violation(_gram_choice(cb, ctx_b, tol), at, ca, cb, ctx_a, ctx_b)
    return SolutionForm(diag_alphas, scales_a, scales_b)
