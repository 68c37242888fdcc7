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
returns the first deviation.  A passing scan records the squared amplitude
of every square cell off the similarity diagonal whose amplitude is
positive on both sides; these cells are the edges of the class graph.  A
deviation is either a :class:`ScalarMismatch` (two scalars that should
agree do not, which is already a disproof) or a :class:`Violation` carrying
the Hermitian functional of the deviating cell on both sides, whose
eigenspaces will drive the next refinement.  The four cell functionals are
defined here once.  A B-side matrix that is the A-side matrix itself, as in
the self-paired run behind the canonical features or a pair that the solver
found equal bit for bit, is read and tested once, and a deviation on it
carries one functional matrix for both sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    "PreSolutionReport",
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
class PreSolutionReport:
    """Outcome of the form scan plus the data read off when it passes."""

    status: str
    violation: Violation | None = None
    mismatch: ScalarMismatch | None = None
    diag_alphas: dict[tuple[int, int], complex] = field(default_factory=dict)
    cell_scales_a: dict[tuple[int, int, int], float] = field(default_factory=dict)
    cell_scales_b: dict[tuple[int, int, int], float] = field(default_factory=dict)


# The four cell functionals, each a Hermitian matrix read off a cell.  The
# eigen-context scale of a Gram functional is the squared matrix norm.
_FUNCTIONALS = {
    HERM_REAL: lambda c: (c + adjoint(c)) / 2.0,
    HERM_IMAG: lambda c: (c - adjoint(c)) / 2.0j,
    GRAM_LEFT: lambda c: c @ adjoint(c),
    GRAM_RIGHT: lambda c: adjoint(c) @ c,
}
# A functional name and the partition class it refines.
_Choice = tuple[str, tuple[str, int]]


def _violation(
    choice: _Choice, at: tuple[int, int, int], ca: Matrix, cb: Matrix, ctx_a: float, ctx_b: float
) -> PreSolutionReport:
    """The report of a deviation at cell ``at``, with its functional pair."""
    functional, touch = choice
    if functional in (GRAM_LEFT, GRAM_RIGHT):
        ctx_a, ctx_b = ctx_a**2, ctx_b**2
    f = _FUNCTIONALS[functional]
    s = f(ca)
    r = s if cb is ca else f(cb)
    return PreSolutionReport(
        "violation", violation=Violation(functional, at, touch, s, r, ctx_a, ctx_b)
    )


def _gram_choice(cell: Matrix, ctx: float, tol: Tolerances, i: int, j: int) -> _Choice:
    """Pick the Gram functional that actually separates eigenvalues.

    The left Gram ``M M*`` refines the row class, the right Gram ``M* M``
    the column class.  Prefer the left one unless it is itself a scalar
    matrix, which for a nonzero non-square cell forces the right one to be
    non-scalar.  Returns the functional and the class it touches.
    """
    if identity_multiple(_FUNCTIONALS[GRAM_LEFT](cell), tol, ctx * ctx) is None:
        return GRAM_LEFT, ("row", i)
    return GRAM_RIGHT, ("col", j)


def _diag_choice(cell: Matrix, ctx: float, tol: Tolerances, i: int) -> _Choice:
    """Pick the Hermitian part of a non-scalar diagonal cell that is non-scalar."""
    if identity_multiple(_FUNCTIONALS[HERM_REAL](cell), tol, ctx) is None:
        return HERM_REAL, ("row", i)
    return HERM_IMAG, ("row", i)


def check_presolution(
    a_mats: list[Matrix],
    b_mats: list[Matrix],
    rows: Partition,
    cols: Partition,
    mode: str,
    tol: Tolerances,
) -> PreSolutionReport:
    """Scan both collections for the expected block structure.

    ``mode`` is ``"sus"`` (similarity, one shared partition) or ``"sueq"``
    (equivalence, independent partitions).  Returns the first deviation in
    scan order, or a passing report carrying the diagonal scalars and the
    squared amplitudes of the nonzero square cells on each side.
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
                        return _violation(_diag_choice(ca, ctx_a, tol, i), at, ca, cb, ctx_a, ctx_b)
                    alpha_b = alpha_a if same else identity_multiple(cb, tol, ctx_b)
                    if alpha_b is None:
                        return _violation(_diag_choice(cb, ctx_b, tol, i), at, ca, cb, ctx_a, ctx_b)
                    if not close_scalars(alpha_a, alpha_b, tol, context=ctx):
                        return PreSolutionReport(
                            "mismatch", mismatch=ScalarMismatch("diag_alpha", at, alpha_a, alpha_b)
                        )
                    diag_alphas[(l, i)] = alpha_a
                elif square:
                    ra = unitary_multiple(ca, tol, ctx_a)
                    if ra is None:
                        return _violation(_gram_choice(ca, ctx_a, tol, i, j), at, ca, cb, ctx_a, ctx_b)
                    rb = ra if same else unitary_multiple(cb, tol, ctx_b)
                    if rb is None:
                        return _violation(_gram_choice(cb, ctx_b, tol, i, j), at, ca, cb, ctx_a, ctx_b)
                    if not close_scalars(ra, rb, tol, context=ctx * ctx):
                        return _violation((GRAM_LEFT, ("row", i)), at, ca, cb, ctx_a, ctx_b)
                    if ra > 0.0 and rb > 0.0:
                        scales_a[at] = ra
                        scales_b[at] = rb
                else:
                    if not is_zero(ca, tol, ctx_a):
                        return _violation(_gram_choice(ca, ctx_a, tol, i, j), at, ca, cb, ctx_a, ctx_b)
                    if not same and not is_zero(cb, tol, ctx_b):
                        return _violation(_gram_choice(cb, ctx_b, tol, i, j), at, ca, cb, ctx_a, ctx_b)
    return PreSolutionReport(
        "ok",
        diag_alphas=diag_alphas,
        cell_scales_a=scales_a,
        cell_scales_b=scales_b,
    )
