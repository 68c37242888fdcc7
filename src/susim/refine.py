"""One refinement step of the similarity and equivalence solvers.

A :class:`~susim.structure.Violation` names a Hermitian or normal matrix
derived from one cell of the A collection.  Any solution unitary must
intertwine that matrix with its B-side counterpart, so their grouped
spectra must agree; if they do not, the instance is unsolvable and the two
signatures are the disproof.  If they agree, conjugating both sides by the
respective diagonalizers and splitting the touched class by the eigenvalue
multiplicities strictly refines the partition while preserving solvability
in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blocking import Partition, assemble_blockdiag, submatrix
from .errors import InternalInconsistency, NumericalFailure
from .graph import PathData, PrPaths, endpoints
from .linalg import (
    Matrix,
    Tolerances,
    adjoint,
    eig_hermitian,
    eig_normal,
    fro,
    groups_match,
)
from .structure import GRAM_LEFT, GRAM_RIGHT, HERM_IMAG, HERM_REAL, PR_NORMAL, Violation

__all__ = ["RefinementStep", "RefineOutcome", "functional_pair", "apply_refinement"]


@dataclass(frozen=True)
class RefinementStep:
    """Record of one refinement: the recipe plus both grouped spectra."""

    functional: str
    at: tuple[int, int, int]
    touch: tuple[str, int]
    groups_a: tuple[tuple[complex, int], ...]
    groups_b: tuple[tuple[complex, int], ...]
    pr_paths: PrPaths | None = None


@dataclass
class RefineOutcome:
    """Either a refined problem or a spectral disproof."""

    status: str
    step: RefinementStep
    a_mats: list[Matrix] | None = None
    b_mats: list[Matrix] | None = None
    rows: Partition | None = None
    cols: Partition | None = None
    y: Matrix | None = None
    z: Matrix | None = None


def _pr_matrix(
    mats: list[Matrix],
    rows: Partition,
    cols: Partition,
    mode: str,
    at: tuple[int, int, int],
    paths: dict,
    amps: dict,
) -> Matrix:
    l, i, j = at
    row_end, col_end = endpoints(mode, i, j)
    cell = submatrix(mats[l], rows, i, cols, j)
    pc = paths[col_end]
    return paths[row_end] @ cell @ (adjoint(pc) / (amps[col_end] ** 2))


def functional_pair(
    a_mats: list[Matrix],
    b_mats: list[Matrix],
    rows: Partition,
    cols: Partition,
    mode: str,
    violation: Violation,
    paths: PathData | None = None,
) -> tuple[Matrix, Matrix, float, float, str]:
    """The two matrices a violation compares, their eigencontext scales,
    and whether they are Hermitian or merely normal."""
    l, i, j = violation.at
    ca = submatrix(a_mats[l], rows, i, cols, j)
    cb = submatrix(b_mats[l], rows, i, cols, j)
    ctx_a, ctx_b = fro(a_mats[l]), fro(b_mats[l])
    f = violation.functional
    if f == HERM_REAL:
        return (ca + adjoint(ca)) / 2.0, (cb + adjoint(cb)) / 2.0, ctx_a, ctx_b, "hermitian"
    if f == HERM_IMAG:
        return (ca - adjoint(ca)) / 2.0j, (cb - adjoint(cb)) / 2.0j, ctx_a, ctx_b, "hermitian"
    if f == GRAM_LEFT:
        return ca @ adjoint(ca), cb @ adjoint(cb), ctx_a**2, ctx_b**2, "hermitian"
    if f == GRAM_RIGHT:
        return adjoint(ca) @ ca, adjoint(cb) @ cb, ctx_a**2, ctx_b**2, "hermitian"
    if f == PR_NORMAL:
        if paths is None:
            raise InternalInconsistency("path data is required for a pr refinement")
        s = _pr_matrix(a_mats, rows, cols, mode, violation.at, paths.paths_a, paths.amps_a)
        r = _pr_matrix(b_mats, rows, cols, mode, violation.at, paths.paths_b, paths.amps_b)
        return s, r, 0.0, 0.0, "normal"
    raise InternalInconsistency(f"unknown functional {f!r}")


def apply_refinement(
    a_mats: list[Matrix],
    b_mats: list[Matrix],
    rows: Partition,
    cols: Partition,
    mode: str,
    violation: Violation,
    tol: Tolerances,
    paths: PathData | None = None,
) -> RefineOutcome:
    """Resolve one violation: spectral disproof or a strictly finer problem."""
    s, r, ctx_a, ctx_b, kind = functional_pair(a_mats, b_mats, rows, cols, mode, violation, paths)
    eig = eig_hermitian if kind == "hermitian" else eig_normal
    dec_a = eig(s, tol, context_scale=ctx_a)
    dec_b = eig(r, tol, context_scale=ctx_b)

    pr_paths: PrPaths | None = None
    if violation.functional == PR_NORMAL:
        pr_paths = paths.cell_paths(mode, violation.at[1], violation.at[2])
    step = RefinementStep(
        violation.functional, violation.at, violation.touch, dec_a.groups, dec_b.groups, pr_paths
    )

    scale = max(fro(s), fro(r), ctx_a, ctx_b)
    if not groups_match(dec_a.groups, dec_b.groups, tol, scale):
        return RefineOutcome("mismatch", step)

    if len(dec_a.groups) == 1:
        raise NumericalFailure(
            "refinement at cell "
            f"{violation.at} cannot split a class: the spectra agree within the "
            "grouping tolerance although the form check failed at the comparison "
            "tolerance; the instance sits between the two tolerances"
        )

    axis, t = violation.touch
    part = rows if axis == "row" else cols
    y = assemble_blockdiag(part, {t: dec_a.diagonalizer})
    z = assemble_blockdiag(part, {t: dec_b.diagonalizer})
    new_part = part.refine(t, [m for _, m in dec_a.groups])

    if mode == "sus":
        new_a = [y @ m @ adjoint(y) for m in a_mats]
        new_b = [z @ m @ adjoint(z) for m in b_mats]
        new_rows = new_cols = new_part
    elif axis == "row":
        new_a = [y @ m for m in a_mats]
        new_b = [z @ m for m in b_mats]
        new_rows, new_cols = new_part, cols
    else:
        new_a = [m @ adjoint(y) for m in a_mats]
        new_b = [m @ adjoint(z) for m in b_mats]
        new_rows, new_cols = rows, new_part
    return RefineOutcome("refined", step, new_a, new_b, new_rows, new_cols, y, z)
