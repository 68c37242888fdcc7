"""One refinement step of the similarity and equivalence solvers.

A :class:`~susim.structure.Violation` carries a Hermitian or normal matrix
derived from one cell of the A collection together with its B-side
counterpart, both built where the form scan or the holonomy check found the
deviation.  Any solution unitary must intertwine the two, so their grouped
spectra must agree; if they do not, the instance is unsolvable and the two
signatures, recorded in the step's :class:`~susim.model.RefinementStep`,
are the disproof.  If they agree, conjugating both sides by the
respective diagonalizers and splitting the touched class by the eigenvalue
multiplicities strictly refines the partition while preserving solvability
in both directions.  Only the touched class's rows and columns change.  A
functional pair that is one matrix is eigensolved once.  Sharing is kept
per matrix: when both diagonalizers are one matrix, a B-side matrix that
is its A-side matrix itself comes out as the conjugated A-side matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blocking import Partition, apply_blocks
from .errors import NumericalFailure
from .linalg import (
    Matrix,
    Tolerances,
    eig_hermitian,
    eig_normal,
    fro,
    groups_match,
)
from .model import PR_NORMAL, RefinementStep
from .structure import Violation

__all__ = ["RefineOutcome", "apply_refinement"]


@dataclass
class RefineOutcome:
    """Either a refined problem or a spectral disproof; ``y`` and ``z`` are the
    A-side and B-side diagonalizers of the touched class, not n x n matrices."""

    status: str
    step: RefinementStep
    a_mats: list[Matrix] | None = None
    b_mats: list[Matrix] | None = None
    rows: Partition | None = None
    cols: Partition | None = None
    y: Matrix | None = None
    z: Matrix | None = None


def apply_refinement(
    a_mats: list[Matrix],
    b_mats: list[Matrix],
    rows: Partition,
    cols: Partition,
    mode: str,
    violation: Violation,
    tol: Tolerances,
) -> RefineOutcome:
    """Eigensolve a violation's functional pair: spectral disproof or a strictly finer problem."""
    s, r, ctx_a, ctx_b = violation.s, violation.r, violation.ctx_a, violation.ctx_b
    eig = eig_normal if violation.functional == PR_NORMAL else eig_hermitian
    dec_a = eig(s, tol, context_scale=ctx_a)
    dec_b = dec_a if r is s else eig(r, tol, context_scale=ctx_b)
    step = RefinementStep(
        violation.functional, violation.at, violation.touch, dec_a.groups, dec_b.groups,
        violation.pr_paths,
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
    new_part = part.refine(t, [m for _, m in dec_a.groups])
    y, z = dec_a.diagonalizer, dec_b.diagonalizer
    left, right = mode == "sus" or axis == "row", mode == "sus" or axis == "col"
    new_a = [apply_blocks(m, part, {t: y}, left=left, right=right) for m in a_mats]
    new_b = [
        na if z is y and b is a else apply_blocks(b, part, {t: z}, left=left, right=right)
        for a, b, na in zip(a_mats, b_mats, new_a)
    ]
    new_rows = new_part if left else rows
    new_cols = new_part if right else cols
    return RefineOutcome("refined", step, new_a, new_b, new_rows, new_cols, y, z)
