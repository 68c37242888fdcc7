"""Decision procedures for simultaneous unitary similarity and equivalence.

The solver alternates a structural scan with refinements.  Each stage
returns what it found.  The scan returns the solution form, in which the
holonomy of every edge cell is then checked, or its first deviation; a
forced scalar (:class:`~susim.structure.ScalarMismatch`) or spectral
(:class:`~susim.model.RefinementStep`) disagreement ends the run with a
certificate, and any other deviation conjugates both sides and strictly
refines the partition.
Since a partition of ``n`` indices refines at most ``n - 1`` times, the
loop runs at most ``n`` passes in similarity mode and ``m + n`` passes in
equivalence mode.

On success the witnesses are assembled from the path products and verified
against the original input; a residual above the acceptance tolerance is
reported as a failure rather than a solution.
"""

from __future__ import annotations

import math
from collections.abc import Generator
from dataclasses import dataclass

import numpy as np

from .blocking import Partition, apply_blocks
from .errors import DimensionMismatch, InternalInconsistency, SusimError
from .graph import PathData, build_paths, check_pr
from .linalg import DEFAULT_TOLERANCES, Matrix, Tolerances, adjoint, as_matrix, fro
from .model import FAILED, NOT_SIMILAR, SOLVED, Certificate, Instance, RefinementStep, SolveResult
from .refine import RefineOutcome, apply_refinement
from .structure import ScalarMismatch, SolutionForm, check_presolution

__all__ = ["solve", "solve_sus", "solve_sueq", "witness_residual"]


def witness_residual(
    a_mats: list[Matrix],
    b_mats: list[Matrix],
    mode: str,
    u: Matrix,
    v: Matrix | None = None,
) -> float:
    """Worst normalized deviation of a claimed witness.

    Covers unitarity of both factors and the mapping property for every
    matrix pair, each relative to ``1 + ||A_l||``.  A term that is not
    finite, as when ``||A_l||`` overflows, makes the residual infinite.
    Raises :class:`~susim.errors.DimensionMismatch` unless ``u`` is
    ``m x m`` and, in equivalence mode, ``v`` is ``n x n``.
    """
    m, n = a_mats[0].shape
    right = u if mode == "sus" else v
    terms = []
    for name, x, k in (("u", u, m),) if mode == "sus" else (("u", u, m), ("v", v, n)):
        if np.shape(x) != (k, k):
            got = "missing" if x is None else f"of shape {np.shape(x)}"
            raise DimensionMismatch(f"witness {name} is {got}, the collections need {k} x {k}")
        terms.append(fro(x @ adjoint(x) - np.eye(k)) / np.sqrt(k))
    terms.extend(fro(u @ a @ adjoint(right) - b) / (1.0 + fro(a)) for a, b in zip(a_mats, b_mats))
    return max(terms) if all(map(math.isfinite, terms)) else math.inf


def _assemble_solution(
    paths: PathData, parts: dict[str, Partition], bases: dict[str, tuple[Matrix, Matrix]]
) -> dict[str, Matrix]:
    """Each axis's witness: the blockwise ratio of the path products, applied
    to the axis's A-side basis and taken back through its B-side basis."""
    ratios = [
        (adjoint(pb) / (amp * amp)) @ pa
        for pa, pb, amp in zip(paths.paths_a, paths.paths_b, paths.amps_b)
    ]
    k = parts["row"].count  # the row classes are the first vertices
    blocks = {"row": dict(enumerate(ratios[:k])), "col": dict(enumerate(ratios[k:]))}
    return {
        axis: adjoint(z) @ apply_blocks(y, parts[axis], blocks[axis], left=True, right=False)
        for axis, (y, z) in bases.items()
    }


@dataclass(frozen=True)
class _Solution:
    """The final form of a run: its partitions, the passing scan, the path
    data and the holonomy scalar of every edge, in the form's array order."""

    rows: Partition
    cols: Partition
    form: SolutionForm
    paths: PathData
    betas: np.ndarray


def _refinements(
    mode: str, a_mats: list[Matrix], b_mats: list[Matrix], tol: Tolerances
) -> Generator[
    tuple[RefineOutcome, Partition, Partition], None, _Solution | ScalarMismatch | RefinementStep
]:
    """The decision loop: scan, path products, holonomy check, refine.

    Yields every successful :class:`~susim.refine.RefineOutcome` together with
    the row and column partitions it refined, and returns how the run
    ended: the :class:`_Solution`, the :class:`~susim.structure.ScalarMismatch`
    that disproves the instance, or the refinement step whose spectra
    disagree.  Each pass either ends the run or strictly refines a
    partition, so the loop runs at most ``n`` passes (similarity) or
    ``m + n`` passes (equivalence).  Sharing is per matrix: a B-side
    matrix that is its A-side matrix is scanned and eigensolved once and
    stays shared through every refinement that diagonalizes both sides
    alike; when all are, as in feature extraction's self-paired run, so
    are the path products and the holonomy check.
    """
    m, n = a_mats[0].shape
    rows = Partition.whole(m)
    cols = rows if mode == "sus" else Partition.whole(n)
    for _ in range(n + 1 if mode == "sus" else m + n + 1):
        found = check_presolution(a_mats, b_mats, rows, cols, mode, tol)
        if isinstance(found, SolutionForm):
            scales_a, scales_b = found.cell_scales_a, found.cell_scales_b
            paths = build_paths(a_mats, b_mats, rows, cols, mode, scales_a, scales_b)
            holonomy = check_pr(a_mats, b_mats, rows, cols, scales_a, paths, tol)
            if isinstance(holonomy, np.ndarray):
                return _Solution(rows, cols, found, paths, holonomy)
            found = holonomy
        if isinstance(found, ScalarMismatch):
            return found
        out = apply_refinement(a_mats, b_mats, rows, cols, mode, found, tol)
        if out.status == "mismatch":
            return out.step
        yield out, rows, cols
        a_mats, b_mats, rows, cols = out.a_mats, out.b_mats, out.rows, out.cols
    raise InternalInconsistency("refinement loop exceeded its iteration bound")


def _run(mode: str, a_mats: list[Matrix], b_mats: list[Matrix], tol: Tolerances) -> SolveResult:
    m, n = a_mats[0].shape
    # Per axis, the (A-side, B-side) bases that the refinements built up;
    # similarity has one partition, on the row axis.
    axes = ("row",) if mode == "sus" else ("row", "col")
    bases = {axis: (np.eye(k, dtype=np.complex128),) * 2 for axis, k in zip(axes, (m, n))}
    steps: list[RefinementStep] = []
    loop = _refinements(mode, a_mats, b_mats, tol)
    while True:
        try:
            out, rows, cols = next(loop)
        except StopIteration as stop:
            end = stop.value
            break
        except InternalInconsistency:
            raise
        except SusimError as exc:
            return SolveResult(FAILED, mode, len(steps) + 1, message=f"{type(exc).__name__}: {exc}")
        axis, t = out.step.touch
        part = rows if axis == "row" else cols
        axis = axis if axis in bases else "row"
        bases[axis] = tuple(
            apply_blocks(x, part, {t: w}, left=True, right=False)
            for x, w in zip(bases[axis], (out.y, out.z))
        )
        steps.append(out.step)
    it = len(steps) + 1

    if isinstance(end, _Solution):
        witness = _assemble_solution(end.paths, {"row": end.rows, "col": end.cols}, bases)
        u, v = witness["row"], witness.get("col")
        residual = witness_residual(a_mats, b_mats, mode, u, v)
        if residual <= tol.verify:
            return SolveResult(SOLVED, mode, it, u=u, v=v, residual=residual)
        message = f"assembled witness misses the acceptance tolerance: residual {residual:.3e}"
        if math.isinf(residual):  # a document cannot hold it
            residual, message = None, f"{message}, since the input overflows double precision"
        return SolveResult(FAILED, mode, it, residual=residual, message=message)
    # The disproof's kind, target and values (a_value, b_value, groups_a, groups_b).
    if isinstance(end, ScalarMismatch):
        kind, target, values = "scalar", end.target, (end.a_value, end.b_value, None, None)
    else:
        kind, target, values = "eigenvalue", end.functional, (None, None, end.groups_a, end.groups_b)
    cert = Certificate(mode, kind, target, end.at, tuple(steps), it, *values, end.pr_paths)
    return SolveResult(NOT_SIMILAR, mode, it, certificate=cert)


def solve(instance: Instance, tol: Tolerances = DEFAULT_TOLERANCES) -> SolveResult:
    """Decide an instance; never raises on tolerance-boundary inputs.

    A :class:`~susim.errors.SusimError` raised inside the loop, such as a
    holonomy just outside the unitary-multiple test, ends the run ``failed``
    with a message naming it; its iteration count includes the pass that
    raised.  Only :class:`~susim.errors.InternalInconsistency`,
    which signals a bug rather than a boundary, propagates.

    Sharing is decided per matrix, bit for bit: each ``B_l`` whose bytes
    equal those of ``A_l`` (the instance fixes one shape; ``-0.0`` and
    ``0.0`` differ) becomes the ``A_l`` object itself.  The loop computes a
    shared matrix once, and the path products once when every matrix is
    shared; equal inputs give equal arithmetic, so the result is the one an
    unshared run gives.  The certificate checker does not share.
    """
    a = [as_matrix(m) for m in instance.a_mats]
    b = [as_matrix(m) for m in instance.b_mats]
    b = [x if x.tobytes() == y.tobytes() else y for x, y in zip(a, b)]
    return _run(instance.mode, a, b, tol)


def solve_sus(a_mats, b_mats, tol: Tolerances = DEFAULT_TOLERANCES) -> SolveResult:
    """Decide simultaneous unitary similarity of two collections."""
    inst = Instance("sus", tuple(as_matrix(m) for m in a_mats), tuple(as_matrix(m) for m in b_mats))
    return solve(inst, tol)


def solve_sueq(a_mats, b_mats, tol: Tolerances = DEFAULT_TOLERANCES) -> SolveResult:
    """Decide simultaneous unitary equivalence of two collections."""
    inst = Instance("sueq", tuple(as_matrix(m) for m in a_mats), tuple(as_matrix(m) for m in b_mats))
    return solve(inst, tol)
