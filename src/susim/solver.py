"""Decision procedures for simultaneous unitary similarity and equivalence.

The solver alternates a structural scan with refinements.  Each stage
returns what it found.  The scan returns the solution form, in which the
holonomy of every edge cell is then checked, or its first deviation; a
forced scalar (:class:`~susim.structure.ScalarMismatch`) or spectral
(:class:`~susim.refine.RefinementStep`) disagreement ends the run with a
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

from collections.abc import Generator
from dataclasses import dataclass

import numpy as np

from .blocking import Partition, apply_blocks
from .errors import InternalInconsistency, SusimError
from .graph import PathData, build_paths, check_pr
from .linalg import DEFAULT_TOLERANCES, Matrix, Tolerances, adjoint, as_matrix, fro
from .model import FAILED, NOT_SIMILAR, SOLVED, Certificate, Instance, SolveResult
from .refine import RefinementStep, RefineOutcome, apply_refinement
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
    matrix pair, each relative to ``1 + ||A_l||``.
    """
    m, n = a_mats[0].shape
    right = u if mode == "sus" else v
    dev = fro(u @ adjoint(u) - np.eye(m)) / np.sqrt(m)
    dev = max(dev, fro(right @ adjoint(right) - np.eye(n)) / np.sqrt(n))
    for a, b in zip(a_mats, b_mats):
        dev = max(dev, fro(u @ a @ adjoint(right) - b) / (1.0 + fro(a)))
    return dev


def _assemble_solution(
    paths: PathData, rows: Partition, cols: Partition, mode: str, yrow: Matrix, ycol: Matrix
) -> tuple[Matrix, Matrix | None]:
    """Blockwise witnesses from the path products, applied to the A-side bases."""
    ublocks: dict[int, Matrix] = {}
    vblocks: dict[int, Matrix] = {}
    for vert in paths.rep_of:
        pa, pb = paths.paths_a[vert], paths.paths_b[vert]
        amp_b = paths.amps_b[vert]
        blk = (adjoint(pb) / (amp_b * amp_b)) @ pa
        axis, t = vert
        if axis == "row":
            ublocks[t] = blk
        else:
            vblocks[t] = blk
    uy = apply_blocks(yrow, rows, ublocks, left=True, right=False)
    vy = apply_blocks(ycol, cols, vblocks, left=True, right=False) if mode == "sueq" else None
    return uy, vy


@dataclass(frozen=True)
class _Solution:
    """The final form of a run: its partitions, the passing scan, the path
    data and the holonomy scalar of every edge."""

    rows: Partition
    cols: Partition
    form: SolutionForm
    paths: PathData
    betas: dict[tuple[int, int, int], complex]


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
    ``m + n`` passes (equivalence).  Passing one list as both sides, as
    feature extraction does, makes every stage compute that side once; the
    refined pair is again one list, so this holds on every pass.  A single
    B-side matrix that is its A-side matrix is scanned once, and stays
    shared through every refinement that diagonalizes both sides alike.
    """
    m, n = a_mats[0].shape
    rows = Partition.whole(m)
    cols = rows if mode == "sus" else Partition.whole(n)
    for _ in range(n + 1 if mode == "sus" else m + n + 1):
        found = check_presolution(a_mats, b_mats, rows, cols, mode, tol)
        if isinstance(found, SolutionForm):
            scales_a, scales_b = found.cell_scales_a, found.cell_scales_b
            paths = build_paths(a_mats, b_mats, rows, cols, mode, scales_a, scales_b)
            holonomy = check_pr(a_mats, b_mats, rows, cols, mode, scales_a, paths, tol)
            if isinstance(holonomy, dict):
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
    yrow = zrow = np.eye(m, dtype=np.complex128)
    ycol = zcol = np.eye(n, dtype=np.complex128)
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
        if mode == "sus" or axis == "row":
            yrow = apply_blocks(yrow, rows, {t: out.y}, left=True, right=False)
            zrow = apply_blocks(zrow, rows, {t: out.z}, left=True, right=False)
        else:
            ycol = apply_blocks(ycol, cols, {t: out.y}, left=True, right=False)
            zcol = apply_blocks(zcol, cols, {t: out.z}, left=True, right=False)
        steps.append(out.step)
    it = len(steps) + 1

    if isinstance(end, RefinementStep):
        cert = Certificate(
            mode, "eigenvalue", end.functional, end.at, tuple(steps), it,
            groups_a=end.groups_a, groups_b=end.groups_b, pr_paths=end.pr_paths,
        )
        return SolveResult(NOT_SIMILAR, mode, it, certificate=cert)
    if isinstance(end, ScalarMismatch):
        cert = Certificate(
            mode, "scalar", end.target, end.at, tuple(steps), it,
            a_value=end.a_value, b_value=end.b_value, pr_paths=end.pr_paths,
        )
        return SolveResult(NOT_SIMILAR, mode, it, certificate=cert)

    uy, vy = _assemble_solution(end.paths, end.rows, end.cols, mode, yrow, ycol)
    u = adjoint(zrow) @ uy
    v = adjoint(zcol) @ vy if mode == "sueq" else None
    residual = witness_residual(a_mats, b_mats, mode, u, v)
    if residual <= tol.verify:
        return SolveResult(SOLVED, mode, it, u=u, v=v, residual=residual)
    return SolveResult(
        FAILED, mode, it, residual=residual,
        message=f"assembled witness misses the acceptance tolerance: residual {residual:.3e}",
    )


def solve(instance: Instance, tol: Tolerances = DEFAULT_TOLERANCES) -> SolveResult:
    """Decide an instance; never raises on tolerance-boundary inputs.

    A :class:`~susim.errors.SusimError` raised inside the loop, such as a
    holonomy just outside the unitary-multiple test, ends the run ``failed``
    with a message naming it; its iteration count includes the pass that
    raised.  Only :class:`~susim.errors.InternalInconsistency`,
    which signals a bug rather than a boundary, propagates.

    Sharing is decided per matrix, bit for bit: each ``B_l`` whose bytes
    equal those of ``A_l`` (the instance fixes one shape; ``-0.0`` and
    ``0.0`` differ) becomes the ``A_l`` object itself, and a B side that is
    all shared becomes the A list.  The loop computes a shared matrix, or a
    shared list, once; equal inputs give equal arithmetic, so the result is
    the one an unshared run gives.  The certificate checker does not share.
    """
    a = [as_matrix(m) for m in instance.a_mats]
    b = [as_matrix(m) for m in instance.b_mats]
    b = [x if x.tobytes() == y.tobytes() else y for x, y in zip(a, b)]
    if all(y is x for x, y in zip(a, b)):
        b = a
    return _run(instance.mode, a, b, tol)


def solve_sus(a_mats, b_mats, tol: Tolerances = DEFAULT_TOLERANCES) -> SolveResult:
    """Decide simultaneous unitary similarity of two collections."""
    inst = Instance("sus", tuple(as_matrix(m) for m in a_mats), tuple(as_matrix(m) for m in b_mats))
    return solve(inst, tol)


def solve_sueq(a_mats, b_mats, tol: Tolerances = DEFAULT_TOLERANCES) -> SolveResult:
    """Decide simultaneous unitary equivalence of two collections."""
    inst = Instance("sueq", tuple(as_matrix(m) for m in a_mats), tuple(as_matrix(m) for m in b_mats))
    return solve(inst, tol)
