"""Independent validation of non-similarity certificates.

A certificate is a chain of refinement hints plus one final disagreement.
The checker replays the chain on the original instance without trusting
any recorded number: it recomputes both functional matrices at every step,
runs its own eigendecompositions, refines its own partitions, and rebuilds
path products from the explicit edge descriptors with generic inverses.

Soundness rests on two facts that the checker enforces step by step.
First, conjugating the A side and the B side by arbitrary block-diagonal
unitaries preserves whether a solution exists.  Second, if every solution
is block diagonal for the current partitions, then for the recorded cell
the A-side functional and the B-side functional must be conjugate through
the block at the touched class, so their grouped spectra must agree, and
after diagonalizing both sides the block must also respect the eigenvalue
group partition.  A genuine disagreement anywhere along the chain is
therefore a proof that no solution exists, even if it occurs earlier than
the certificate claims.

The outcome is ``confirmed`` when the replay reaches a genuine forced
disagreement, and ``refuted`` with a reason otherwise: malformed hints,
hints that do not compose, recorded values that contradict the
recomputation, or a final comparison that actually agrees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocking import Partition, apply_blocks, submatrix
from .errors import SusimError
from .linalg import (
    DEFAULT_TOLERANCES,
    Matrix,
    Tolerances,
    adjoint,
    close_scalars,
    eig_hermitian,
    eig_normal,
    fro,
    groups_match,
    identity_multiple,
    unitary_multiple,
)
from .model import Certificate, Instance

__all__ = ["CheckReport", "check_certificate"]


@dataclass(frozen=True)
class CheckReport:
    """Verdict of a certificate replay."""

    confirmed: bool
    reason: str


class _Refuted(Exception):
    """Internal control flow: the certificate cannot be confirmed."""


class _Confirmed(Exception):
    """Internal control flow: a forced disagreement was reached early."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class _Replay:
    """Mutable replay state: both collections and the partitions."""

    def __init__(self, inst: Instance, tol: Tolerances) -> None:
        self.mode = inst.mode
        self.a = [np.array(m, dtype=np.complex128) for m in inst.a_mats]
        self.b = [np.array(m, dtype=np.complex128) for m in inst.b_mats]
        m, n = inst.shape
        self.rows = Partition.whole(m)
        self.cols = self.rows if inst.mode == "sus" else Partition.whole(n)
        self.tol = tol

    def _col_vertex(self, j: int) -> tuple[str, int]:
        # Same rule as graph.endpoints, kept separate so the checker stays independent.
        return ("row", j) if self.mode == "sus" else ("col", j)

    def _part(self, axis: str) -> Partition:
        return self.rows if axis == "row" else self.cols

    def _cell(self, mats, l: int, i: int, j: int) -> Matrix:
        if not (0 <= l < len(mats) and 0 <= i < self.rows.count and 0 <= j < self.cols.count):
            raise _Refuted(f"cell index ({l}, {i}, {j}) out of range")
        return submatrix(mats[l], self.rows, i, self.cols, j)

    def _rebuild_path(self, mats, steps, end_vertex) -> Matrix:
        """Product of edge factors from the descriptors, generic inverses.

        Validates that consecutive factors compose and that the product
        starts at ``end_vertex``; returns the product (identity for an
        empty path) and leaves the target vertex to the caller via
        :meth:`_path_target`.
        """
        if not steps:
            size = self._vertex_size(end_vertex)
            return np.eye(size, dtype=np.complex128)
        factors = []
        expect_source = None
        for s in steps:
            cell = self._cell(mats, s.l, s.i, s.j)
            if cell.shape[0] != cell.shape[1]:
                raise _Refuted(f"path factor at ({s.l}, {s.i}, {s.j}) is not square")
            ctx = fro(mats[s.l])
            r = unitary_multiple(cell, self.tol, ctx)
            if r is None or r <= 0.0:
                raise _Refuted(
                    f"path factor at ({s.l}, {s.i}, {s.j}) is not an invertible "
                    "scalar multiple of a unitary"
                )
            factor = np.linalg.inv(cell) if s.invert else cell
            target = ("row", s.i) if not s.invert else self._col_vertex(s.j)
            source = self._col_vertex(s.j) if not s.invert else ("row", s.i)
            if expect_source is not None and expect_source != target:
                raise _Refuted("path descriptors do not compose")
            factors.append(factor)
            expect_source = source
        if expect_source != end_vertex:
            raise _Refuted("path does not end at the cell it claims to conjugate")
        out = factors[0]
        for f in factors[1:]:
            out = out @ f
        return out

    def _path_target(self, steps, end_vertex) -> tuple[str, int]:
        if not steps:
            return end_vertex
        s = steps[0]
        return ("row", s.i) if not s.invert else self._col_vertex(s.j)

    def _vertex_size(self, vertex) -> int:
        axis, t = vertex
        part = self._part(axis)
        if not (0 <= t < part.count):
            raise _Refuted(f"vertex {vertex} out of range")
        return part.sizes[t]

    def functional(self, functional: str, at, pr_paths):
        """Recompute (S, R, eigencontexts, kind) for one hint."""
        l, i, j = at
        if functional in ("herm_real", "herm_imag"):
            if self.mode != "sus" or i != j:
                raise _Refuted("a Hermitian-part hint must target a diagonal cell")
            ca, cb = self._cell(self.a, l, i, j), self._cell(self.b, l, i, j)
            if functional == "herm_real":
                s, r = (ca + adjoint(ca)) / 2.0, (cb + adjoint(cb)) / 2.0
            else:
                s, r = (ca - adjoint(ca)) / 2.0j, (cb - adjoint(cb)) / 2.0j
            return s, r, fro(self.a[l]), fro(self.b[l]), "hermitian"
        if functional in ("gram_left", "gram_right"):
            ca, cb = self._cell(self.a, l, i, j), self._cell(self.b, l, i, j)
            if functional == "gram_left":
                s, r = ca @ adjoint(ca), cb @ adjoint(cb)
            else:
                s, r = adjoint(ca) @ ca, adjoint(cb) @ cb
            return s, r, fro(self.a[l]) ** 2, fro(self.b[l]) ** 2, "hermitian"
        if functional == "pr_normal":
            s = self._pr(self.a, at, pr_paths)
            r = self._pr(self.b, at, pr_paths)
            return s, r, 0.0, 0.0, "normal"
        raise _Refuted(f"unknown functional {functional!r}")

    def _pr(self, mats, at, pr_paths) -> Matrix:
        if pr_paths is None:
            raise _Refuted("a holonomy hint carries no path descriptors")
        l, i, j = at
        steps_row, steps_col = pr_paths
        p_row = self._rebuild_path(mats, steps_row, ("row", i))
        p_col = self._rebuild_path(mats, steps_col, self._col_vertex(j))
        if self._path_target(steps_row, ("row", i)) != self._path_target(
            steps_col, self._col_vertex(j)
        ):
            raise _Refuted("the two paths of a holonomy hint target different classes")
        cell = self._cell(mats, l, i, j)
        if cell.shape[0] != cell.shape[1]:
            raise _Refuted("a holonomy hint must target a square cell")
        return p_row @ cell @ np.linalg.inv(p_col)

    def pr_rep(self, at, pr_paths) -> tuple[str, int]:
        steps_row, _ = pr_paths
        return self._path_target(steps_row, ("row", at[1]))

    def decompose(self, s, r, ctx_a, ctx_b, kind):
        eig = eig_hermitian if kind == "hermitian" else eig_normal
        try:
            dec_a = eig(s, self.tol, context_scale=ctx_a)
            dec_b = eig(r, self.tol, context_scale=ctx_b)
        except SusimError as exc:
            raise _Refuted(f"functional recomputation failed: {exc}") from exc
        return dec_a, dec_b

    def replay_step(self, step) -> None:
        """Apply one recorded refinement, confirming early on disagreement."""
        s, r, ctx_a, ctx_b, kind = self.functional(step.functional, step.at, step.pr_paths)
        expected_touch = self._expected_touch(step)
        if tuple(step.touch) != expected_touch:
            raise _Refuted(
                f"hint touches class {step.touch} but the functional acts on {expected_touch}"
            )
        dec_a, dec_b = self.decompose(s, r, ctx_a, ctx_b, kind)
        scale = max(fro(s), fro(r), ctx_a, ctx_b)
        if not groups_match(dec_a.groups, dec_b.groups, self.tol, scale):
            raise _Confirmed(
                f"forced spectra already disagree at step {step.functional} {step.at}"
            )
        if not (
            _values_close(step.groups_a, dec_a.groups, self.tol, scale)
            and _values_close(step.groups_b, dec_b.groups, self.tol, scale)
        ):
            raise _Refuted(f"recorded spectra of step {step.at} do not match the recomputation")
        if len(dec_a.groups) == 1:
            raise _Refuted(f"step {step.at} cannot split a class on recomputation")
        axis, t = step.touch
        part = self._part(axis)
        new_part = part.refine(t, [m for _, m in dec_a.groups])
        left, right = self.mode == "sus" or axis == "row", self.mode == "sus" or axis == "col"
        y, z = {t: dec_a.diagonalizer}, {t: dec_b.diagonalizer}
        self.a = [apply_blocks(m, part, y, left=left, right=right) for m in self.a]
        self.b = [apply_blocks(m, part, z, left=left, right=right) for m in self.b]
        self.rows = new_part if left else self.rows
        self.cols = new_part if right else self.cols

    def _expected_touch(self, step) -> tuple[str, int]:
        l, i, j = step.at
        if step.functional in ("herm_real", "herm_imag"):
            return ("row", i)
        if step.functional == "gram_left":
            return ("row", i)
        if step.functional == "gram_right":
            return ("col", j)
        if step.functional == "pr_normal":
            if step.pr_paths is None:
                raise _Refuted("a holonomy hint carries no path descriptors")
            return self.pr_rep(step.at, step.pr_paths)
        raise _Refuted(f"unknown functional {step.functional!r}")


def _values_close(recorded, recomputed, tol: Tolerances, scale: float) -> bool:
    if recorded is None:
        return False
    if len(recorded) != len(recomputed):
        return False
    thr = tol.verify * (1.0 + scale)
    for (va, ma), (vb, mb) in zip(recorded, recomputed):
        if ma != mb or abs(complex(va) - complex(vb)) > thr:
            return False
    return True


def check_certificate(
    inst: Instance, cert: Certificate, tol: Tolerances = DEFAULT_TOLERANCES
) -> CheckReport:
    """Replay a certificate against its instance.

    Returns a confirmation when the replay reaches a forced disagreement
    (possibly earlier than recorded) and a refutation otherwise.
    """
    if cert.mode != inst.mode:
        return CheckReport(False, "certificate and instance disagree on the mode")
    state = _Replay(inst, tol)
    try:
        for step in cert.steps:
            state.replay_step(step)
        return _check_final(state, cert, tol)
    except _Confirmed as c:
        return CheckReport(True, c.reason)
    except _Refuted as r:
        return CheckReport(False, str(r))
    except SusimError as exc:
        return CheckReport(False, f"replay failed: {exc}")


def _check_final(state: _Replay, cert: Certificate, tol: Tolerances) -> CheckReport:
    l, i, j = cert.at
    if cert.kind == "scalar" and cert.target == "diag_alpha":
        if state.mode != "sus" or i != j:
            raise _Refuted("a diagonal scalar claim must target a diagonal cell")
        ca = state._cell(state.a, l, i, j)
        cb = state._cell(state.b, l, i, j)
        alpha_a = identity_multiple(ca, tol, fro(state.a[l]))
        alpha_b = identity_multiple(cb, tol, fro(state.b[l]))
        if alpha_a is None or alpha_b is None:
            raise _Refuted("the claimed scalar cells are not scalar on recomputation")
        return _finish_scalar(cert, alpha_a, alpha_b, max(fro(state.a[l]), fro(state.b[l])), tol)
    if cert.kind == "scalar" and cert.target == "pr_beta":
        pr_a = state._pr(state.a, cert.at, cert.pr_paths)
        pr_b = state._pr(state.b, cert.at, cert.pr_paths)
        beta_a = identity_multiple(pr_a, tol)
        beta_b = identity_multiple(pr_b, tol)
        if beta_a is None or beta_b is None:
            raise _Refuted("the claimed holonomies are not scalar on recomputation")
        return _finish_scalar(cert, beta_a, beta_b, 0.0, tol)
    if cert.kind == "eigenvalue":
        s, r, ctx_a, ctx_b, kind = state.functional(cert.target, cert.at, cert.pr_paths)
        dec_a, dec_b = state.decompose(s, r, ctx_a, ctx_b, kind)
        scale = max(fro(s), fro(r), ctx_a, ctx_b)
        if groups_match(dec_a.groups, dec_b.groups, tol, scale):
            raise _Refuted("the claimed spectral disagreement is not there on recomputation")
        if not _values_close(cert.groups_a, dec_a.groups, tol, scale):
            raise _Refuted("recorded A-side spectrum does not match the recomputation")
        if not _values_close(cert.groups_b, dec_b.groups, tol, scale):
            raise _Refuted("recorded B-side spectrum does not match the recomputation")
        return CheckReport(True, f"spectral disagreement at {cert.target} {cert.at} confirmed")
    raise _Refuted(f"unknown certificate kind {cert.kind!r} or target {cert.target!r}")


def _finish_scalar(
    cert: Certificate, val_a: complex, val_b: complex, context: float, tol: Tolerances
) -> CheckReport:
    if close_scalars(val_a, val_b, tol, context=context):
        raise _Refuted("the claimed scalar disagreement is not there on recomputation")
    rec_scale = max(abs(val_a), abs(val_b), 1.0)
    if cert.a_value is None or abs(complex(cert.a_value) - val_a) > tol.verify * rec_scale:
        raise _Refuted("recorded A-side scalar does not match the recomputation")
    if cert.b_value is None or abs(complex(cert.b_value) - val_b) > tol.verify * rec_scale:
        raise _Refuted("recorded B-side scalar does not match the recomputation")
    return CheckReport(True, f"scalar disagreement at {cert.target} {cert.at} confirmed")
