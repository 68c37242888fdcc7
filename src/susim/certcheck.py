"""Independent validation of non-similarity certificates.

A certificate is a chain of refinement hints plus one final disagreement.
The checker replays the chain on the original instance without trusting
any recorded number: it recomputes both functional matrices at every step,
runs its own eigendecompositions, refines its own partitions, and rebuilds
path products from the explicit edge descriptors with generic inverses.

Each path is walked once: the walk checks every factor and that the
descriptors compose, and returns the product with the class it reaches.
Both paths of a holonomy must reach one class, the class a ``pr_normal``
hint touches.  The checker keeps its own copy of the four cell functionals
and imports only ``linalg``, ``blocking``, ``model`` and ``errors``, never
the scan, the forest or the refinement code.

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
recomputation (a NaN contradicts every value), or a final comparison
that actually agrees.
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
from .model import GRAM_LEFT, GRAM_RIGHT, HERM_IMAG, HERM_REAL, PR_NORMAL, Certificate, Instance

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


# Cell functional: (Hermitian matrix read off the cell, power of the matrix
# norm that is its eigen-context scale, axis of the class it refines).
_CELL_FUNCTIONALS = {
    HERM_REAL: (lambda c: (c + adjoint(c)) / 2.0, 1, "row"),
    HERM_IMAG: (lambda c: (c - adjoint(c)) / 2.0j, 1, "row"),
    GRAM_LEFT: (lambda c: c @ adjoint(c), 2, "row"),
    GRAM_RIGHT: (lambda c: adjoint(c) @ c, 2, "col"),
}


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
        # Column class j is row class j in similarity mode, where one partition
        # serves both axes; the checker keeps its own copy of the rule.
        return ("row", j) if self.mode == "sus" else ("col", j)

    def _part(self, axis: str) -> Partition:
        return self.rows if axis == "row" else self.cols

    def _cell(self, mats, l: int, i: int, j: int) -> Matrix:
        if not (0 <= l < len(mats) and 0 <= i < self.rows.count and 0 <= j < self.cols.count):
            raise _Refuted(f"cell index ({l}, {i}, {j}) out of range")
        return submatrix(mats[l], self.rows, i, self.cols, j)

    def _walk(self, mats, steps, end) -> tuple[Matrix, tuple[str, int]]:
        """In one pass, the product of a path's factors (generic inverses) and
        the class it maps ``end`` to.  Every factor must be an invertible scalar
        multiple of a unitary, and the descriptors must compose up to ``end``."""
        if not steps:
            axis, t = end
            part = self._part(axis)
            if not 0 <= t < part.count:
                raise _Refuted(f"vertex {end} out of range")
            return np.eye(part.sizes[t], dtype=np.complex128), end
        source = None
        for s in steps:
            cell = self._cell(mats, s.l, s.i, s.j)
            if cell.shape[0] != cell.shape[1]:
                raise _Refuted(f"path factor at ({s.l}, {s.i}, {s.j}) is not square")
            r = unitary_multiple(cell, self.tol, fro(mats[s.l]))
            if r is None or r <= 0.0:
                raise _Refuted(
                    f"path factor at ({s.l}, {s.i}, {s.j}) is not an invertible "
                    "scalar multiple of a unitary"
                )
            factor = np.linalg.inv(cell) if s.invert else cell
            row, col = ("row", s.i), self._col_vertex(s.j)
            target, next_source = (col, row) if s.invert else (row, col)
            if source is None:
                product, rep = factor, target
            elif source != target:
                raise _Refuted("path descriptors do not compose")
            else:
                product = product @ factor
            source = next_source
        if source != end:
            raise _Refuted("path does not end at the cell it claims to conjugate")
        return product, rep

    def holonomy(self, mats, at, pr_paths) -> tuple[Matrix, tuple[str, int]]:
        """Cell ``at`` conjugated along its two paths, and the class both reach.

        The cell is square: square factors join both of its classes to that one."""
        if pr_paths is None:
            raise _Refuted("a holonomy hint carries no path descriptors")
        l, i, j = at
        steps_row, steps_col = pr_paths
        p_row, rep = self._walk(mats, steps_row, ("row", i))
        p_col, rep_col = self._walk(mats, steps_col, self._col_vertex(j))
        if rep != rep_col:
            raise _Refuted("the two paths of a holonomy hint target different classes")
        return p_row @ self._cell(mats, l, i, j) @ np.linalg.inv(p_col), rep

    def functional(self, name: str, at, pr_paths):
        """Recompute one functional: (S, R, eigen contexts, eigensolver, touched class)."""
        if name == PR_NORMAL:
            s, rep = self.holonomy(self.a, at, pr_paths)
            r, _ = self.holonomy(self.b, at, pr_paths)
            return s, r, 0.0, 0.0, eig_normal, rep
        if name not in _CELL_FUNCTIONALS:
            raise _Refuted(f"unknown functional {name!r}")
        f, power, axis = _CELL_FUNCTIONALS[name]
        l, i, j = at
        if name.startswith("herm") and (self.mode != "sus" or i != j):
            raise _Refuted("a Hermitian-part hint must target a diagonal cell")
        ca, cb = self._cell(self.a, l, i, j), self._cell(self.b, l, i, j)
        ctx_a, ctx_b = fro(self.a[l]) ** power, fro(self.b[l]) ** power
        return f(ca), f(cb), ctx_a, ctx_b, eig_hermitian, (axis, i if axis == "row" else j)

    def spectra(self, name: str, at, pr_paths, touch=None):
        """Recompute one functional and decompose both sides: (dec_a, dec_b,
        scale).  With ``touch``, the functional must first act on that class."""
        s, r, ctx_a, ctx_b, eig, acts_on = self.functional(name, at, pr_paths)
        if touch is not None and tuple(touch) != acts_on:
            raise _Refuted(f"hint touches class {touch} but the functional acts on {acts_on}")
        try:
            dec_a = eig(s, self.tol, context_scale=ctx_a)
            dec_b = eig(r, self.tol, context_scale=ctx_b)
        except SusimError as exc:
            raise _Refuted(f"functional recomputation failed: {exc}") from exc
        return dec_a, dec_b, max(fro(s), fro(r), ctx_a, ctx_b)

    def replay_step(self, step) -> None:
        """Apply one recorded refinement, confirming early on disagreement."""
        dec_a, dec_b, scale = self.spectra(step.functional, step.at, step.pr_paths, step.touch)
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


def _values_close(recorded, recomputed, tol: Tolerances, scale: float) -> bool:
    if recorded is None or len(recorded) != len(recomputed):
        return False
    thr = tol.verify * (1.0 + scale)
    # "<=" is false for NaN, so a NaN recorded value matches nothing.
    return all(
        ma == mb and abs(complex(va) - complex(vb)) <= thr
        for (va, ma), (vb, mb) in zip(recorded, recomputed)
    )


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
        return CheckReport(True, str(c))
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
        pr_a, _ = state.holonomy(state.a, cert.at, cert.pr_paths)
        pr_b, _ = state.holonomy(state.b, cert.at, cert.pr_paths)
        beta_a = identity_multiple(pr_a, tol)
        beta_b = identity_multiple(pr_b, tol)
        if beta_a is None or beta_b is None:
            raise _Refuted("the claimed holonomies are not scalar on recomputation")
        return _finish_scalar(cert, beta_a, beta_b, 0.0, tol)
    if cert.kind == "eigenvalue":
        dec_a, dec_b, scale = state.spectra(cert.target, cert.at, cert.pr_paths)
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
    # Written as "not <=" so that a NaN recorded value matches nothing.
    if cert.a_value is None or not abs(complex(cert.a_value) - val_a) <= tol.verify * rec_scale:
        raise _Refuted("recorded A-side scalar does not match the recomputation")
    if cert.b_value is None or not abs(complex(cert.b_value) - val_b) <= tol.verify * rec_scale:
        raise _Refuted("recorded B-side scalar does not match the recomputation")
    return CheckReport(True, f"scalar disagreement at {cert.target} {cert.at} confirmed")
