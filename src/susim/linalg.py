"""Dense complex linear algebra kernel.

Matrices are plain numpy ``complex128`` arrays; ``@`` is the matrix product
and :func:`adjoint` the conjugate transpose.  On top of that this module
provides the tolerance-based structural predicates the solver is built on
(zero, multiple of identity, multiple of unitary) and eigendecompositions
with a canonical eigenvalue order and tolerance grouping.

Every predicate accepts an optional ``context_scale``, the Frobenius norm of
the enclosing matrix.  Callers testing a submatrix pass the parent norm so
that the test is relative to the scale of the problem instance rather than
to the possibly tiny block itself.  With ``context_scale=0`` the predicates
are relative to the tested matrix alone.

All functions are pure; nothing here mutates its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, NotHermitian, NotMultipleOfUnitary, NumericalFailure

Matrix = np.ndarray

__all__ = [
    "Matrix",
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "as_matrix",
    "fro",
    "adjoint",
    "is_zero",
    "identity_multiple",
    "unitary_multiple",
    "close_scalars",
    "order_and_group",
    "canonical_sort",
    "groups_match",
    "EigenDecomposition",
    "eig_hermitian",
    "eig_normal",
]


@dataclass(frozen=True)
class Tolerances:
    """Relative tolerances used throughout the solver.

    cmp     scalar and structural comparisons
    group   eigenvalue grouping (looser, absorbs accumulated conjugation noise)
    verify  final witness residual acceptance
    """

    cmp: float = 1e-9
    group: float = 1e-7
    verify: float = 1e-6

    def __post_init__(self) -> None:
        if not (0.0 < self.cmp <= self.group <= self.verify < 1.0):
            raise ValueError(
                "tolerances must satisfy 0 < cmp <= group <= verify < 1, got "
                f"cmp={self.cmp}, group={self.group}, verify={self.verify}"
            )


DEFAULT_TOLERANCES = Tolerances()


def as_matrix(data, dtype=np.complex128) -> Matrix:
    """Coerce ``data`` to a finite 2-d complex matrix."""
    m = np.asarray(data, dtype=dtype)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d array, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def fro(m: Matrix) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(m))


def adjoint(m: Matrix) -> Matrix:
    """Conjugate transpose."""
    return m.conj().T


def _require_square(m: Matrix) -> int:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m.shape[0]


def is_zero(m: Matrix, tol: Tolerances = DEFAULT_TOLERANCES, context_scale: float = 0.0) -> bool:
    """True iff ``‖m‖_F <= cmp * (1 + context_scale)``."""
    return fro(m) <= tol.cmp * (1.0 + context_scale)


def identity_multiple(
    m: Matrix, tol: Tolerances = DEFAULT_TOLERANCES, context_scale: float = 0.0
) -> complex | None:
    """Return alpha with ``m = alpha * I`` within tolerance, else None.

    alpha is trace(m)/n, the least-squares scalar.  The residual test is
    relative to max(own norm, context_scale).
    """
    n = _require_square(m)
    alpha = complex(np.trace(m)) / n
    residual = fro(m - alpha * np.eye(n))
    if residual <= tol.cmp * (1.0 + max(fro(m), context_scale)):
        return alpha
    return None


def unitary_multiple(
    m: Matrix, tol: Tolerances = DEFAULT_TOLERANCES, context_scale: float = 0.0
) -> float | None:
    """Return r >= 0 with ``m m* = m* m = r I`` within tolerance, else None.

    r is 0 exactly when the matrix is zero within tolerance.  For nonzero m,
    both Gram products must be identity multiples with the same scalar.
    Note r is the squared amplitude: for m = c * Q with Q unitary, r = |c|^2.
    """
    _require_square(m)
    if is_zero(m, tol, context_scale):
        return 0.0
    ctx2 = context_scale * context_scale
    left = identity_multiple(m @ adjoint(m), tol, ctx2)
    if left is None:
        return None
    right = identity_multiple(adjoint(m) @ m, tol, ctx2)
    if right is None:
        return None
    if abs(left - right) > tol.cmp * max(abs(left), abs(right), ctx2):
        return None
    r = left.real / 2.0 + right.real / 2.0  # halved first: the sum can overflow
    return max(float(r), 0.0)


def close_scalars(a: complex, b: complex, tol: Tolerances, context: float = 0.0) -> bool:
    """Scalar equality, relative to the larger magnitude and the context scale."""
    return abs(a - b) <= tol.cmp * max(abs(a), abs(b), context)


def order_and_group(
    values: Sequence[complex] | np.ndarray, threshold: float
) -> tuple[np.ndarray, tuple[tuple[complex, int], ...]]:
    """Canonically order complex values and group them within ``threshold``.

    Order: real part descending, then imaginary part descending, where values
    whose real parts chain within ``threshold`` are treated as one real
    cluster before the imaginary sort.  Grouping is transitive within a
    cluster on the imaginary axis as well.  Returns ``(perm, groups)`` where
    ``perm`` indexes the input and ``groups`` is a tuple of
    ``(mean value, multiplicity)`` in output order.
    """
    vals = np.asarray(values, dtype=np.complex128)
    if vals.ndim != 1:
        raise DimensionMismatch("expected a 1-d value list")
    if len(vals) == 0:
        return np.empty(0, dtype=int), ()
    idx = np.argsort(-vals.real, kind="stable")
    ordered = vals[idx]
    # A real gap not within the threshold (NaN included) starts a cluster.
    new_cluster = np.concatenate(([True], ~(ordered.real[:-1] - ordered.real[1:] <= threshold)))
    inner = np.lexsort((-ordered.imag, np.cumsum(new_cluster)))
    perm, cvals = idx[inner], ordered[inner]
    # Inside a cluster an imaginary gap above the threshold starts a group.
    imag_gap = np.concatenate(([True], cvals.imag[:-1] - cvals.imag[1:] > threshold))
    starts = np.flatnonzero(new_cluster | imag_gap)
    counts = np.diff(np.append(starts, len(cvals)))
    means = np.add.reduceat(cvals, starts) / counts
    return perm, tuple(zip(means.tolist(), counts.tolist()))


def canonical_sort(values, threshold: float) -> np.ndarray:
    """Values in canonical order (see :func:`order_and_group`)."""
    vals = np.asarray(values, dtype=np.complex128)
    perm, _ = order_and_group(vals, threshold)
    return vals[perm]


def groups_match(
    ga: tuple[tuple[complex, int], ...],
    gb: tuple[tuple[complex, int], ...],
    tol: Tolerances,
    scale: float = 0.0,
) -> bool:
    """Positional comparison of two grouped spectra.

    Multiplicities must agree exactly; group values within
    ``group * (1 + scale)``.
    """
    if len(ga) != len(gb):
        return False
    thr = tol.group * (1.0 + scale)
    for (va, ma), (vb, mb) in zip(ga, gb):
        if ma != mb or abs(va - vb) > thr:
            return False
    return True


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigendecomposition with canonical order and tolerance grouping.

    ``diagonalizer`` rows are eigenvectors: ``Y S Y* = diag(eigenvalues)``.
    ``groups`` are (mean value, multiplicity) runs, contiguous in the row
    order of ``diagonalizer``.
    """

    eigenvalues: np.ndarray
    diagonalizer: np.ndarray
    groups: tuple[tuple[complex, int], ...]


def eig_hermitian(
    s: Matrix, tol: Tolerances = DEFAULT_TOLERANCES, context_scale: float = 0.0
) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending."""
    _require_square(s)
    scale = max(fro(s), context_scale)
    if fro(s - adjoint(s)) > tol.cmp * (1.0 + scale):
        raise NotHermitian(f"matrix deviates from Hermitian by {fro(s - adjoint(s)):.3e}")
    try:
        w, v = np.linalg.eigh((s + adjoint(s)) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("Hermitian eigensolve did not converge") from exc
    vals = w.astype(np.complex128)
    y = adjoint(v)
    perm, groups = order_and_group(vals, tol.group * (1.0 + scale))
    return EigenDecomposition(vals[perm], np.ascontiguousarray(y[perm, :]), groups)


def eig_normal(
    nmat: Matrix, tol: Tolerances = DEFAULT_TOLERANCES, context_scale: float = 0.0
) -> EigenDecomposition:
    """Eigendecomposition of a multiple of a unitary (a normal matrix).

    Works through the two commuting Hermitian parts: diagonalize
    ``(N + N*)/2`` and, inside each of its eigenvalue groups, the restriction
    of ``(N - N*)/(2i)``.  Avoids a general Schur factorization and reuses
    the Hermitian kernel.
    """
    n = _require_square(nmat)
    scale = max(fro(nmat), context_scale)
    if unitary_multiple(nmat, tol, context_scale) is None:
        raise NotMultipleOfUnitary("input is not a scalar multiple of a unitary")
    h1 = (nmat + adjoint(nmat)) / 2.0
    h2 = (nmat - adjoint(nmat)) / 2.0j
    d1 = eig_hermitian(h1, tol, context_scale=scale)
    q = adjoint(d1.diagonalizer)
    cols = []
    pos = 0
    for _value, mult in d1.groups:
        qg = q[:, pos : pos + mult]
        if mult == 1:
            cols.append(qg)
        else:
            m2 = adjoint(qg) @ h2 @ qg
            d2 = eig_hermitian(m2, tol, context_scale=scale)
            cols.append(qg @ adjoint(d2.diagonalizer))
        pos += mult
    y = adjoint(np.hstack(cols))
    conj = y @ nmat @ adjoint(y)
    vals = np.diagonal(conj).copy()
    off = fro(conj - np.diag(vals))
    if off > tol.verify * (1.0 + scale) * n:
        raise NumericalFailure(f"normal eigendecomposition left off-diagonal mass {off:.3e}")
    perm, groups = order_and_group(vals, tol.group * (1.0 + scale))
    return EigenDecomposition(vals[perm], np.ascontiguousarray(y[perm, :]), groups)
