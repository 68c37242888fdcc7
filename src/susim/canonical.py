"""Canonical features of a matrix collection.

Running the decision loop on a collection paired with itself always ends in
a solution, and every stage of that run computes the shared side once.
Everything the loop observes on the way is invariant under a simultaneous
unitary change of basis: which cell deviates first, which
functional resolves it, the grouped spectrum it splits on, the partition
sizes, and finally the diagonal scalars, cell amplitudes and holonomy
scalars of the fully refined form, read off its arrays in array order,
which is scan order.  Collecting that trace gives a fingerprint, a
:class:`~susim.model.CanonicalFeatures`: collections related by a unitary
produce equal features, and unequal features certify that no such unitary
exists.

Features of two collections are compared entry by entry; discrete data
must agree exactly and spectra, scalars and amplitudes within the grouping
tolerance.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InternalInconsistency, NumericalFailure
from .linalg import DEFAULT_TOLERANCES, Tolerances, as_matrix, fro
from .model import CanonicalFeatures, FeatureStep, Instance
from .solver import _Solution, _refinements

__all__ = ["extract_features", "compare_features"]


def extract_features(
    a_mats, mode: str = "sus", tol: Tolerances = DEFAULT_TOLERANCES
) -> CanonicalFeatures:
    """Invariant fingerprint of one collection.

    Reads the features off the decision loop run on the collection paired
    with itself.  Before the loop starts, invalid input raises as the
    :class:`~susim.model.Instance` of that pair would (an empty collection
    :class:`~susim.errors.SpecInvalid`, unequal shapes or a zero-size matrix
    :class:`~susim.errors.DimensionMismatch`).
    Raises a :class:`~susim.errors.SusimError` when the loop
    meets a numerical boundary, e.g. :class:`~susim.errors.NumericalFailure`
    for spectral gaps between the comparison and grouping tolerances or
    :class:`~susim.errors.NotMultipleOfUnitary` for a holonomy just outside
    the unitary-multiple test; no stable fingerprint exists at these
    settings then.  So does a matrix whose Frobenius norm overflows double
    precision (entries of about 1e154 and up), since every form test would
    pass on it.  :class:`~susim.errors.InternalInconsistency` signals a
    bug, such as a self-paired run that does not end in the solution form.
    """
    mats = [as_matrix(m) for m in a_mats]
    Instance(mode, mats, mats)
    with np.errstate(over="ignore"):
        overflowing = [l for l, m in enumerate(mats) if not math.isfinite(fro(m))]
    if overflowing:
        raise NumericalFailure(
            f"the norm of matrix {overflowing[0] + 1} overflows double precision"
        )
    steps: list[FeatureStep] = []
    loop = _refinements(mode, mats, mats, tol)
    while True:
        try:
            out, rows, cols = next(loop)
        except StopIteration as stop:
            end = stop.value
            break
        s = out.step
        steps.append(FeatureStep(s.functional, s.at, s.touch, rows.sizes, cols.sizes, s.groups_a))
    if not isinstance(end, _Solution):
        raise InternalInconsistency("a self-paired run cannot mismatch")
    alphas, scales = end.form.diag_alphas, end.form.cell_scales_a
    at = np.nonzero(scales)
    edges = list(zip(*(x.tolist() for x in at)))
    return CanonicalFeatures(
        mode=mode,
        shape=mats[0].shape,
        count=len(mats),
        steps=tuple(steps),
        rows_sizes=end.rows.sizes,
        cols_sizes=end.cols.sizes,
        alphas=tuple(zip(np.ndindex(alphas.shape), alphas.ravel().tolist())),
        scales=tuple(zip(edges, scales[at].tolist())),
        betas=tuple(zip(edges, end.betas.tolist())),
        components=tuple(end.paths.components),
    )


def _close(a: complex, b: complex, tol: Tolerances) -> bool:
    return abs(complex(a) - complex(b)) <= tol.group * (1.0 + max(abs(a), abs(b)))


def compare_features(
    fa: CanonicalFeatures, fb: CanonicalFeatures, tol: Tolerances = DEFAULT_TOLERANCES
) -> tuple[bool, list[str]]:
    """Entrywise comparison; returns (equal, human-readable differences)."""
    diffs: list[str] = []
    for field in ("mode", "shape", "count", "rows_sizes", "cols_sizes", "components"):
        va, vb = getattr(fa, field), getattr(fb, field)
        if va != vb:
            diffs.append(f"{field}: {va} != {vb}")
    if len(fa.steps) != len(fb.steps):
        diffs.append(f"step count: {len(fa.steps)} != {len(fb.steps)}")
    else:
        for k, (sa, sb) in enumerate(zip(fa.steps, fb.steps)):
            for field in ("functional", "at", "touch", "rows_sizes", "cols_sizes"):
                va, vb = getattr(sa, field), getattr(sb, field)
                if va != vb:
                    diffs.append(f"step {k} {field}: {va} != {vb}")
            if [m for _, m in sa.groups] != [m for _, m in sb.groups]:
                diffs.append(f"step {k} group multiplicities differ")
            elif any(not _close(va, vb, tol) for (va, _), (vb, _) in zip(sa.groups, sb.groups)):
                diffs.append(f"step {k} group values differ")
    for field in ("alphas", "scales", "betas"):
        ta, tb = getattr(fa, field), getattr(fb, field)
        if [k for k, _ in ta] != [k for k, _ in tb]:
            diffs.append(f"{field} keys: {[k for k, _ in ta]} != {[k for k, _ in tb]}")
        else:
            for (key, va), (_, vb) in zip(ta, tb):
                if not _close(va, vb, tol):
                    diffs.append(f"{field}[{key}]: {va} != {vb}")
    return not diffs, diffs
