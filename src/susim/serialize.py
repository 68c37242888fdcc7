"""JSON formats for instances, results, certificates and features.

Three tagged document formats are supported:

* ``susim-instance/1``: the two matrix collections plus the mode;
* ``susim-result/1``: a solve outcome with witnesses or certificate;
* ``susim-features/1``: the canonical feature trace of one collection.

Complex numbers are written as ``[re, im]`` pairs, matrices as nested row
lists of such pairs.  All matrix, row, column and class indices are
one-based in the documents and converted at this boundary; in-memory
objects stay zero-based throughout the library.
"""

from __future__ import annotations

import cmath
import math
from collections import deque
from itertools import repeat
from typing import Any, NoReturn

import numpy as np

from .canonical import CanonicalFeatures, FeatureStep
from .errors import FormatError
from .graph import EdgeStep
from .model import FAILED, NOT_SIMILAR, SOLVED, Certificate, Instance, SolveResult
from .refine import RefinementStep

__all__ = [
    "INSTANCE_FORMAT",
    "RESULT_FORMAT",
    "FEATURES_FORMAT",
    "matrix_to_json",
    "complex_to_json",
    "instance_to_json",
    "instance_from_json",
    "result_to_json",
    "result_from_json",
    "certificate_to_json",
    "certificate_from_json",
    "features_to_json",
    "features_from_json",
    "document_format",
]

INSTANCE_FORMAT = "susim-instance/1"
RESULT_FORMAT = "susim-result/1"
FEATURES_FORMAT = "susim-features/1"

_STATUSES = (SOLVED, NOT_SIMILAR, FAILED)


def _fail(msg: str) -> NoReturn:
    raise FormatError(msg)


def _get(data: Any, key: str, kind: type | tuple[type, ...], where: str) -> Any:
    if not isinstance(data, dict):
        _fail(f"{where}: expected an object")
    if key not in data:
        _fail(f"{where}: missing key {key!r}")
    value = data[key]
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        return _finite(value, f"{where}: key {key!r}")
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        _fail(f"{where}: key {key!r} has the wrong type")
    return value


def _finite(x: int | float, what: str) -> float:
    """A JSON number as a finite float; ``what`` names the field in the error."""
    try:
        x = float(x)
    except OverflowError:  # an integer literal beyond the float range
        x = math.inf
    if not math.isfinite(x):
        _fail(f"{what} must be a finite number")
    return x


def _is_int(x: Any) -> bool:
    """Whether ``x`` is an integer in the documents' sense, as ``_get`` reads
    one: JSON ``true`` and ``2.0`` compare equal to 1 and 2 but are refused."""
    return isinstance(x, int) and not isinstance(x, bool)


def _real(x: float) -> float:
    """``x`` as a Python float.  JSON has no NaN or infinity, so a document
    refuses them where it is built: the encoder would write ``null``."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"a document cannot hold the non-finite number {x}")
    return x


def _cpx(z: complex) -> list[float]:
    z = complex(z)
    return [_real(z.real), _real(z.imag)]


def _mat(m: np.ndarray) -> list[list[list[float]]]:
    m = np.ascontiguousarray(m, dtype=np.complex128)
    if not np.isfinite(m).all():
        raise ValueError("a document cannot hold a matrix with non-finite entries")
    return m.view(np.float64).reshape(m.shape + (2,)).tolist()


_NUMBERS = frozenset((float, int))  # exact types: bool, an int subclass, stays out


def _pair_entries(cells: list) -> list | None:
    """The re, im entries of ``cells`` in order, or None unless every cell
    has length 2 and every entry's type is exactly ``float`` or ``int``.
    Each check is one bulk pass over all the cells or entries."""
    try:
        if list(map(len, cells)).count(2) != len(cells):
            return None
        entries = _concat(cells)
    except TypeError:  # a cell with no length, such as a bare number
        return None
    types = list(map(type, entries))
    # Documents hold floats; the set test runs only when some entry is not one.
    if types.count(float) != len(types) and not _NUMBERS.issuperset(types):
        return None
    return entries


def _concat(lists: list) -> list:
    """The items of ``lists`` in order.  One C-level ``extend`` per list is
    much faster than ``chain.from_iterable`` over 2-item lists."""
    out: list = []
    deque(map(out.extend, lists), maxlen=0)
    return out


def _cpx_in(value: Any) -> complex | None:
    """``value`` as a complex scalar, or None unless it is a ``[re, im]``
    list of two finite numbers."""
    if isinstance(value, list) and len(value) == 2:
        re, im = value
        if type(re) in _NUMBERS and type(im) in _NUMBERS:
            try:
                z = complex(re, im)
            except OverflowError:  # an integer literal beyond the float range
                return None
            if cmath.isfinite(z):
                return z
    return None


def _as_cpx(value: Any, where: str) -> complex:
    z = _cpx_in(value)
    if z is not None:
        return z
    if isinstance(value, list) and _pair_entries([value]):
        _fail(f"{where}: entries must be finite numbers")
    _fail(f"{where}: expected a [re, im] pair")


def _as_mat(value: Any, where: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        _fail(f"{where}: expected a non-empty list of rows")
    width = len(value[0]) if isinstance(value[0], list) else 0
    entries = None
    if width and all(map(isinstance, value, repeat(list))) and set(map(len, value)) == {width}:
        entries = _pair_entries(_concat(value))
    if entries is None:
        _bad_row(value, where)
    try:
        flat = np.fromiter(entries, dtype=np.float64, count=len(entries))
    except OverflowError:  # an integer literal beyond the float range
        flat = None
    if flat is None or not np.isfinite(flat).all():
        _fail(f"{where}: entries must be finite numbers")
    # Consecutive (re, im) float64 pairs are the memory layout of complex128.
    return flat.view(np.complex128).reshape(len(value), width)


def _bad_row(value: list, where: str) -> NoReturn:
    """Name the first malformed row of a matrix that failed the bulk checks:
    a row of the wrong shape first, then one holding a bad cell."""
    width = None
    for r, row in enumerate(value):
        if not isinstance(row, list) or not row:
            _fail(f"{where}: row {r + 1} is not a non-empty list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            _fail(f"{where}: row {r + 1} has length {len(row)}, expected {width}")
    r = next(r for r, row in enumerate(value) if _pair_entries(row) is None)
    _fail(f"{where} row {r + 1}: expected a [re, im] pair")


def matrix_to_json(m: np.ndarray) -> list[list[list[float]]]:
    """Encode one matrix the same way the document formats do."""
    return _mat(m)


def complex_to_json(z: complex) -> list[float]:
    """Encode one complex scalar the same way the document formats do."""
    return _cpx(z)


def _at_out(at: tuple[int, int, int]) -> dict:
    return {"matrix": at[0] + 1, "row": at[1] + 1, "col": at[2] + 1}


def _at_in(value: Any, where: str) -> tuple[int, int, int]:
    l = _get(value, "matrix", int, where)
    i = _get(value, "row", int, where)
    j = _get(value, "col", int, where)
    if min(l, i, j) < 1:
        _fail(f"{where}: indices are one-based")
    return (l - 1, i - 1, j - 1)


def _touch_out(touch: tuple[str, int]) -> dict:
    return {"axis": touch[0], "index": touch[1] + 1}


def _touch_in(value: Any, where: str) -> tuple[str, int]:
    axis = _get(value, "axis", str, where)
    index = _get(value, "index", int, where)
    if axis not in ("row", "col") or index < 1:
        _fail(f"{where}: bad axis or index")
    return (axis, index - 1)


def _groups_out(groups) -> list[dict]:
    return [{"value": _cpx(mean), "count": int(count)} for mean, count in groups]


def _groups_in(value: Any, where: str) -> tuple[tuple[complex, int], ...]:
    if not isinstance(value, list):
        _fail(f"{where}: expected a list of groups")
    out = []
    for k, entry in enumerate(value):
        mean = count = None
        if isinstance(entry, dict):
            mean, count = _cpx_in(entry.get("value")), entry.get("count")
        if mean is None or type(count) is not int or count < 1:
            mean, count = _group_in(entry, f"{where}[{k}]")
        out.append((mean, count))
    return tuple(out)


def _group_in(entry: Any, where: str) -> tuple[complex, int]:
    """One group, checked field by field so that an error names the field."""
    mean = _as_cpx(_get(entry, "value", list, where), f"{where}.value")
    count = _get(entry, "count", int, where)
    if count < 1:
        _fail(f"{where}: count must be positive")
    return mean, count


def _edge_out(edge: EdgeStep) -> dict:
    return {"matrix": edge.l + 1, "row": edge.i + 1, "col": edge.j + 1, "invert": edge.invert}


def _edge_in(value: Any, where: str) -> EdgeStep:
    l, i, j = _at_in(value, where)
    return EdgeStep(l, i, j, _get(value, "invert", bool, where))


def _paths_out(paths) -> dict:
    row_path, col_path = paths
    return {
        "row": [_edge_out(e) for e in row_path],
        "col": [_edge_out(e) for e in col_path],
    }


def _paths_in(value: Any, where: str):
    row = _get(value, "row", list, where)
    col = _get(value, "col", list, where)
    return (
        tuple(_edge_in(e, f"{where}.row[{k}]") for k, e in enumerate(row)),
        tuple(_edge_in(e, f"{where}.col[{k}]") for k, e in enumerate(col)),
    )


def _step_out(step: RefinementStep) -> dict:
    out = {
        "functional": step.functional,
        "at": _at_out(step.at),
        "touch": _touch_out(step.touch),
        "groups_a": _groups_out(step.groups_a),
        "groups_b": _groups_out(step.groups_b),
    }
    if step.pr_paths is not None:
        out["pr_paths"] = _paths_out(step.pr_paths)
    return out


def _step_in(value: Any, k: int) -> RefinementStep:
    """Certificate step ``k``.  Fields are read under names relative to the
    step, and the step's own name is put in front only of an error."""
    try:
        paths = None
        if isinstance(value, dict) and value.get("pr_paths") is not None:
            paths = _paths_in(value["pr_paths"], ".pr_paths")
        return RefinementStep(
            functional=_get(value, "functional", str, ""),
            at=_at_in(_get(value, "at", dict, ""), ".at"),
            touch=_touch_in(_get(value, "touch", dict, ""), ".touch"),
            groups_a=_groups_in(_get(value, "groups_a", list, ""), ".groups_a"),
            groups_b=_groups_in(_get(value, "groups_b", list, ""), ".groups_b"),
            pr_paths=paths,
        )
    except FormatError as exc:
        raise FormatError(f"certificate.steps[{k}]{exc}") from None


def document_format(data: Any) -> str:
    """Format tag of a parsed document, or a FormatError."""
    if not isinstance(data, dict) or "format" not in data:
        _fail("document has no format tag")
    tag = data["format"]
    if tag not in (INSTANCE_FORMAT, RESULT_FORMAT, FEATURES_FORMAT):
        _fail(f"unsupported format {tag!r}")
    return tag


def instance_to_json(inst: Instance) -> dict:
    m, n = inst.shape
    return {
        "format": INSTANCE_FORMAT,
        "mode": inst.mode,
        "name": inst.name,
        "shape": [m, n],
        "count": inst.count,
        "a": [_mat(x) for x in inst.a_mats],
        "b": [_mat(x) for x in inst.b_mats],
    }


def instance_from_json(data: Any) -> Instance:
    if document_format(data) != INSTANCE_FORMAT:
        _fail("not an instance document")
    mode = _get(data, "mode", str, "instance")
    if mode not in ("sus", "sueq"):
        _fail(f"instance: unknown mode {mode!r}")
    a_raw = _get(data, "a", list, "instance")
    b_raw = _get(data, "b", list, "instance")
    if not a_raw or not b_raw:
        _fail("instance: empty collection")
    a_mats = tuple(_as_mat(m, f"instance a[{k + 1}]") for k, m in enumerate(a_raw))
    b_mats = tuple(_as_mat(m, f"instance b[{k + 1}]") for k, m in enumerate(b_raw))
    name = data.get("name", "")
    if not isinstance(name, str):
        _fail("instance: name must be a string")
    shape = data.get("shape", list(a_mats[0].shape))
    if not (isinstance(shape, list) and all(map(_is_int, shape))) or shape != list(a_mats[0].shape):
        _fail("instance: declared shape disagrees with the matrices")
    count = data.get("count", len(a_mats))
    if not _is_int(count) or count != len(a_mats):
        _fail("instance: declared count disagrees with the matrices")
    return Instance(mode, a_mats, b_mats, name=name)


def certificate_to_json(cert: Certificate) -> dict:
    out: dict = {
        "mode": cert.mode,
        "kind": cert.kind,
        "target": cert.target,
        "at": _at_out(cert.at),
        "iterations": cert.iterations,
        "steps": [_step_out(s) for s in cert.steps],
    }
    if cert.a_value is not None:
        out["a_value"] = _cpx(cert.a_value)
        out["b_value"] = _cpx(cert.b_value)
    if cert.groups_a is not None:
        out["groups_a"] = _groups_out(cert.groups_a)
        out["groups_b"] = _groups_out(cert.groups_b)
    if cert.pr_paths is not None:
        out["pr_paths"] = _paths_out(cert.pr_paths)
    return out


def certificate_from_json(data: Any) -> Certificate:
    mode = _get(data, "mode", str, "certificate")
    kind = _get(data, "kind", str, "certificate")
    if mode not in ("sus", "sueq") or kind not in ("scalar", "eigenvalue"):
        _fail("certificate: unknown mode or kind")
    steps = tuple(_step_in(s, k) for k, s in enumerate(_get(data, "steps", list, "certificate")))
    a_value = b_value = None
    if "a_value" in data:
        a_value = _as_cpx(data["a_value"], "certificate.a_value")
        b_value = _as_cpx(_get(data, "b_value", list, "certificate"), "certificate.b_value")
    groups_a = groups_b = None
    if "groups_a" in data:
        groups_a = _groups_in(data["groups_a"], "certificate.groups_a")
        groups_b = _groups_in(_get(data, "groups_b", list, "certificate"), "certificate.groups_b")
    paths = None
    if data.get("pr_paths") is not None:
        paths = _paths_in(data["pr_paths"], "certificate.pr_paths")
    return Certificate(
        mode=mode,
        kind=kind,
        target=_get(data, "target", str, "certificate"),
        at=_at_in(_get(data, "at", dict, "certificate"), "certificate.at"),
        steps=steps,
        iterations=_get(data, "iterations", int, "certificate"),
        a_value=a_value,
        b_value=b_value,
        groups_a=groups_a,
        groups_b=groups_b,
        pr_paths=paths,
    )


def result_to_json(result: SolveResult) -> dict:
    return {
        "format": RESULT_FORMAT,
        "status": result.status,
        "mode": result.mode,
        "iterations": result.iterations,
        "residual": None if result.residual is None else _real(result.residual),
        "message": result.message,
        "u": None if result.u is None else _mat(result.u),
        "v": None if result.v is None else _mat(result.v),
        "certificate": None
        if result.certificate is None
        else certificate_to_json(result.certificate),
    }


def result_from_json(data: Any) -> SolveResult:
    if document_format(data) != RESULT_FORMAT:
        _fail("not a result document")
    status = _get(data, "status", str, "result")
    if status not in _STATUSES:
        _fail(f"result: unknown status {status!r}")
    mode = _get(data, "mode", str, "result")
    if mode not in ("sus", "sueq"):
        _fail(f"result: unknown mode {mode!r}")
    residual = data.get("residual")
    if residual is not None:
        if isinstance(residual, bool) or not isinstance(residual, (int, float)):
            _fail("result: residual must be a number or null")
        residual = _finite(residual, "result: residual")
    message = data.get("message", "")
    if not isinstance(message, str):
        _fail("result: message must be a string")
    u = None if data.get("u") is None else _as_mat(data["u"], "result.u")
    v = None if data.get("v") is None else _as_mat(data["v"], "result.v")
    cert = None
    if data.get("certificate") is not None:
        cert = certificate_from_json(data["certificate"])
    return SolveResult(
        status=status,
        mode=mode,
        iterations=_get(data, "iterations", int, "result"),
        u=u,
        v=v,
        certificate=cert,
        residual=residual,
        message=message,
    )


def _feature_step_out(step: FeatureStep) -> dict:
    return {
        "functional": step.functional,
        "at": _at_out(step.at),
        "touch": _touch_out(step.touch),
        "rows_sizes": list(step.rows_sizes),
        "cols_sizes": list(step.cols_sizes),
        "groups": _groups_out(step.groups),
    }


def _feature_step_in(value: Any, where: str) -> FeatureStep:
    return FeatureStep(
        functional=_get(value, "functional", str, where),
        at=_at_in(_get(value, "at", dict, where), f"{where}.at"),
        touch=_touch_in(_get(value, "touch", dict, where), f"{where}.touch"),
        rows_sizes=_sizes_in(_get(value, "rows_sizes", list, where), f"{where}.rows_sizes"),
        cols_sizes=_sizes_in(_get(value, "cols_sizes", list, where), f"{where}.cols_sizes"),
        groups=_groups_in(_get(value, "groups", list, where), f"{where}.groups"),
    )


def _sizes_in(value: Any, where: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(_is_int(s) and s >= 1 for s in value):
        _fail(f"{where}: expected a list of positive sizes")
    return tuple(value)


def features_to_json(features: CanonicalFeatures) -> dict:
    return {
        "format": FEATURES_FORMAT,
        "mode": features.mode,
        "shape": list(features.shape),
        "count": features.count,
        "steps": [_feature_step_out(s) for s in features.steps],
        "rows_sizes": list(features.rows_sizes),
        "cols_sizes": list(features.cols_sizes),
        "alphas": [
            {"matrix": l + 1, "class": i + 1, "value": _cpx(v)}
            for (l, i), v in features.alphas
        ],
        "scales": [
            {"matrix": l + 1, "row": i + 1, "col": j + 1, "value": _real(v)}
            for (l, i, j), v in features.scales
        ],
        "betas": [
            {"matrix": l + 1, "row": i + 1, "col": j + 1, "value": _cpx(v)}
            for (l, i, j), v in features.betas
        ],
        "components": [
            [_touch_out(vertex) for vertex in comp] for comp in features.components
        ],
    }


def features_from_json(data: Any) -> CanonicalFeatures:
    if document_format(data) != FEATURES_FORMAT:
        _fail("not a features document")
    mode = _get(data, "mode", str, "features")
    if mode not in ("sus", "sueq"):
        _fail(f"features: unknown mode {mode!r}")
    shape = _get(data, "shape", list, "features")
    if len(shape) != 2 or not all(_is_int(x) and x >= 1 for x in shape):
        _fail("features: bad shape")
    alphas = []
    for k, entry in enumerate(_get(data, "alphas", list, "features")):
        where = f"features.alphas[{k}]"
        l = _get(entry, "matrix", int, where)
        i = _get(entry, "class", int, where)
        if min(l, i) < 1:
            _fail(f"{where}: indices are one-based")
        alphas.append(((l - 1, i - 1), _as_cpx(_get(entry, "value", list, where), where)))
    scales = []
    for k, entry in enumerate(_get(data, "scales", list, "features")):
        where = f"features.scales[{k}]"
        at = _at_in(entry, where)
        scales.append((at, _get(entry, "value", float, where)))
    betas = []
    for k, entry in enumerate(_get(data, "betas", list, "features")):
        where = f"features.betas[{k}]"
        at = _at_in(entry, where)
        betas.append((at, _as_cpx(_get(entry, "value", list, where), where)))
    components = []
    for k, comp in enumerate(_get(data, "components", list, "features")):
        if not isinstance(comp, list):
            _fail(f"features.components[{k}]: expected a list")
        components.append(
            tuple(_touch_in(v, f"features.components[{k}][{t}]") for t, v in enumerate(comp))
        )
    return CanonicalFeatures(
        mode=mode,
        shape=(shape[0], shape[1]),
        count=_get(data, "count", int, "features"),
        steps=tuple(
            _feature_step_in(s, f"features.steps[{k}]")
            for k, s in enumerate(_get(data, "steps", list, "features"))
        ),
        rows_sizes=_sizes_in(_get(data, "rows_sizes", list, "features"), "features.rows_sizes"),
        cols_sizes=_sizes_in(_get(data, "cols_sizes", list, "features"), "features.cols_sizes"),
        alphas=tuple(alphas),
        scales=tuple(scales),
        betas=tuple(betas),
        components=tuple(components),
    )
