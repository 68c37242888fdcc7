"""JSON formats for instances, results, certificates, features and witnesses.

Four tagged document formats are written, and the first three are read:

* ``susim-instance/1``: the two matrix collections plus the mode;
* ``susim-result/1``: a solve outcome with witnesses or certificate;
* ``susim-features/1``: the canonical feature trace of one collection;
* ``susim-witness/1``: the ground truth of a generated instance.

Complex numbers are written as ``[re, im]`` pairs, matrices as nested row
lists of such pairs.  All matrix, row, column and class indices are
one-based in the documents and converted at this boundary; in-memory
objects stay zero-based throughout the library.

Every document object is a table of ``(key, kind, presence)`` rows, which
:func:`_read` decodes and :func:`_write` encodes.  A kind has one decoder
and one encoder.  A presence is *required*, *optional* (the key may be
absent; None is not written) or *nullable* (absent or null; None is
written as null).  A field of the wrong JSON type, or whose value is out of
range, non-finite or unknown, is refused as ``<where>: key 'k' <problem>``;
a fault inside a nested value is named by its path, such as
``certificate.steps[0].groups_a[1].value`` or ``instance a[1] row 2``.
"""

from __future__ import annotations

import cmath
import math
from collections import deque, namedtuple
from functools import partial
from itertools import repeat
from operator import attrgetter
from typing import Any, Callable, NoReturn

import numpy as np

from .errors import FormatError
from .model import (
    FAILED, GRAM_LEFT, GRAM_RIGHT, HERM_IMAG, HERM_REAL, NOT_SIMILAR, PR_NORMAL, SOLVED,
    CanonicalFeatures, Certificate, EdgeStep, FeatureStep, Instance, RefinementStep, SolveResult,
)

__all__ = [
    "INSTANCE_FORMAT",
    "RESULT_FORMAT",
    "FEATURES_FORMAT",
    "matrix_to_json",
    "instance_to_json",
    "instance_from_json",
    "result_to_json",
    "result_from_json",
    "features_to_json",
    "features_from_json",
    "witness_to_json",
    "document_format",
]

INSTANCE_FORMAT = "susim-instance/1"
RESULT_FORMAT = "susim-result/1"
FEATURES_FORMAT = "susim-features/1"


def _fail(msg: str) -> NoReturn:
    raise FormatError(msg)


def _bad(where: str, key: str, problem: str) -> NoReturn:
    """Refuse the value of ``key`` in the object named ``where``."""
    _fail(f"{where}: key {key!r} {problem}")


def _is_int(x: Any) -> bool:
    """Whether ``x`` is an integer; JSON ``true`` and ``2.0`` are not."""
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


def _lists(a: np.ndarray, what: str) -> list:
    """The entries of ``a`` as nested lists, a complex entry as its ``[re, im]``
    pair.  Like :func:`_real`, refuses non-finite entries, in one check."""
    if not np.isfinite(a).all():
        raise ValueError(f"a document cannot hold {what} with non-finite entries")
    if np.iscomplexobj(a):
        a = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64).reshape(a.shape + (2,))
    return a.tolist()


def matrix_to_json(m: np.ndarray) -> list[list[list[float]]]:
    """Encode one matrix the same way the document formats do."""
    return _lists(np.asarray(m, dtype=np.complex128), "a matrix")


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


# -- tables, and the walker that reads and writes them ---------------------------

_REQUIRED, _OPTIONAL, _NULLABLE = "required", "optional", "nullable"


def _same(x: Any) -> Any:
    return x


# A kind reads and writes one field.  ``types`` are the JSON types the field
# may hold, booleans only if ``bool`` is named; ``decode(value, where, key)``
# reads the value of ``key`` in the object named ``where``; ``encode`` writes it.
_Kind = namedtuple("_Kind", "types decode encode")
# A table lists an object's (key, kind, presence) rows in document order.
# ``build`` makes the object from its decoded fields by key, and ``get`` lists
# an object's values in row order.
_Table = namedtuple("_Table", "rows build get")


def _table(build, *rows, get=_same) -> _Table:
    """A table of ``(key, kind, presence)`` rows; a row without a presence is
    required.  By default an object is the tuple of its values."""
    return _Table(tuple((*row, _REQUIRED)[:3] for row in rows), build, get)


def _record(make, *rows) -> _Table:
    """The table of an object whose attributes are named like the keys;
    ``make`` takes the decoded fields as keyword arguments."""
    return _table(lambda fields: make(**fields), *rows, get=attrgetter(*(row[0] for row in rows)))


def _read(table: _Table, data: Any, where: str) -> Any:
    if not isinstance(data, dict):
        _fail(f"{where}: expected an object")
    fields = {}
    for key, kind, presence in table.rows:
        if key not in data:
            if presence is _REQUIRED:
                _fail(f"{where}: missing key {key!r}")
            continue
        value = data[key]
        if value is None and presence is _NULLABLE:
            fields[key] = None
        elif isinstance(value, kind.types) and (type(value) is not bool or bool in kind.types):
            fields[key] = kind.decode(value, where, key)
        else:
            _bad(where, key, "has the wrong type")
    return table.build(fields)


def _write(table: _Table, obj: Any) -> dict:
    out = {}
    for (key, kind, presence), value in zip(table.rows, table.get(obj)):
        if value is not None:
            out[key] = kind.encode(value)
        elif presence is not _OPTIONAL:
            out[key] = None
    return out


def _as_is(value: Any, where: str, key: str) -> Any:
    return value


def _path(decode: Callable[[Any, str], Any]) -> Callable[[Any, str, str], Any]:
    """The field decoder of a nested value, whose faults are named by its path."""
    return lambda value, where, key: decode(value, f"{where}.{key}")


def _enum(*values: str) -> _Kind:
    def decode(value, where, key):
        if value not in values:
            _bad(where, key, f"has an unknown value {value!r}")
        return value

    return _Kind((str,), decode, _same)


def _at_least(low: int, shift: int = 0) -> _Kind:
    """An integer of at least ``low``, held in memory less ``shift``."""

    def decode(value, where, key):
        if value < low:
            _bad(where, key, f"must be at least {low}")
        return value - shift

    return _Kind((int,), decode, (lambda value: value + shift) if shift else _same)


def _finite(value: int | float, where: str, key: str) -> float:
    try:
        x = float(value)
    except OverflowError:  # an integer literal beyond the float range
        x = math.inf
    if not math.isfinite(x):
        _bad(where, key, "must be a finite number")
    return x


def _mats_in(value: list, where: str, key: str) -> tuple[np.ndarray, ...]:
    if not value:
        _fail(f"{where}: empty collection")
    return tuple(_as_mat(m, f"{where} {key}[{k + 1}]") for k, m in enumerate(value))


def _sizes_in(value: list, path: str) -> tuple[int, ...]:
    if not all(_is_int(s) and s >= 1 for s in value):
        _fail(f"{path}: expected a list of positive sizes")
    return tuple(value)


def _shape_in(value: list, where: str, key: str) -> tuple[int, int]:
    if len(value) != 2 or not all(_is_int(x) and x >= 1 for x in value):
        _fail(f"{where}: bad shape")
    return (value[0], value[1])


def _components_in(value: list, path: str) -> tuple:
    comps = []
    for k, comp in enumerate(value):
        if not isinstance(comp, list):
            _fail(f"{path}[{k}]: expected a list")
        comps.append(tuple(_read(_TOUCH, v, f"{path}[{k}][{t}]") for t, v in enumerate(comp)))
    return tuple(comps)


def _nested(table: _Table) -> _Kind:
    return _Kind((dict,), _path(partial(_read, table)), partial(_write, table))


def _list(table: _Table, fast=None, encode=None) -> _Kind:
    """A list of ``table`` objects.  Leaf lists, which can be long, give a
    comprehension ``encode`` and a ``fast`` decoder of a well-formed entry,
    which returns None for the walker to read the entry and name its fault."""

    def decode(value, path):
        return tuple(
            [
                fast and type(x) is dict and fast(x) or _read(table, x, f"{path}[{k}]")
                for k, x in enumerate(value)
            ]
        )

    return _Kind((list,), _path(decode), encode or (lambda items: [_write(table, x) for x in items]))


def _columns(keys: tuple[str, ...], value: _Kind, encode: Callable) -> _Kind:
    """A list of feature entries, each its one-based ``keys`` and a ``value``,
    held as two columns: an int array of the zero-based keys, one row per
    entry, and an array of the values.  A well-formed list is read in bulk;
    any other is walked entry by entry, which names the first faulty entry.
    ``encode`` writes the entries from one list per key, one-based, and the
    list of values."""
    table = _table(_located, *((key, _INDEX) for key in keys), ("value", value))
    dtype = np.complex128 if value is _COMPLEX else np.float64

    def decode(entries, path):
        columns = _bulk_columns(entries, keys, dtype)
        if columns is not None:
            return columns
        located = [_read(table, x, f"{path}[{k}]") for k, x in enumerate(entries)]
        try:
            at = np.array([at for at, _ in located], dtype=np.intp).reshape(-1, len(keys))
        except OverflowError:
            _fail(f"{path}: an index is out of range")
        return at, np.array([x for _, x in located], dtype=dtype)

    def write(columns):
        at, values = columns
        return encode(*(at + 1).T.tolist(), _lists(values, "feature values"))

    return _Kind((list,), _path(decode), write)


def _bulk_columns(entries: list, keys: tuple[str, ...], dtype) -> tuple | None:
    """The columns of a list of well-formed feature entries, whose indices
    are integers of at least 1 and whose values are finite floats, or pairs
    of them; None for any other list."""
    if list(map(type, entries)).count(dict) != len(entries):
        return None
    try:
        at = [entry[key] for entry in entries for key in keys]
        values = [entry["value"] for entry in entries]
    except KeyError:
        return None
    if dtype is np.complex128:
        values = _pair_entries(values)
    if values is None or list(map(type, values)).count(float) != len(values):
        return None
    if list(map(type, at)).count(int) != len(at):
        return None
    try:
        at = np.array(at, dtype=np.intp).reshape(-1, len(keys))
    except OverflowError:
        return None
    values = np.array(values, dtype=np.float64)
    if (at.size and at.min() < 1) or not np.isfinite(values).all():
        return None
    return at - 1, values.view(dtype)


def _group_fast(entry: dict) -> tuple[complex, int] | None:
    mean, count = _cpx_in(entry.get("value")), entry.get("count")
    return (mean, count) if mean is not None and type(count) is int and count >= 1 else None


def _fields(fields: dict) -> tuple:
    """A value held as the tuple of its fields in row order."""
    return tuple(fields.values())


def _located(fields: dict) -> tuple:
    """A feature entry: the tuple of its indices, then its value."""
    return (_fields(fields)[:-1], fields["value"])


_STRING, _BOOL = _Kind((str,), _as_is, _same), _Kind((bool,), _as_is, _same)
_MODE = _enum("sus", "sueq")
_COUNT, _POSITIVE, _INDEX = _at_least(0), _at_least(1), _at_least(1, 1)
_REAL = _Kind((int, float), _finite, _real)
_COMPLEX = _Kind((list,), _path(_as_cpx), _cpx)
_MATRIX = _Kind((list,), _path(_as_mat), matrix_to_json)
_MATRICES = _Kind((list,), _mats_in, lambda mats: [matrix_to_json(m) for m in mats])
_SIZES = _Kind((list,), _path(_sizes_in), list)
_SHAPE = _Kind((list,), _shape_in, list)
_DECLARED = _Kind((object, bool), _as_is, _same)  # any value, checked against the matrices

_AT = _table(_fields, ("matrix", _INDEX), ("row", _INDEX), ("col", _INDEX))
_TOUCH = _table(_fields, ("axis", _enum("row", "col")), ("index", _INDEX))
_EDGE = _table(
    lambda fields: EdgeStep(*fields.values()), *_AT.rows, ("invert", _BOOL),
    get=attrgetter("l", "i", "j", "invert"),
)
_PATHS = _table(_fields, ("row", _list(_EDGE)), ("col", _list(_EDGE)))
_GROUPS = _list(
    _table(_fields, ("value", _COMPLEX), ("count", _POSITIVE)),
    _group_fast,
    lambda groups: [{"value": _cpx(mean), "count": int(count)} for mean, count in groups],
)
_FUNCTIONAL_NAMES = (HERM_REAL, HERM_IMAG, GRAM_LEFT, GRAM_RIGHT, PR_NORMAL)
_STEP = _record(
    RefinementStep,
    ("functional", _enum(*_FUNCTIONAL_NAMES)), ("at", _nested(_AT)), ("touch", _nested(_TOUCH)),
    ("groups_a", _GROUPS), ("groups_b", _GROUPS),
    ("pr_paths", _nested(_PATHS), _OPTIONAL),
)


# The targets a certificate of each kind may name, and the values it carries.
_CERTIFICATE_KINDS = {
    "scalar": (("diag_alpha", "pr_beta"), ("a_value", "b_value")),
    "eigenvalue": (_FUNCTIONAL_NAMES, ("groups_a", "groups_b")),
}


def _certificate(**fields) -> Certificate:
    """A certificate names a target of its kind and carries that kind's values only."""
    kind, target = fields["kind"], fields["target"]
    targets, values = _CERTIFICATE_KINDS[kind]
    if target not in targets:
        _bad("certificate", "target", f"has an unknown value {target!r} for kind {kind!r}")
    for key in ("a_value", "b_value", "groups_a", "groups_b"):
        if key in values and key not in fields:
            _fail(f"certificate: missing key {key!r}")
        if key in fields and key not in values:
            _bad("certificate", key, f"does not belong to kind {kind!r}")
    return Certificate(**fields)


_CERTIFICATE = _record(
    _certificate,
    ("mode", _MODE), ("kind", _enum(*_CERTIFICATE_KINDS)), ("target", _STRING),
    ("at", _nested(_AT)), ("iterations", _COUNT), ("steps", _list(_STEP)),
    ("a_value", _COMPLEX, _OPTIONAL), ("b_value", _COMPLEX, _OPTIONAL),
    ("groups_a", _GROUPS, _OPTIONAL), ("groups_b", _GROUPS, _OPTIONAL),
    ("pr_paths", _nested(_PATHS), _OPTIONAL),
)
# A certificate's faults are named from "certificate", also inside a result.
_CERTIFICATE_KIND = _Kind(
    (dict,), lambda value, where, key: _read(_CERTIFICATE, value, key), partial(_write, _CERTIFICATE)
)
_RESULT = _record(
    SolveResult,
    ("status", _enum(SOLVED, NOT_SIMILAR, FAILED)), ("mode", _MODE), ("iterations", _COUNT),
    ("residual", _REAL, _NULLABLE), ("message", _STRING, _OPTIONAL),
    ("u", _MATRIX, _NULLABLE), ("v", _MATRIX, _NULLABLE),
    ("certificate", _CERTIFICATE_KIND, _NULLABLE),
)


def _instance(fields: dict) -> Instance:
    """The instance, once its declared shape and count agree with the matrices."""
    a_mats = fields["a"]
    for key, actual in (("shape", list(a_mats[0].shape)), ("count", len(a_mats))):
        declared = fields.get(key, actual)
        if declared != actual or not all(map(_is_int, declared if key == "shape" else [declared])):
            _fail(f"instance: declared {key} disagrees with the matrices")
    return Instance(fields["mode"], a_mats, fields["b"], name=fields.get("name", ""))


_INSTANCE = _table(
    _instance,
    ("mode", _MODE), ("name", _STRING, _OPTIONAL),
    ("shape", _DECLARED, _OPTIONAL), ("count", _DECLARED, _OPTIONAL),
    ("a", _MATRICES), ("b", _MATRICES),
    get=lambda inst: (inst.mode, inst.name, list(inst.shape), inst.count, inst.a_mats, inst.b_mats),
)


def _edge_entries(ls: list, rows: list, cols: list, values: list) -> list[dict]:
    return [
        {"matrix": l, "row": i, "col": j, "value": v} for l, i, j, v in zip(ls, rows, cols, values)
    ]


def _alpha_keys(shape: tuple[int, int]) -> np.ndarray:
    """The ``(l, i)`` key of each diagonal scalar, in the order of the array."""
    return np.indices(shape).reshape(2, -1).T


def _features(fields: dict) -> CanonicalFeatures:
    """The features, once the alphas list every class of every matrix in
    order and the betas name the edges of the scales."""
    shape = (fields["count"], len(fields["rows_sizes"]) if fields["mode"] == "sus" else 0)
    at, alphas = fields["alphas"]
    if len(at) != shape[0] * shape[1] or not np.array_equal(at, _alpha_keys(shape)):
        _bad("features", "alphas", "must list every class of every matrix in order")
    edges, scales = fields["scales"]
    at, betas = fields["betas"]
    if not np.array_equal(at, edges):
        _bad("features", "betas", "must name the edges of 'scales' in order")
    arrays = dict(alphas=alphas.reshape(shape), edges=edges, scales=scales, betas=betas)
    return CanonicalFeatures(**{**fields, **arrays})


_FEATURE_STEP = _record(
    FeatureStep,
    ("functional", _enum(*_FUNCTIONAL_NAMES)), ("at", _nested(_AT)), ("touch", _nested(_TOUCH)),
    ("rows_sizes", _SIZES), ("cols_sizes", _SIZES), ("groups", _GROUPS),
)
_ALPHAS = _columns(
    ("matrix", "class"),
    _COMPLEX,
    lambda ls, classes, values: [
        {"matrix": l, "class": i, "value": v} for l, i, v in zip(ls, classes, values)
    ],
)
_SCALES = _columns(("matrix", "row", "col"), _REAL, _edge_entries)
_BETAS = _columns(("matrix", "row", "col"), _COMPLEX, _edge_entries)
_COMPONENTS = _Kind(
    (list,),
    _path(_components_in),
    lambda comps: [[_write(_TOUCH, vertex) for vertex in comp] for comp in comps],
)
_FEATURES = _table(
    _features,
    ("mode", _MODE), ("shape", _SHAPE), ("count", _POSITIVE), ("steps", _list(_FEATURE_STEP)),
    ("rows_sizes", _SIZES), ("cols_sizes", _SIZES),
    ("alphas", _ALPHAS), ("scales", _SCALES), ("betas", _BETAS), ("components", _COMPONENTS),
    get=lambda f: (
        f.mode, f.shape, f.count, f.steps, f.rows_sizes, f.cols_sizes,
        (_alpha_keys(f.alphas.shape), f.alphas.ravel()), (f.edges, f.scales), (f.edges, f.betas),
        f.components,
    ),
)
_WORD = _table(
    None,
    ("letters", _Kind((list,), None, lambda letters: [k + 1 for k in letters])),
    ("text", _STRING), ("trace_a", _COMPLEX), ("trace_b", _COMPLEX),
)
_WITNESS = _table(
    None,
    ("kind", _STRING), ("seed", _COUNT), ("u", _MATRIX, _OPTIONAL), ("v", _MATRIX, _OPTIONAL),
    ("planned_iterations", _COUNT, _OPTIONAL), ("word", _nested(_WORD), _OPTIONAL),
)


# -- documents ------------------------------------------------------------------


def document_format(data: Any) -> str:
    """Format tag of a parsed document, or a FormatError."""
    if not isinstance(data, dict) or "format" not in data:
        _fail("document has no format tag")
    tag = data["format"]
    if tag not in (INSTANCE_FORMAT, RESULT_FORMAT, FEATURES_FORMAT):
        _fail(f"unsupported format {tag!r}")
    return tag


def instance_to_json(inst: Instance) -> dict:
    return {"format": INSTANCE_FORMAT, **_write(_INSTANCE, inst)}


def instance_from_json(data: Any) -> Instance:
    if document_format(data) != INSTANCE_FORMAT:
        _fail("not an instance document")
    return _read(_INSTANCE, data, "instance")


def result_to_json(result: SolveResult) -> dict:
    return {"format": RESULT_FORMAT, **_write(_RESULT, result)}


def result_from_json(data: Any) -> SolveResult:
    if document_format(data) != RESULT_FORMAT:
        _fail("not a result document")
    return _read(_RESULT, data, "result")


def features_to_json(features: CanonicalFeatures) -> dict:
    return {"format": FEATURES_FORMAT, **_write(_FEATURES, features)}


def features_from_json(data: Any) -> CanonicalFeatures:
    if document_format(data) != FEATURES_FORMAT:
        _fail("not a features document")
    return _read(_FEATURES, data, "features")


def witness_to_json(meta: dict) -> dict:
    """The ``susim-witness/1`` document of a generated instance, from the
    metadata that ``instances.generate`` returns with it."""
    word = meta.get("certifying_word")
    if word is not None:
        word = (word.letters, meta["word_text"], word.trace_a, word.trace_b)
    optional = [meta.get(key) for key in ("witness_u", "witness_v", "planned_iterations")]
    values = (meta["kind"], meta["seed"], *optional, word)
    return {"format": "susim-witness/1", **_write(_WITNESS, values)}
