"""Canonical features held as arrays write, read and compare as entries did.

``CanonicalFeatures`` holds the values of the refined form as arrays:
``alphas`` by matrix and class, and ``scales`` and ``betas`` by the rows of
``edges``.  Before that, each value was a ``(key, value)`` tuple, and the
document writer and the comparison walked them one by one.  This module
keeps that tuple layout and both walkers as references:

* ``features_to_json`` writes the same bytes as the entry-by-entry writer,
  over the golden kinds at seeds 0-19 and over the benchmark's full-size
  dense similarity, deep split and equivalence pools, and the document
  reads back to equal features;
* ``compare_features`` gives the same verdict and the same lines as the
  entry-by-entry comparison on golden and noisy, scaled A/B pairs, and on
  values moved to either side of the grouping tolerance; where the keys
  differ, it names the first difference instead of printing both lists.
"""

import math
from dataclasses import replace

import numpy as np
import orjson
import pytest
from test_fuzz import noisy_scaled
from test_golden import CONFIGS
from test_singleton_cells import pool

from susim import serialize
from susim.canonical import compare_features, extract_features
from susim.errors import FormatError, SusimError
from susim.instances import GenConfig, generate
from susim.linalg import DEFAULT_TOLERANCES
from susim.serialize import FEATURES_FORMAT, features_from_json, features_to_json

TOL = DEFAULT_TOLERANCES
SEEDS = range(20)
POOLS = ("DENSE", "DEEP", "EQUIV")
VALUES = ("alphas", "scales", "betas")


def golden_configs():
    for cfg in CONFIGS:
        for seed in SEEDS:
            yield GenConfig(seed=seed, **cfg)


def both_sides(inst):
    return [extract_features(mats, mode=inst.mode) for mats in (inst.a_mats, inst.b_mats)]


# -- the tuple layout and its walkers ----------------------------------------------


def tuple_layout(f) -> dict:
    """``alphas``, ``scales`` and ``betas`` as tuples of ``(key, value)``
    entries in scan order, the way the features held them before arrays."""
    edges = [tuple(e) for e in f.edges.tolist()]
    return {
        "alphas": tuple(zip(np.ndindex(f.alphas.shape), f.alphas.ravel().tolist())),
        "scales": tuple(zip(edges, f.scales.tolist())),
        "betas": tuple(zip(edges, f.betas.tolist())),
    }


def real(x):
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"a document cannot hold the non-finite number {x}")
    return x


def cpx(z):
    z = complex(z)
    return [real(z.real), real(z.imag)]


def reference_document(f) -> dict:
    """The features document, its values written entry by entry."""
    t = tuple_layout(f)
    return {
        "format": FEATURES_FORMAT,
        "mode": f.mode,
        "shape": list(f.shape),
        "count": f.count,
        "steps": [serialize._write(serialize._FEATURE_STEP, step) for step in f.steps],
        "rows_sizes": list(f.rows_sizes),
        "cols_sizes": list(f.cols_sizes),
        "alphas": [
            {"matrix": l + 1, "class": i + 1, "value": cpx(v)} for (l, i), v in t["alphas"]
        ],
        "scales": [
            {"matrix": l + 1, "row": i + 1, "col": j + 1, "value": real(v)}
            for (l, i, j), v in t["scales"]
        ],
        "betas": [
            {"matrix": l + 1, "row": i + 1, "col": j + 1, "value": cpx(v)}
            for (l, i, j), v in t["betas"]
        ],
        "components": [[{"axis": a, "index": k + 1} for a, k in comp] for comp in f.components],
    }


def close(a, b, tol):
    return abs(complex(a) - complex(b)) <= tol.group * (1.0 + max(abs(a), abs(b)))


def reference_compare(fa, fb, tol=TOL):
    """The comparison that walked the tuple layout entry by entry."""
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
            elif any(not close(va, vb, tol) for (va, _), (vb, _) in zip(sa.groups, sb.groups)):
                diffs.append(f"step {k} group values differ")
    layout_a, layout_b = tuple_layout(fa), tuple_layout(fb)
    for field in VALUES:
        ta, tb = layout_a[field], layout_b[field]
        if [k for k, _ in ta] != [k for k, _ in tb]:
            diffs.append(f"{field} keys: {[k for k, _ in ta]} != {[k for k, _ in tb]}")
        else:
            for (key, va), (_, vb) in zip(ta, tb):
                if not close(va, vb, tol):
                    diffs.append(f"{field}[{key}]: {va} != {vb}")
    return not diffs, diffs


# -- documents ----------------------------------------------------------------------


def assert_same_document(f):
    raw = orjson.dumps(features_to_json(f))
    assert raw == orjson.dumps(reference_document(f))
    assert features_from_json(orjson.loads(raw)) == f


def test_golden_documents_are_byte_identical():
    for config in golden_configs():
        inst, _ = generate(config)
        for f in both_sides(inst):
            assert_same_document(f)


@pytest.mark.parametrize("kind", POOLS)
def test_full_size_pool_documents_are_byte_identical(kind):
    edges = []
    for inst in pool(kind, 101):
        for f in both_sides(inst):
            assert_same_document(f)
            edges.append(len(f.edges))
    # The edges per side of each pool's first entry, which the codec walks.
    assert edges[0] == {"DENSE": 4680, "DEEP": 0, "EQUIV": 630}[kind]


def test_a_document_refuses_alphas_off_their_grid():
    inst, _ = generate(GenConfig(kind="planted_similar", n=6, count=2, seed=1))
    doc = features_to_json(extract_features(inst.a_mats))
    del doc["alphas"][1]
    with pytest.raises(FormatError) as info:
        features_from_json(doc)
    assert str(info.value) == (
        "features: key 'alphas' must list every class of every matrix in order"
    )


def test_a_document_refuses_betas_on_other_edges():
    f = extract_features(pool("DENSE", 101)[0].a_mats, mode="sus")
    doc = features_to_json(f)
    del doc["betas"][7]
    with pytest.raises(FormatError) as info:
        features_from_json(doc)
    assert str(info.value) == "features: key 'betas' must name the edges of 'scales' in order"


def test_a_faulty_entry_is_named_past_the_bulk_read():
    doc = features_to_json(extract_features(pool("DENSE", 101)[0].a_mats, mode="sus"))
    doc["betas"][4000]["row"] = 0
    with pytest.raises(FormatError) as info:
        features_from_json(doc)
    assert str(info.value) == "features.betas[4000]: key 'row' must be at least 1"


def test_an_index_beyond_the_integer_range_is_refused():
    doc = features_to_json(extract_features(pool("DENSE", 101)[0].a_mats, mode="sus"))
    doc["scales"][3]["col"] = 2**70
    with pytest.raises(FormatError) as info:
        features_from_json(doc)
    assert str(info.value) == "features.scales: an index is out of range"


def test_an_integer_value_reads_as_its_float():
    a1 = np.diag([2.0, 2.0, 1.0, 1.0]).astype(complex)
    a2 = np.zeros((4, 4), dtype=complex)
    a2[0:2, 2:4] = 3.0 * np.eye(2)
    f = extract_features([a1, a2])
    doc = features_to_json(f)
    assert doc["scales"] == [{"matrix": 2, "row": 1, "col": 2, "value": 9.0}]
    doc["scales"][0]["value"] = 9
    assert features_from_json(doc) == f


# -- comparison ---------------------------------------------------------------------


def assert_same_comparison(fa, fb):
    assert compare_features(fa, fb) == reference_compare(fa, fb)


def test_golden_pairs_compare_as_before():
    verdicts = set()
    for config in golden_configs():
        inst, _ = generate(config)
        fa, fb = both_sides(inst)
        assert_same_comparison(fa, fb)
        verdicts.add(compare_features(fa, fb)[0])
    assert verdicts == {True, False}


def test_noisy_scaled_pairs_compare_as_before():
    compared = 0
    for config in golden_configs():
        inst = noisy_scaled(config)
        try:
            fa, fb = both_sides(inst)
        except SusimError:  # no stable fingerprint of one side
            continue
        assert_same_comparison(fa, fb)
        compared += 1
    assert compared > 60


def moved(f, field, k, factor):
    """``f`` with value ``k`` of ``field`` moved towards zero by ``factor``
    times its grouping tolerance."""
    values = getattr(f, field).copy()
    flat = values.reshape(-1)
    v = flat[k]
    flat[k] = v - factor * TOL.group * (1.0 + abs(v)) * v / abs(v)
    return replace(f, **{field: values})


@pytest.mark.parametrize("field", VALUES)
def test_values_either_side_of_the_grouping_tolerance(field):
    inst, _ = generate(GenConfig(kind="planted_similar", n=6, count=2, seed=1))
    f = extract_features(inst.a_mats)
    assert getattr(f, field).size > 3
    for step in (1e-3, 1e-6, 1e-9, 1e-12, 1e-15, 0.0):
        for sign in (-1, 1):
            inside = moved(f, field, 1, 1.0 - step)
            outside = moved(inside, field, 3, 1.0 + sign * step)
            assert_same_comparison(f, inside)
            assert_same_comparison(f, outside)
    assert compare_features(f, moved(f, field, 1, 0.999))[0]
    equal, diffs = compare_features(f, moved(moved(f, field, 1, 0.999), field, 3, 1.001))
    assert not equal and len(diffs) == 1 and diffs[0].startswith(f"{field}[")


def without_edge(f, k):
    return replace(
        f, **{name: np.delete(getattr(f, name), k, axis=0) for name in ("edges", "scales", "betas")}
    )


def test_a_missing_edge_changes_only_the_key_lines():
    f = extract_features(pool("DENSE", 101)[0].a_mats, mode="sus")
    g = without_edge(f, 100)
    (equal, lines), (ref_equal, ref_lines) = compare_features(f, g), reference_compare(f, g)
    assert not equal and not ref_equal
    assert [line.split(":")[0] for line in lines] == [line.split(":")[0] for line in ref_lines]
    assert lines == [
        f"{field} keys: entry 100 is {tuple(f.edges[100].tolist())} != "
        f"{tuple(f.edges[101].tolist())}, of 4680 != 4679 entries"
        for field in ("scales", "betas")
    ]
    assert all(len(line) < 100 < len(ref) for line, ref in zip(lines, ref_lines))
    assert compare_features(g, f)[1][0].endswith("of 4679 != 4680 entries")
    assert compare_features(without_edge(f, 4679), f)[1][0] == (
        f"scales keys: entry 4679 is none != {tuple(f.edges[4679].tolist())}, "
        "of 4679 != 4680 entries"
    )


def test_alphas_of_another_class_count_change_only_their_key_line():
    f, g = extract_features([np.diag([2.0, 2.0, 1.0])]), extract_features([np.diag([3.0, 2.0, 1.0])])
    (equal, lines), (_, ref_lines) = compare_features(f, g), reference_compare(f, g)
    assert not equal
    [k] = [k for k, line in enumerate(ref_lines) if line.startswith("alphas keys:")]
    key_line = "alphas keys: entry 2 is none != (0, 2), of 2 != 3 entries"
    assert lines == [*ref_lines[:k], key_line, *ref_lines[k + 1 :]]
