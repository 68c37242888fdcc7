"""Round trips and validation for the JSON document formats."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susim.canonical import compare_features, extract_features
from susim.certcheck import check_certificate
from susim.cli import main
from susim.errors import FormatError, SusimError
from susim.instances import GenConfig, generate, planted_equivalent, planted_similar
from susim.model import NOT_SIMILAR, SOLVED, Certificate, EdgeStep, Instance, RefinementStep, SolveResult
from susim.serialize import (
    FEATURES_FORMAT,
    INSTANCE_FORMAT,
    RESULT_FORMAT,
    document_format,
    features_from_json,
    features_to_json,
    instance_from_json,
    instance_to_json,
    matrix_to_json,
    result_from_json,
    result_to_json,
    witness_to_json,
)
from susim.solver import solve, solve_sus
from test_golden import CONFIGS


def roundtrip(data):
    return json.loads(json.dumps(data))


def pr_beta_instance():
    a1 = np.diag([2.0, 2.0, 1.0, 1.0]).astype(complex)
    a2 = np.zeros((4, 4), dtype=complex)
    a2[0:2, 2:4] = 2.0 * np.eye(2)
    a3 = np.zeros((4, 4), dtype=complex)
    a3[0:2, 2:4] = 2.0 * np.eye(2)
    b3 = np.zeros((4, 4), dtype=complex)
    b3[0:2, 2:4] = -2.0 * np.eye(2)
    return Instance("sus", [a1, a2, a3], [a1.copy(), a2.copy(), b3])


class TestInstanceDocuments:
    def test_roundtrip_is_exact(self):
        rng = np.random.default_rng(3)
        inst, _ = planted_equivalent(2, 4, 3, rng)
        doc = roundtrip(instance_to_json(inst))
        assert doc["format"] == INSTANCE_FORMAT
        back = instance_from_json(doc)
        assert back.mode == inst.mode
        assert back.name == inst.name
        for x, y in zip(inst.a_mats + inst.b_mats, back.a_mats + back.b_mats):
            assert np.array_equal(x, y)

    def test_entries_are_re_im_pairs(self):
        inst = Instance("sus", [np.array([[1 + 2j]])], [np.array([[3 - 4j]])])
        doc = instance_to_json(inst)
        assert doc["a"][0][0][0] == [1.0, 2.0]
        assert doc["b"][0][0][0] == [3.0, -4.0]

    @pytest.mark.parametrize(
        "size, count, declared",
        [
            (1, 1, {"shape": [True, True], "count": True}),
            (1, 1, {"count": True}),
            (2, 2, {"shape": [2.0, 2.0], "count": 2.0}),
            (2, 2, {"shape": [2.0, 2]}),
            (2, 2, {"count": 2.0}),
        ],
    )
    def test_declared_integers_refuse_booleans_and_floats(self, size, count, declared):
        # true and 2.0 compare equal to 1 and 2, but no integer field takes them.
        mats = [np.eye(size)] * count
        doc = dict(instance_to_json(Instance("sus", mats, mats)), **declared)
        with pytest.raises(FormatError, match="declared (shape|count) disagrees"):
            instance_from_json(doc)

    def test_declared_shape_and_count_are_checked(self):
        doc = instance_to_json(Instance("sus", [np.eye(2)], [np.eye(2)]))
        bad = dict(doc, shape=[3, 3])
        with pytest.raises(FormatError):
            instance_from_json(bad)
        bad = dict(doc, count=2)
        with pytest.raises(FormatError):
            instance_from_json(bad)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("format"),
            lambda d: d.update(format="susim-instance/9"),
            lambda d: d.update(mode="both"),
            lambda d: d.update(a=[]),
            lambda d: d["a"][0].append([[1.0, 0.0]]),
            lambda d: d["a"][0][0].__setitem__(0, [1.0]),
            lambda d: d["a"][0][0].__setitem__(0, [1.0, "x"]),
            lambda d: d.update(name=7),
        ],
    )
    def test_malformed_documents_are_rejected(self, mutate):
        inst = Instance("sus", [np.eye(2)], [np.eye(2)])
        doc = instance_to_json(inst)
        mutate(doc)
        with pytest.raises(FormatError):
            instance_from_json(doc)

    @settings(deadline=None, max_examples=50)
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=8,
            max_size=8,
        )
    )
    def test_float_values_survive_json_exactly(self, values):
        m = np.array(values[:4]).reshape(2, 2) + 1j * np.array(values[4:]).reshape(2, 2)
        inst = Instance("sus", [m], [m.copy()])
        back = instance_from_json(roundtrip(instance_to_json(inst)))
        assert np.array_equal(back.a_mats[0], m)


EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300)
entries = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)


@st.composite
def complex_matrices(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    re = draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
    im = draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
    m = np.empty((rows, cols), dtype=complex)
    m.real = np.reshape(re, (rows, cols))
    m.imag = np.reshape(im, (rows, cols))
    return m


def grid_document(grid) -> dict:
    return {"format": INSTANCE_FORMAT, "mode": "sueq", "a": [grid], "b": [grid]}


GOOD = [[1.0, 0.0], [0.0, 0.0]]
BAD_GRIDS = {
    "bool-pair": ([[[True, 1.0], [0.0, 0.0]], GOOD], "row 1"),
    "bool-im": ([GOOD, [[0.0, 0.0], [0, False]]], "row 2"),
    "numeric-string": ([GOOD, [["1.0", 0.0], [0.0, 0.0]]], "row 2"),
    "null": ([GOOD, [[None, 0.0], [0.0, 0.0]]], "row 2"),
    "ragged": ([GOOD, [[0.0, 0.0]]], "row 2 has length 1"),
    "empty-row": ([GOOD, []], "row 2"),
    "short-pair": ([GOOD, [[1.0], [0.0, 0.0]]], "row 2"),
    "long-pair": ([[[1.0, 0.0, 0.0], [0.0, 0.0]], GOOD], "row 1"),
    "bare-number": ([GOOD, [1.0, [0.0, 0.0]]], "row 2"),
    "two-char-string": ([GOOD, ["ab", [0.0, 0.0]]], "row 2"),
    "nested-pair": ([GOOD, [[[1.0, 0.0], 0.0], [0.0, 0.0]]], "row 2"),
    "row-not-a-list": ([GOOD, "row"], "row 2"),
    # Same number of entries as two pairs: only a per-cell length test sees it.
    "one-and-three": ([GOOD, [[1.0], [0.0, 0.0, 0.0]]], "row 2"),
    "two-key-object": ([GOOD, [{"re": 1.0, "im": 0.0}, [0.0, 0.0]]], "row 2"),
    "400-digit-integer": ([GOOD, [[10**400, 0.0], [0.0, 0.0]]], "entries must be finite numbers"),
    "no-rows": ([], "non-empty list of rows"),
    "not-a-list": ({"re": 1.0}, "non-empty list of rows"),
}


class TestMatrixCodec:
    @settings(deadline=None, max_examples=200)
    @given(complex_matrices())
    def test_emit_matches_the_reference_encoder(self, m):
        reference = [[[z.real, z.imag] for z in row] for row in m.tolist()]
        assert matrix_to_json(m) == reference
        assert json.dumps(matrix_to_json(m)) == json.dumps(reference)

    @settings(deadline=None, max_examples=200)
    @given(complex_matrices())
    def test_parse_is_bit_exact(self, m):
        back = instance_from_json(roundtrip(grid_document(matrix_to_json(m)))).a_mats[0]
        assert back.dtype == np.complex128 and back.shape == m.shape
        assert back.tobytes() == m.tobytes()

    @settings(deadline=None, max_examples=100)
    @given(st.lists(st.integers(-(2**70), 2**70), min_size=2, max_size=2))
    def test_integer_entries_convert_like_complex(self, pair):
        back = instance_from_json(grid_document([[pair]])).a_mats[0]
        assert back.tobytes() == np.array([[complex(*pair)]]).tobytes()

    @pytest.mark.parametrize("grid, where", BAD_GRIDS.values(), ids=BAD_GRIDS)
    def test_malformed_matrices_are_rejected(self, tmp_path, grid, where):
        with pytest.raises(FormatError, match=r"instance a\[1\]") as info:
            instance_from_json(grid_document(grid))
        assert where in str(info.value)
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(grid_document(grid)))
        assert main(["solve", str(path)]) == 64

    def test_malformed_witness_is_rejected(self):
        doc = result_to_json(solve(Instance("sus", [np.eye(2)], [np.eye(2)])))
        doc["u"][0][1] = [0.0, None]
        with pytest.raises(FormatError, match=r"result\.u row 1"):
            result_from_json(doc)


def eigenvalue_result_document() -> dict:
    """A not_similar result whose eigenvalue certificate holds groups at the
    certificate and in its first step."""
    a = [np.diag([3.0, 3.0, 1.0]).astype(complex), np.diag([1.0, 2.0, 5.0]).astype(complex)]
    b = [a[0].copy(), np.diag([1.0, 3.0, 5.0]).astype(complex)]
    return result_to_json(solve_sus(a, b))


BAD_SCALARS = {
    "bool-entry": [True, 0.0],
    "one-entry": [1.0],
    "two-char-string": "ab",
    "object": {"re": 1.0},
}


NON_FINITE = [10**400, float("nan"), float("inf")]
NON_FINITE_IDS = ["400-digit-integer", "nan", "inf"]


class TestScalarCodec:
    """Every certificate scalar goes through one [re, im] decoder; a
    malformed one is named by where it sits."""

    @pytest.mark.parametrize("scalar", BAD_SCALARS.values(), ids=BAD_SCALARS)
    def test_malformed_certificate_value(self, scalar):
        doc = result_to_json(solve(pr_beta_instance()))
        doc["certificate"]["a_value"] = scalar
        with pytest.raises(FormatError) as info:
            result_from_json(doc)
        if isinstance(scalar, list):
            assert str(info.value) == "certificate.a_value: expected a [re, im] pair"
        else:
            assert str(info.value) == "certificate: key 'a_value' has the wrong type"

    @pytest.mark.parametrize("scalar", BAD_SCALARS.values(), ids=BAD_SCALARS)
    @pytest.mark.parametrize("where", ["certificate", "certificate.steps[0]"])
    def test_malformed_group_value(self, scalar, where):
        doc = eigenvalue_result_document()
        cert = doc["certificate"]
        holder = cert if where == "certificate" else cert["steps"][0]
        holder["groups_a"][1]["value"] = scalar
        with pytest.raises(FormatError) as info:
            result_from_json(doc)
        if isinstance(scalar, list):
            assert str(info.value) == f"{where}.groups_a[1].value: expected a [re, im] pair"
        else:
            assert str(info.value) == f"{where}.groups_a[1]: key 'value' has the wrong type"

    @pytest.mark.parametrize("count", [0, True, 1.0, None])
    def test_malformed_group_count(self, count):
        doc = eigenvalue_result_document()
        doc["certificate"]["steps"][0]["groups_b"][0]["count"] = count
        with pytest.raises(FormatError, match=r"^certificate\.steps\[0\]\.groups_b\[0\]: "):
            result_from_json(doc)

    @pytest.mark.parametrize("value", NON_FINITE, ids=NON_FINITE_IDS)
    def test_non_finite_certificate_value(self, value):
        doc = result_to_json(solve(pr_beta_instance()))
        doc["certificate"]["b_value"] = [0.0, value]
        with pytest.raises(FormatError) as info:
            result_from_json(doc)
        assert str(info.value) == "certificate.b_value: entries must be finite numbers"

    def test_integer_and_float_entries_decode_alike(self):
        doc = result_to_json(solve(pr_beta_instance()))
        doc["certificate"]["a_value"] = [2, -3]
        assert result_from_json(doc).certificate.a_value == complex(2.0, -3.0)


class TestResultDocuments:
    def test_solved_roundtrip_keeps_witness(self):
        rng = np.random.default_rng(8)
        inst, _ = planted_similar(4, 2, rng)
        res = solve(inst)
        assert res.status == SOLVED
        doc = roundtrip(result_to_json(res))
        assert doc["format"] == RESULT_FORMAT
        back = result_from_json(doc)
        assert back.status == SOLVED
        assert back.iterations == res.iterations
        assert back.residual == res.residual
        assert np.array_equal(back.u, res.u)
        assert back.v is None and back.certificate is None

    def test_equivalence_result_carries_both_witnesses(self):
        rng = np.random.default_rng(9)
        inst, _ = planted_equivalent(3, 4, 2, rng)
        back = result_from_json(roundtrip(result_to_json(solve(inst))))
        assert back.u.shape == (3, 3)
        assert back.v.shape == (4, 4)

    def test_certificate_survives_and_still_checks(self):
        inst = pr_beta_instance()
        res = solve(inst)
        assert res.status == NOT_SIMILAR
        doc = roundtrip(result_to_json(res))
        assert doc["certificate"]["target"] == "pr_beta"
        assert doc["certificate"]["at"] == {"matrix": 3, "row": 1, "col": 2}
        back = result_from_json(doc)
        report = check_certificate(inst, back.certificate)
        assert report.confirmed, report.reason

    def test_eigenvalue_certificate_with_steps_roundtrips(self):
        a = [np.diag([3.0, 3.0, 1.0]).astype(complex), np.diag([1.0, 2.0, 5.0]).astype(complex)]
        b = [a[0].copy(), np.diag([1.0, 3.0, 5.0]).astype(complex)]
        res = solve_sus(a, b)
        assert res.status == NOT_SIMILAR
        assert res.certificate.steps
        back = result_from_json(roundtrip(result_to_json(res)))
        assert back.certificate == res.certificate
        assert check_certificate(Instance("sus", a, b), back.certificate).confirmed

    def test_indices_are_one_based_in_documents(self):
        a = [np.diag([3.0, 3.0, 1.0]).astype(complex), np.diag([1.0, 2.0, 5.0]).astype(complex)]
        b = [a[0].copy(), np.diag([1.0, 3.0, 5.0]).astype(complex)]
        res = solve_sus(a, b)
        doc = result_to_json(res)
        step = doc["certificate"]["steps"][0]
        assert step["at"]["matrix"] == 1
        assert step["touch"] == {"axis": "row", "index": 1}
        assert res.certificate.steps[0].at[0] == 0
        assert res.certificate.steps[0].touch == ("row", 0)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(status="done"),
            lambda d: d.update(mode="x"),
            lambda d: d.update(iterations="two"),
            lambda d: d.update(residual="small"),
            lambda d: d["certificate"].update(kind="spectral"),
            lambda d: d["certificate"]["steps"][0]["touch"].update(axis="diag"),
            lambda d: d["certificate"]["steps"][0]["groups_a"][0].update(count=0),
            lambda d: d["certificate"]["at"].update(matrix=0),
        ],
    )
    def test_malformed_results_are_rejected(self, mutate):
        a = [np.diag([3.0, 3.0, 1.0]).astype(complex), np.diag([1.0, 2.0, 5.0]).astype(complex)]
        b = [a[0].copy(), np.diag([1.0, 3.0, 5.0]).astype(complex)]
        doc = result_to_json(solve_sus(a, b))
        mutate(doc)
        with pytest.raises(FormatError):
            result_from_json(doc)


    @pytest.mark.parametrize("value", NON_FINITE, ids=NON_FINITE_IDS)
    def test_non_finite_residual(self, value):
        inst, _ = planted_similar(4, 2, np.random.default_rng(8))
        doc = result_to_json(solve(inst))
        doc["residual"] = value
        with pytest.raises(FormatError) as info:
            result_from_json(doc)
        assert str(info.value) == "result: key 'residual' must be a finite number"

    def test_boolean_residual(self):
        inst, _ = planted_similar(4, 2, np.random.default_rng(8))
        doc = result_to_json(solve(inst))
        doc["residual"] = True
        with pytest.raises(FormatError) as info:
            result_from_json(doc)
        assert str(info.value) == "result: key 'residual' has the wrong type"


class TestFeatureDocuments:
    def test_roundtrip_compares_equal(self):
        rng = np.random.default_rng(21)
        inst, _ = planted_similar(5, 2, rng, style="structured")
        feats = extract_features(inst.a_mats)
        doc = roundtrip(features_to_json(feats))
        assert doc["format"] == FEATURES_FORMAT
        back = features_from_json(doc)
        assert back == feats
        equal, diffs = compare_features(back, feats)
        assert equal and not diffs

    def test_component_vertices_are_one_based(self):
        inst = pr_beta_instance()
        feats = extract_features(inst.a_mats)
        doc = features_to_json(feats)
        indices = [v["index"] for comp in doc["components"] for v in comp]
        assert min(indices) == 1

    def test_malformed_features_are_rejected(self):
        feats = extract_features([np.diag([2.0, 1.0]).astype(complex)])
        doc = features_to_json(feats)
        bad = dict(doc, rows_sizes=[0, 2])
        with pytest.raises(FormatError):
            features_from_json(bad)
        bad = dict(doc, shape=[2])
        with pytest.raises(FormatError):
            features_from_json(bad)

    @pytest.mark.parametrize("shape", [[True, 2], [2, 2.0]])
    def test_shape_refuses_booleans_and_floats(self, shape):
        doc = features_to_json(extract_features([np.diag([2.0, 1.0]).astype(complex)]))
        with pytest.raises(FormatError, match="features: bad shape"):
            features_from_json(dict(doc, shape=shape))


    @pytest.mark.parametrize("value", NON_FINITE, ids=NON_FINITE_IDS)
    def test_non_finite_scale(self, value):
        doc = features_to_json(extract_features(pr_beta_instance().a_mats))
        doc["scales"][1]["value"] = value
        with pytest.raises(FormatError) as info:
            features_from_json(doc)
        assert str(info.value) == "features.scales[1]: key 'value' must be a finite number"


class TestIntegerRanges:
    """Iteration counts are at least 0 and a feature count at least 1."""

    @pytest.mark.parametrize("holder", ["result", "certificate"])
    def test_negative_iterations(self, holder):
        doc = result_to_json(solve(pr_beta_instance()))
        (doc if holder == "result" else doc["certificate"])["iterations"] = -3
        with pytest.raises(FormatError) as info:
            result_from_json(doc)
        assert str(info.value) == f"{holder}: key 'iterations' must be at least 0"

    @pytest.mark.parametrize("count", [0, -5])
    def test_feature_count_below_one(self, count):
        doc = features_to_json(extract_features(pr_beta_instance().a_mats))
        doc["count"] = count
        with pytest.raises(FormatError) as info:
            features_from_json(doc)
        assert str(info.value) == "features: key 'count' must be at least 1"


class TestPairedValues:
    """A certificate holds both values of a pair or neither, and a null
    ``pr_paths`` is refused like any other optional field's null."""

    @pytest.mark.parametrize(
        "drop, missing",
        [("a_value", "a_value"), ("b_value", "b_value")],
    )
    def test_scalar_pair(self, drop, missing):
        doc = result_to_json(solve(pr_beta_instance()))
        del doc["certificate"][drop]
        with pytest.raises(FormatError) as info:
            result_from_json(doc)
        assert str(info.value) == f"certificate: missing key {missing!r}"

    @pytest.mark.parametrize("drop", ["groups_a", "groups_b"])
    def test_group_pair(self, drop):
        doc = eigenvalue_result_document()
        del doc["certificate"][drop]
        with pytest.raises(FormatError) as info:
            result_from_json(doc)
        assert str(info.value) == f"certificate: missing key {drop!r}"

    @pytest.mark.parametrize("where", ["certificate", "certificate.steps[0]"])
    def test_null_pr_paths(self, where):
        doc = result_to_json(solve(pr_beta_instance()))
        cert = doc["certificate"]
        (cert if where == "certificate" else cert["steps"][0])["pr_paths"] = None
        with pytest.raises(FormatError) as info:
            result_from_json(doc)
        assert str(info.value) == f"{where}: key 'pr_paths' has the wrong type"


class TestCertificateKinds:
    """A certificate names a target of its kind and carries that kind's
    values only, and a step, also a feature step, names one of the five
    functionals."""

    @pytest.mark.parametrize(
        "kind, target",
        [("scalar", "bogus"), ("scalar", "herm_real"), ("eigenvalue", "diag_alpha")],
    )
    def test_target_of_another_kind(self, kind, target):
        doc = result_to_json(solve(pr_beta_instance()))
        doc["certificate"].update(kind=kind, target=target)
        with pytest.raises(FormatError) as info:
            result_from_json(doc)
        assert str(info.value) == (
            f"certificate: key 'target' has an unknown value {target!r} for kind {kind!r}"
        )

    def test_step_functional(self):
        doc = eigenvalue_result_document()
        doc["certificate"]["steps"][0]["functional"] = "bogus"
        with pytest.raises(FormatError) as info:
            result_from_json(doc)
        assert str(info.value) == (
            "certificate.steps[0]: key 'functional' has an unknown value 'bogus'"
        )

    def test_feature_step_functional(self, tmp_path, capsys):
        inst, _ = generate(GenConfig(kind="planted_similar", n=6, count=2, seed=1))
        paths = []
        for side, mats in (("a", inst.a_mats), ("b", inst.b_mats)):
            doc = features_to_json(extract_features(mats))
            if side == "b":
                doc["steps"][0]["functional"] = "bogus"
            (tmp_path / side).write_text(json.dumps(doc))
            paths.append(str(tmp_path / side))
        assert main(["diff", *paths]) == 64
        assert capsys.readouterr().err == (
            "susim: features.steps[0]: key 'functional' has an unknown value 'bogus'\n"
        )

    def test_scalar_without_values(self):
        doc = result_to_json(solve(pr_beta_instance()))
        del doc["certificate"]["a_value"], doc["certificate"]["b_value"]
        with pytest.raises(FormatError) as info:
            result_from_json(doc)
        assert str(info.value) == "certificate: missing key 'a_value'"

    def test_values_of_the_other_kind(self):
        scalar = result_to_json(solve(pr_beta_instance()))["certificate"]
        eigen = eigenvalue_result_document()
        eigen["certificate"].update(a_value=scalar["a_value"], b_value=scalar["b_value"])
        with pytest.raises(FormatError) as info:
            result_from_json(eigen)
        assert str(info.value) == "certificate: key 'a_value' does not belong to kind 'eigenvalue'"
        doc = result_to_json(solve(pr_beta_instance()))
        doc["certificate"]["groups_b"] = eigen["certificate"]["groups_b"]
        with pytest.raises(FormatError) as info:
            result_from_json(doc)
        assert str(info.value) == "certificate: key 'groups_b' does not belong to kind 'scalar'"


def key_sequences(doc, path="$", out=None) -> dict:
    """The key sequences of every object in ``doc``, by its path with the
    list indices left out."""
    out = {} if out is None else out
    if isinstance(doc, dict):
        out.setdefault(path, set()).add(tuple(doc))
        for key, value in doc.items():
            key_sequences(value, f"{path}.{key}", out)
    elif isinstance(doc, list):
        for item in doc:
            key_sequences(item, f"{path}[]", out)
    return out


AT = ("matrix", "row", "col")
TOUCH = ("axis", "index")
EDGE = (*AT, "invert")
GROUP = ("value", "count")
STEP = ("functional", "at", "touch", "groups_a", "groups_b")
RESULT = ("format", "status", "mode", "iterations", "residual", "message", "u", "v", "certificate")
CERTIFICATE = ("mode", "kind", "target", "at", "iterations", "steps")


def hand_certificate() -> Certificate:
    """A certificate holding every optional field: scalar values, groups,
    and path descriptors at the certificate and at one of its steps."""
    edge = EdgeStep(0, 0, 1, False)
    step = RefinementStep("hermitian", (0, 0, 0), ("row", 0), ((1j, 1),), ((1j, 1),))
    return Certificate(
        "sus", "scalar", "pr_beta", (1, 0, 1), (replace(step, pr_paths=((edge,), (edge,))), step),
        2, a_value=1j, b_value=2j, groups_a=((1j, 2),), groups_b=((2j, 2),),
        pr_paths=((edge, replace(edge, invert=True)), ()),
    )


class TestKeyOrder:
    """The emitted documents keep their key order, object by object."""

    def test_result_documents(self):
        inst, _ = planted_equivalent(3, 4, 2, np.random.default_rng(9))
        solved = key_sequences(result_to_json(solve(inst)))
        assert solved == {"$": {RESULT}}
        cert = hand_certificate()
        res = SolveResult(NOT_SIMILAR, "sus", 2, certificate=cert)
        assert key_sequences(result_to_json(res)) == {
            "$": {RESULT},
            "$.certificate": {
                (*CERTIFICATE, "a_value", "b_value", "groups_a", "groups_b", "pr_paths")
            },
            "$.certificate.at": {AT},
            "$.certificate.steps[]": {STEP, (*STEP, "pr_paths")},
            "$.certificate.steps[].at": {AT},
            "$.certificate.steps[].touch": {TOUCH},
            "$.certificate.steps[].groups_a[]": {GROUP},
            "$.certificate.steps[].groups_b[]": {GROUP},
            "$.certificate.steps[].pr_paths": {("row", "col")},
            "$.certificate.steps[].pr_paths.row[]": {EDGE},
            "$.certificate.steps[].pr_paths.col[]": {EDGE},
            "$.certificate.groups_a[]": {GROUP},
            "$.certificate.groups_b[]": {GROUP},
            "$.certificate.pr_paths": {("row", "col")},
            "$.certificate.pr_paths.row[]": {EDGE},
        }

    def test_instance_and_features_documents(self):
        inst = pr_beta_instance()
        assert key_sequences(instance_to_json(inst)) == {
            "$": {("format", "mode", "name", "shape", "count", "a", "b")}
        }
        assert key_sequences(features_to_json(extract_features(inst.a_mats))) == {
            "$": {
                (
                    "format", "mode", "shape", "count", "steps", "rows_sizes", "cols_sizes",
                    "alphas", "scales", "betas", "components",
                )
            },
            "$.steps[]": {("functional", "at", "touch", "rows_sizes", "cols_sizes", "groups")},
            "$.steps[].at": {AT},
            "$.steps[].touch": {TOUCH},
            "$.steps[].groups[]": {GROUP},
            "$.alphas[]": {("matrix", "class", "value")},
            "$.scales[]": {(*AT, "value")},
            "$.betas[]": {(*AT, "value")},
            "$.components[][]": {TOUCH},
        }

    @pytest.mark.parametrize(
        "config, keys",
        [
            (dict(kind="planted_equivalent", m=4, n=3), ("u", "v")),
            (dict(kind="deep_split", n=8, depth=2), ("u", "planned_iterations")),
            (dict(kind="pairwise", n=4), ("word",)),
        ],
        ids=["planted_equivalent", "deep_split", "pairwise"],
    )
    def test_witness_documents(self, config, keys):
        _, meta = generate(GenConfig(seed=1, **config))
        sequences = key_sequences(witness_to_json(meta))
        word = {"$.word": {("letters", "text", "trace_a", "trace_b")}} if "word" in keys else {}
        assert sequences == {"$": {("format", "kind", "seed", *keys)}, **word}


MUTATIONS = (None, 0, True, "x", 1.5, [], {}, 10**400, math.nan, "drop")


def mutate(doc, rng) -> None:
    """Mutate one slot of ``doc`` in place: drop the key or entry, or set it to
    null, to 0 (an index below one) or to a value of another type.  The slot
    is found by a random walk, so that short fields are hit as often as the
    entries of a matrix."""
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        key = keys[rng.integers(len(keys))]
        if not (isinstance(node[key], (dict, list)) and node[key] and rng.random() < 0.6):
            break
        node = node[key]
    mutation = MUTATIONS[rng.integers(len(MUTATIONS))]
    if mutation == "drop":
        del node[key]
    else:
        node[key] = mutation


class TestMutations:
    """A mutated document is refused with a SusimError, or it decodes to an
    object that re-encodes and decodes to an equal one."""

    @pytest.mark.parametrize("config", CONFIGS, ids=[c["kind"] for c in CONFIGS])
    def test_mutated_documents(self, config):
        inst, _ = generate(GenConfig(seed=0, **config))
        features = extract_features(inst.a_mats, mode=inst.mode)
        codecs = [
            (instance_to_json(inst), instance_to_json, instance_from_json),
            (result_to_json(solve(inst)), result_to_json, result_from_json),
            (features_to_json(features), features_to_json, features_from_json),
        ]
        rng = np.random.default_rng(17)
        refused = 0
        for good, to_json, from_json in codecs:
            for _ in range(60):
                doc = json.loads(json.dumps(good))
                mutate(doc, rng)
                try:
                    obj = from_json(doc)
                except SusimError:
                    refused += 1
                    continue
                again = from_json(json.loads(json.dumps(to_json(obj))))
                assert to_json(again) == to_json(obj)
        assert 0 < refused < 180


class TestDocumentFormat:
    def test_detects_each_tag(self):
        inst = Instance("sus", [np.eye(2)], [np.eye(2)])
        assert document_format(instance_to_json(inst)) == INSTANCE_FORMAT
        assert document_format(result_to_json(solve(inst))) == RESULT_FORMAT
        assert document_format(features_to_json(extract_features(inst.a_mats))) == FEATURES_FORMAT

    def test_rejects_unknown_documents(self):
        with pytest.raises(FormatError):
            document_format({"hello": 1})
        with pytest.raises(FormatError):
            document_format([1, 2, 3])
        with pytest.raises(FormatError):
            document_format({"format": "susim-matrix/1"})
