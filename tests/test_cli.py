"""Exit codes, documents and wiring of the command line interface."""

import gc
import io
import json
import shutil
import struct
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from susim import cli
from susim.canonical import extract_features
from susim.cli import main
from susim.instances import GEN_KINDS
from susim.model import Instance, SolveResult
from susim.serialize import instance_to_json, result_to_json
from susim.solver import solve


def write_instance(path, inst):
    path.write_text(json.dumps(instance_to_json(inst)))
    return str(path)


def planted_file(tmp_path, name="inst.json"):
    code = main(
        [
            "gen",
            "--kind",
            "planted_similar",
            "-n",
            "4",
            "-p",
            "2",
            "--seed",
            "5",
            "--out",
            str(tmp_path / name),
        ]
    )
    assert code == 0
    return str(tmp_path / name)


class TestSolve:
    def test_solved_planted_instance(self, tmp_path, capsys):
        inst = planted_file(tmp_path)
        out = tmp_path / "res.json"
        assert main(["solve", inst, "--out", str(out)]) == 0
        summary = capsys.readouterr().out
        assert "solved in" in summary
        doc = json.loads(out.read_text())
        assert doc["format"] == "susim-result/1"
        assert doc["status"] == "solved"

    def test_not_similar_exit_code(self, tmp_path):
        a = [np.diag([1.0, 2.0]).astype(complex)]
        b = [np.diag([1.0, 3.0]).astype(complex)]
        path = write_instance(tmp_path / "i.json", Instance("sus", a, b))
        assert main(["solve", path]) == 1

    def test_failed_exit_code(self, tmp_path):
        m = [np.diag([1.0, 1.0 + 1e-8]).astype(complex)]
        path = write_instance(tmp_path / "i.json", Instance("sus", m, [m[0].copy()]))
        assert main(["solve", path]) == 2

    def test_result_on_stdout_summary_on_stderr(self, tmp_path, capsys):
        inst = planted_file(tmp_path)
        capsys.readouterr()
        assert main(["solve", inst, "--out", "-"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["status"] == "solved"
        assert "solved in" in captured.err

    def test_reads_instance_from_stdin(self, tmp_path, capsys, monkeypatch):
        inst = Instance("sus", [np.eye(2)], [np.eye(2)])
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(instance_to_json(inst))))
        assert main(["solve", "-"]) == 0

    def test_mode_conflict_is_an_input_error(self, tmp_path, capsys):
        inst = planted_file(tmp_path)
        assert main(["solve", inst, "--mode", "sueq"]) == 64
        assert "mode" in capsys.readouterr().err

    def test_mode_flag_is_not_an_option(self, tmp_path, capsys):
        # The instance document alone fixes the mode.
        inst = planted_file(tmp_path)
        capsys.readouterr()
        assert main(["solve", inst, "--mode", "sus"]) == 64
        assert "unrecognized arguments: --mode sus" in capsys.readouterr().err

    def test_missing_file_is_an_input_error(self, capsys):
        assert main(["solve", "/nonexistent/path.json"]) == 64

    def test_invalid_json_is_an_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", str(bad)]) == 64


class TestGen:
    def test_writes_witness_sibling(self, tmp_path):
        inst = planted_file(tmp_path, "x.json")
        witness = json.loads((tmp_path / "x.witness.json").read_text())
        assert witness["format"] == "susim-witness/1"
        assert witness["kind"] == "planted_similar"
        u = np.array([[complex(re, im) for re, im in row] for row in witness["u"]])
        doc = json.loads((tmp_path / "x.json").read_text())
        a0 = np.array([[complex(re, im) for re, im in row] for row in doc["a"][0]])
        b0 = np.array([[complex(re, im) for re, im in row] for row in doc["b"][0]])
        assert np.linalg.norm(u @ a0 @ u.conj().T - b0) < 1e-10

    def test_perturbed_witness_records_word(self, tmp_path):
        out = tmp_path / "p.json"
        assert (
            main(
                ["gen", "--kind", "perturbed", "-n", "3", "-p", "2", "--seed", "2", "--out", str(out)]
            )
            == 0
        )
        witness = json.loads((tmp_path / "p.witness.json").read_text())
        assert min(witness["word"]["letters"]) >= 1
        assert "A" in witness["word"]["text"]

    def test_stdout_output_skips_witness(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["gen", "--kind", "pr_cycle", "-n", "6", "--out", "-"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == "susim-instance/1"
        assert not list(tmp_path.iterdir())

    def test_unreachable_depth_is_an_input_error(self, tmp_path, capsys):
        code = main(
            ["gen", "--kind", "deep_split", "-n", "2", "-p", "1", "--depth", "5", "--out", str(tmp_path / "d.json")]
        )
        assert code == 64
        assert "cannot schedule" in capsys.readouterr().err

    def test_equivalence_generator_respects_m(self, tmp_path):
        out = tmp_path / "e.json"
        assert (
            main(
                ["gen", "--kind", "planted_equivalent", "-n", "5", "-m", "3", "-p", "2", "--seed", "1", "--out", str(out)]
            )
            == 0
        )
        doc = json.loads(out.read_text())
        assert doc["mode"] == "sueq"
        assert doc["shape"] == [3, 5]

    def test_unknown_kind_is_a_usage_error(self, tmp_path, capsys):
        assert main(["gen", "--kind", "bogus", "-n", "4", "--out", "-"]) == 64

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_a_document_cannot_hold_is_a_usage_error(self, tmp_path, capsys, seed):
        argv = ["gen", "--kind", "pr_cycle", "-n", "4", "--seed", seed, "--out", str(tmp_path / "g.json")]
        assert main(argv) == 64
        assert "outside 0 .. 2**64-1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "params, message",
        [
            ("planted_similar -n 0", "needs n of at least 1, got 0"),
            ("planted_similar -n -3", "needs n of at least 1, got -3"),
            ("planted_equivalent -n 3 -m 0", "m must be at least 1, got 0"),
            ("planted_equivalent -n 3 -m -1", "m must be at least 1, got -1"),
            ("pairwise -n 1", "pairwise needs n of at least 2, got 1"),
            ("perturbed -n 4 -p 0", "count (-p) must be at least 1, got 0"),
            ("perturbed -n 4 -p -2", "count (-p) must be at least 1, got -2"),
            ("planted_equivalent -n 3 -p 0", "count (-p) must be at least 1, got 0"),
            ("deep_split -n 8 --depth -1", "depth must be at least 0, got -1"),
            ("deep_split -n 8 --gap 0", "gap must be finite and nonzero, got 0.0"),
            ("deep_split -n 8 --gap inf", "gap must be finite and nonzero, got inf"),
            ("deep_split -n 8 --gap 1e308", "a generated matrix has non-finite entries"),
            ("perturbed -n 4 --eps 0", "eps must be finite and nonzero, got 0.0"),
            ("perturbed -n 4 --eps nan", "eps must be finite and nonzero, got nan"),
            ("perturbed -n 4 --eps inf", "eps must be finite and nonzero, got inf"),
        ],
    )
    def test_unusable_parameter_is_a_usage_error(self, tmp_path, capsys, params, message):
        argv = ["gen", "--kind", *params.split(), "--out", str(tmp_path / "g.json")]
        assert main(argv) == 64
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "params, message",
        [
            ("pairwise -n 4 -p 5", "pairwise builds 2 matrices per side, not -p 5"),
            ("pr_cycle -n 6 -p 3", "pr_cycle builds 2 matrices per side, not -p 3"),
            ("pr_cycle -n 6 -p 1", "pr_cycle builds 2 matrices per side, not -p 1"),
            ("planted_similar -n 4 -m 3", "planted_similar does not read -m"),
            ("deep_split -n 8 -m 3", "deep_split does not read -m"),
            ("planted_similar -n 4 --depth 2", "planted_similar does not read --depth"),
            ("perturbed -n 4 --gap 2", "perturbed does not read --gap"),
            ("planted_equivalent -n 4 --eps 0.1", "planted_equivalent does not read --eps"),
            ("deep_split -n 8 --eps 1e-2", "deep_split does not read --eps"),
            ("pairwise -n 4 --style dense", "pairwise does not read --style"),
            ("deep_split -n 8 --style structured", "deep_split does not read --style"),
        ],
    )
    def test_flag_the_kind_does_not_read_is_a_usage_error(self, tmp_path, capsys, params, message):
        # A default value given explicitly is refused as well: the kind would ignore it.
        argv = ["gen", "--kind", *params.split(), "--out", str(tmp_path / "g.json")]
        assert main(argv) == 64
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "params, name",
        [
            ("pairwise -n 4 -p 2", "pairwise-n4-p2-seed0"),
            ("pr_cycle -n 6", "pr_cycle-n6-p1-seed0"),
            ("planted_similar -n 4 -p 3 --style structured", "planted_similar-n4-p3-seed0"),
            ("planted_equivalent -n 4 -m 3 -p 2", "planted_equivalent-n4-p2-seed0"),
            ("perturbed -n 4 -p 2 --eps 0.1", "perturbed-n4-p2-seed0"),
            ("deep_split -n 8 -p 2 --depth 2 --gap 2", "deep_split-n8-p2-seed0"),
        ],
    )
    def test_flags_the_kind_reads_are_accepted(self, tmp_path, params, name):
        out = tmp_path / "g.json"
        assert main(["gen", "--kind", *params.split(), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["name"] == name

    @pytest.mark.parametrize("params", ["deep_split -n 8 --gap -1", "perturbed -n 4 --eps -0.01"])
    def test_negative_spacing_is_accepted(self, tmp_path, params):
        assert main(["gen", "--kind", *params.split(), "--out", str(tmp_path / "g.json")]) == 0

    def test_name_that_is_not_utf8_is_a_usage_error(self, tmp_path, capsys):
        # an undecodable byte in argv arrives as a lone surrogate
        argv = ["gen", "--kind", "pr_cycle", "-n", "4", "--name", "x\udcff", "--out", str(tmp_path / "g.json")]
        assert main(argv) == 64
        assert "not UTF-8 text" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestVerify:
    def test_confirms_genuine_witness(self, tmp_path, capsys):
        inst = planted_file(tmp_path)
        res = tmp_path / "r.json"
        main(["solve", inst, "--out", str(res)])
        assert main(["verify", inst, str(res)]) == 0
        assert "confirmed" in capsys.readouterr().out

    def test_refutes_tampered_witness(self, tmp_path, capsys):
        inst = planted_file(tmp_path)
        res = tmp_path / "r.json"
        main(["solve", inst, "--out", str(res)])
        doc = json.loads(res.read_text())
        doc["u"][0][0] = [0.7, 0.7]
        res.write_text(json.dumps(doc))
        assert main(["verify", inst, str(res)]) == 3
        assert "refuted" in capsys.readouterr().out

    def test_confirms_genuine_certificate(self, tmp_path, capsys):
        a = [np.diag([2.0, 2.0, 1.0]).astype(complex)]
        b = [np.diag([2.0, 1.0, 1.0]).astype(complex)]
        inst = write_instance(tmp_path / "i.json", Instance("sus", a, b))
        res = tmp_path / "r.json"
        assert main(["solve", inst, "--out", str(res)]) == 1
        assert main(["verify", inst, str(res)]) == 0

    def test_refutes_certificate_against_wrong_instance(self, tmp_path, capsys):
        a = [np.diag([2.0, 2.0, 1.0]).astype(complex)]
        b = [np.diag([2.0, 1.0, 1.0]).astype(complex)]
        inst = write_instance(tmp_path / "i.json", Instance("sus", a, b))
        res = tmp_path / "r.json"
        main(["solve", inst, "--out", str(res)])
        other = write_instance(tmp_path / "j.json", Instance("sus", a, [a[0].copy()]))
        assert main(["verify", other, str(res)]) == 3

    def test_witness_of_another_size_is_an_input_error(self, tmp_path, capsys):
        small = tmp_path / "small.json"
        assert main(["gen", "--kind", "planted_similar", "-n", "3", "-p", "2", "--out", str(small)]) == 0
        res = tmp_path / "r.json"
        assert main(["solve", str(small), "--out", str(res)]) == 0
        capsys.readouterr()
        assert main(["verify", planted_file(tmp_path), str(res)]) == 64
        assert "witness u is of shape (3, 3), the collections need 4 x 4" in capsys.readouterr().err

    def test_swapped_equivalence_witnesses_are_an_input_error(self, tmp_path, capsys):
        inst = tmp_path / "e.json"
        argv = ["gen", "--kind", "planted_equivalent", "-n", "5", "-m", "3", "-p", "2", "--out", str(inst)]
        assert main(argv) == 0
        res = tmp_path / "r.json"
        assert main(["solve", str(inst), "--out", str(res)]) == 0
        doc = json.loads(res.read_text())
        doc["u"], doc["v"] = doc["v"], doc["u"]
        res.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(inst), str(res)]) == 64
        assert "witness u is of shape (5, 5), the collections need 3 x 3" in capsys.readouterr().err

    def test_failed_result_is_not_verifiable(self, tmp_path, capsys):
        m = [np.diag([1.0, 1.0 + 1e-8]).astype(complex)]
        inst = write_instance(tmp_path / "i.json", Instance("sus", m, [m[0].copy()]))
        res = tmp_path / "r.json"
        assert main(["solve", inst, "--out", str(res)]) == 2
        assert main(["verify", inst, str(res)]) == 64

    def test_environment_does_not_set_tolerances(self, tmp_path, monkeypatch):
        # A verdict depends only on the command line and its files.
        inst = planted_file(tmp_path)
        res = tmp_path / "r.json"
        main(["solve", inst, "--out", str(res)])
        monkeypatch.setenv("SUSIM_TOL_CMP", "1e-22")
        monkeypatch.setenv("SUSIM_TOL_GROUP", "1e-21")
        monkeypatch.setenv("SUSIM_TOL_VERIFY", "1e-20")
        assert main(["verify", inst, str(res)]) == 0
        monkeypatch.setenv("SUSIM_TOL_VERIFY", "tiny")
        assert main(["verify", inst, str(res)]) == 0


class TestOverflowingInput:
    """Entries of about 1e154 and up overflow ``||A_l||``, so every form test
    passes and each mapping term of the witness residual is inf/inf.  Such a
    residual is infinite: the solve ends failed with no residual in its
    document, and a claimed witness is refuted."""

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e154, 1e160])
    def test_solve_fails_and_verify_refutes(self, tmp_path, capsys, scale):
        rng = np.random.default_rng(0)
        mats = [scale * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
                for _ in range(4)]
        inst = write_instance(tmp_path / "i.json", Instance("sus", mats[:2], mats[2:]))
        res = tmp_path / "r.json"
        assert main(["solve", inst, "--out", str(res)]) == 2
        doc = json.loads(res.read_text())
        assert doc["status"] == "failed" and doc["residual"] is None
        assert "overflows" in doc["message"]
        # The identity, the witness such a solve assembles, claimed as solved.
        claim = SolveResult("solved", "sus", 1, u=np.eye(4, dtype=complex), residual=0.0)
        res.write_text(json.dumps(result_to_json(claim)))
        assert main(["verify", inst, str(res)]) == 3
        assert "witness refuted, residual inf" in capsys.readouterr().out

    @pytest.mark.parametrize("scale", [1e154, 1e160])
    def test_canon_refuses_without_a_warning(self, tmp_path, capsys, scale):
        # No filterwarnings mark: an overflow warning would fail the test.
        rng = np.random.default_rng(0)
        mats = [scale * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
                for _ in range(4)]
        inst = write_instance(tmp_path / "i.json", Instance("sus", mats[:2], mats[2:]))
        out = tmp_path / "f.json"
        for side in ("a", "b"):
            assert main(["canon", inst, "--side", side, "--out", str(out)]) == 2
            assert "NumericalFailure: the norm of matrix 1 overflows" in capsys.readouterr().out
            assert not out.exists()


    # graph._scalar_cells still squares the holonomy cells' entries, and its
    # threshold overflows here: a fault of the tolerance model, not of the mean.
    @pytest.mark.filterwarnings("ignore:overflow encountered in square:RuntimeWarning")
    def test_canon_writes_a_finite_gram_scalar_below_the_overflow(self, tmp_path, capsys):
        # |c|^2 = 1.44e308 is finite, but the sum of two such Gram scalars is not.
        mats = [np.diag([1.0, 2.0]) + 0j, np.array([[0.0, 1.2e154], [1.2e151, 0.0]]) + 0j]
        inst = write_instance(tmp_path / "i.json", Instance("sus", mats, mats))
        out = tmp_path / "f.json"
        assert main(["canon", inst, "--out", str(out)]) == 0
        scales = [entry["value"] for entry in json.loads(out.read_text())["scales"]]
        assert scales == pytest.approx([1.44e302, 1.44e308], rel=1e-12)


class TestParser:
    """Every subcommand is registered; only the invoked one gets its arguments."""

    def test_only_the_invoked_command_builds_its_arguments(self, monkeypatch):
        built = []
        for name, (help_text, add_arguments, handler) in list(cli._COMMANDS.items()):
            def record(parser, name=name, add_arguments=add_arguments):
                built.append(name)
                add_arguments(parser)

            monkeypatch.setitem(cli._COMMANDS, name, (help_text, record, handler))
        args = cli.build_parser().parse_args(["diff", "x.json", "y.json", "--tol-cmp", "1e-8"])
        assert built == ["diff"]
        assert (args.first, args.second, args.tol_cmp) == ("x.json", "y.json", 1e-8)

    def test_usage_names_every_command(self, capsys):
        assert main(["solve", "x.json", "--bogus"]) == 64
        err = capsys.readouterr().err
        assert err.startswith("usage: susim [-h] [--version] {solve,gen,verify,canon,diff} ...\n")
        assert err.endswith("susim: error: unrecognized arguments: --bogus\n")

    def test_command_help_lists_its_arguments(self, capsys):
        assert main(["canon", "--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: susim canon [-h] [--side {a,b}] [--out OUT]")
        assert "--tol-verify TOL_VERIFY" in out

    def test_gen_help_states_the_defaults_generate_applies(self, capsys):
        assert main(["gen", "--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())
        for kind, parameter, what in [
            ("planted_similar", "style", "form"),
            ("perturbed", "eps", "size"),
            ("deep_split", "depth", "refinement count"),
            ("deep_split", "gap", "level spacing"),
        ]:
            assert f"{kind} {what} (default {GEN_KINDS[kind][parameter]})" in out


class TestCanonAndDiff:
    def test_sides_of_similar_pair_match(self, tmp_path, capsys):
        inst = planted_file(tmp_path)
        fa, fb = tmp_path / "fa.json", tmp_path / "fb.json"
        assert main(["canon", inst, "--side", "a", "--out", str(fa)]) == 0
        assert main(["canon", inst, "--side", "b", "--out", str(fb)]) == 0
        assert main(["diff", str(fa), str(fb)]) == 0
        assert "features match" in capsys.readouterr().out

    def test_scaled_collection_differs(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        inst1 = write_instance(tmp_path / "a.json", Instance("sus", [m], [m.copy()]))
        inst2 = write_instance(tmp_path / "b.json", Instance("sus", [2 * m], [2 * m.copy()]))
        fa, fb = tmp_path / "fa.json", tmp_path / "fb.json"
        main(["canon", inst1, "--out", str(fa)])
        main(["canon", inst2, "--out", str(fb)])
        assert main(["diff", str(fa), str(fb)]) == 1
        assert capsys.readouterr().out.strip()

    def test_one_dropped_edge_is_named_on_a_bounded_line(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        shape = (12, 12)
        mats = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2)]
        inst = write_instance(tmp_path / "i.json", Instance("sus", mats, mats))
        fa, fb = tmp_path / "fa.json", tmp_path / "fb.json"
        assert main(["canon", inst, "--out", str(fa)]) == 0
        doc = json.loads(fa.read_text())
        assert len(doc["scales"]) == 264
        dropped = doc["scales"][30]
        del doc["scales"][30], doc["betas"][30]
        fb.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["diff", str(fa), str(fb)]) == 1
        lines = capsys.readouterr().out.splitlines()
        key = tuple(dropped[k] - 1 for k in ("matrix", "row", "col"))
        assert [line.split(":")[0] for line in lines] == ["scales keys", "betas keys"]
        for line in lines:
            assert f"entry 30 is {key} != " in line and line.endswith("of 264 != 263 entries")
            assert len(line) < 100

    def test_canon_to_stdout(self, tmp_path, capsys):
        inst = planted_file(tmp_path)
        capsys.readouterr()
        assert main(["canon", inst, "--out", "-"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["format"] == "susim-features/1"
        assert "refinements" in captured.err

    def test_diff_rejects_non_feature_documents(self, tmp_path, capsys):
        inst = planted_file(tmp_path)
        assert main(["diff", inst, inst]) == 64


def unusable_instance(tmp_path, entry=None, shape=None):
    """A 2x2 instance file with one B entry replaced by the JSON literal
    ``entry``, or with the declared shape replaced by ``shape``."""
    doc = instance_to_json(Instance("sus", [np.eye(2)], [np.eye(2)]))
    if entry is not None:
        doc["b"][0][1][1][0] = "ENTRY"
    else:
        doc["shape"] = shape
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc).replace('"ENTRY"', str(entry)))
    return str(path)


class TestUnusableInput:
    @pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400])
    @pytest.mark.parametrize("command", ["solve", "canon"])
    def test_non_finite_entry(self, tmp_path, capsys, entry, command):
        path = unusable_instance(tmp_path, entry=entry)
        argv = ["solve", path] if command == "solve" else ["canon", path, "--side", "b"]
        assert main(argv) == 64
        assert "instance b[1]: entries must be finite numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("shape", [2, None, 2.5])
    def test_malformed_declared_shape(self, tmp_path, capsys, shape):
        assert main(["solve", unusable_instance(tmp_path, shape=shape)]) == 64
        assert "declared shape" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "size, declared",
        [(1, '"shape": [true, true], "count": true'), (2, '"shape": [2.0, 2.0], "count": 2.0')],
        ids=["booleans", "floats"],
    )
    def test_declared_integers(self, tmp_path, capsys, size, declared):
        # JSON true and 2.0 equal 1 and 2 in Python; as declared sizes they are refused.
        doc = instance_to_json(Instance("sus", [np.eye(size)] * size, [np.eye(size)] * size))
        text = json.dumps(doc)
        text = text.replace(f'"shape": [{size}, {size}], "count": {size}', declared)
        assert declared in text
        path = tmp_path / "inst.json"
        path.write_text(text)
        assert main(["solve", str(path)]) == 64
        assert "instance: declared shape disagrees with the matrices" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [["--tol-cmp", "2"], ["--tol-verify", "0"], ["--tol-group", "1e-12"]]
    )
    @pytest.mark.parametrize("command", ["solve", "canon"])
    def test_out_of_range_tolerance(self, tmp_path, capsys, flags, command):
        inst = planted_file(tmp_path)
        capsys.readouterr()
        assert main([command, inst, *flags]) == 64
        assert "tolerances must satisfy" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "encode, message",
        [
            (lambda text: b"\xff\xfe" + text.encode("utf-16-le"), "not UTF-8 text"),
            (lambda text: b"\xef\xbb\xbf" + text.encode(), "not valid JSON"),
        ],
        ids=["utf16", "utf8-bom"],
    )
    def test_text_encoding(self, tmp_path, capsys, encode, message):
        doc = json.dumps(instance_to_json(Instance("sus", [np.eye(2)], [np.eye(2)])))
        path = tmp_path / "inst.json"
        path.write_bytes(encode(doc))
        assert main(["solve", str(path)]) == 64
        assert message in capsys.readouterr().err

    def test_non_finite_residual(self, tmp_path, capsys):
        inst = planted_file(tmp_path)
        res = tmp_path / "r.json"
        assert main(["solve", inst, "--out", str(res)]) == 0
        doc = json.loads(res.read_text())
        doc["residual"] = 10**400
        res.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", inst, str(res)]) == 64
        assert "result: key 'residual' must be a finite number" in capsys.readouterr().err

    def test_boolean_residual(self, tmp_path, capsys):
        inst = planted_file(tmp_path)
        res = tmp_path / "r.json"
        assert main(["solve", inst, "--out", str(res)]) == 0
        doc = json.loads(res.read_text())
        doc["residual"] = True
        res.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", inst, str(res)]) == 64
        assert "result: key 'residual' has the wrong type" in capsys.readouterr().err

    def test_non_finite_scale(self, tmp_path, capsys):
        inst = planted_file(tmp_path)
        feats = tmp_path / "f.json"
        assert main(["canon", inst, "--out", str(feats)]) == 0
        doc = json.loads(feats.read_text())
        assert doc["scales"]
        doc["scales"][0]["value"] = 10**400
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["diff", str(feats), str(bad)]) == 64
        assert "features.scales[0]: key 'value' must be a finite number" in capsys.readouterr().err

    def test_negative_iterations(self, tmp_path, capsys):
        inst = planted_file(tmp_path)
        res = tmp_path / "r.json"
        assert main(["solve", inst, "--out", str(res)]) == 0
        res.write_text(json.dumps(dict(json.loads(res.read_text()), iterations=-3)))
        capsys.readouterr()
        assert main(["verify", inst, str(res)]) == 64
        assert "result: key 'iterations' must be at least 0" in capsys.readouterr().err

    @pytest.mark.parametrize("count", [0, -5])
    def test_feature_count_below_one(self, tmp_path, capsys, count):
        inst = planted_file(tmp_path)
        feats = tmp_path / "f.json"
        assert main(["canon", inst, "--out", str(feats)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(json.loads(feats.read_text()), count=count)))
        capsys.readouterr()
        assert main(["diff", str(feats), str(bad)]) == 64
        assert "features: key 'count' must be at least 1" in capsys.readouterr().err

    def test_certificate_value_without_its_pair(self, tmp_path, capsys):
        # A = I, B = 2I: a scalar certificate, whose B value alone used to load
        # and then fail the replay.
        inst = write_instance(tmp_path / "i.json", Instance("sus", [np.eye(2)], [2 * np.eye(2)]))
        res = tmp_path / "r.json"
        assert main(["solve", inst, "--out", str(res)]) == 1
        doc = json.loads(res.read_text())
        del doc["certificate"]["a_value"]
        res.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", inst, str(res)]) == 64
        assert "certificate: missing key 'a_value'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, error",
        [
            (
                lambda cert: cert.update(target="bogus"),
                "certificate: key 'target' has an unknown value 'bogus' for kind 'scalar'",
            ),
            (
                lambda cert: [cert.pop(key) for key in ("a_value", "b_value")],
                "certificate: missing key 'a_value'",
            ),
            (
                lambda cert: cert.update(kind="eigenvalue"),
                "certificate: key 'target' has an unknown value 'diag_alpha' for kind 'eigenvalue'",
            ),
        ],
        ids=["bogus-target", "no-values", "eigenvalue-kind"],
    )
    def test_certificate_of_the_wrong_kind(self, tmp_path, capsys, edit, error):
        # A = I, B = 2I: a scalar certificate; each edit used to load and
        # then fail the replay (exit 3).
        inst = write_instance(tmp_path / "i.json", Instance("sus", [np.eye(2)], [2 * np.eye(2)]))
        res = tmp_path / "r.json"
        assert main(["solve", inst, "--out", str(res)]) == 1
        doc = json.loads(res.read_text())
        edit(doc["certificate"])
        res.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", inst, str(res)]) == 64
        assert error in capsys.readouterr().err

    def test_integer_beyond_64_bits_is_not_a_count(self, tmp_path, capsys):
        # JSON numbers reach the document readers as Python numbers, and an
        # integer literal of more than 64 bits reads as a float.
        a = [np.diag([2.0, 2.0, 1.0]).astype(complex)]
        b = [np.diag([2.0, 1.0, 1.0]).astype(complex)]
        inst = write_instance(tmp_path / "i.json", Instance("sus", a, b))
        res = tmp_path / "r.json"
        assert main(["solve", inst, "--out", str(res)]) == 1
        res.write_text(res.read_text().replace('"iterations": 1,', f'"iterations": {2**64},', 1))
        capsys.readouterr()
        assert main(["verify", inst, str(res)]) == 64
        assert "key 'iterations' has the wrong type" in capsys.readouterr().err


def with_nan_witness(res):
    u = res.u.copy()
    u[0, 1] = np.nan
    return replace(res, u=u)


def with_nan_certificate_scalar(res):
    return replace(res, certificate=replace(res.certificate, a_value=complex(np.nan, 0.0)))


def with_nan_feature(features):
    scales = features.scales.copy()
    scales[0] = np.nan
    return replace(features, scales=scales)


class TestNonFiniteEmission:
    """JSON has no NaN: a document holding one is refused before any file is
    written, whatever the encoder would make of it."""

    @pytest.mark.parametrize(
        "similar, tamper",
        [
            (True, with_nan_witness),
            (True, lambda res: replace(res, residual=np.float64(np.nan))),
            (False, with_nan_certificate_scalar),
        ],
        ids=["witness", "residual", "certificate"],
    )
    def test_result(self, tmp_path, monkeypatch, similar, tamper):
        if similar:
            inst = planted_file(tmp_path)
        else:  # a scalar certificate: A = I, B = 2I
            inst = write_instance(tmp_path / "i.json", Instance("sus", [np.eye(2)], [2 * np.eye(2)]))
        monkeypatch.setattr(cli, "solve", lambda *a, **k: tamper(solve(*a, **k)))
        out = tmp_path / "res.json"
        with pytest.raises(ValueError):
            main(["solve", inst, "--out", str(out)])
        assert not out.exists()

    def test_features(self, tmp_path, monkeypatch):
        inst = planted_file(tmp_path)
        monkeypatch.setattr(
            cli, "extract_features", lambda *a, **k: with_nan_feature(extract_features(*a, **k))
        )
        out = tmp_path / "f.json"
        with pytest.raises(ValueError):
            main(["canon", inst, "--out", str(out)])
        assert not out.exists()


def same_bits(x, y) -> bool:
    """Equal values of equal types, floats compared bit for bit (so -0.0 != 0.0)."""
    if type(x) is not type(y):
        return False
    if isinstance(x, float):
        return struct.pack("<d", x) == struct.pack("<d", y)
    if isinstance(x, dict):
        return list(x) == list(y) and all(same_bits(x[k], y[k]) for k in x)
    if isinstance(x, list):
        return len(x) == len(y) and all(same_bits(p, q) for p, q in zip(x, y))
    return x == y


def has_negative_zero(x) -> bool:
    if isinstance(x, float):
        return x == 0.0 and struct.pack("<d", x) != struct.pack("<d", 0.0)
    values = x.values() if isinstance(x, dict) else x if isinstance(x, list) else ()
    return any(has_negative_zero(v) for v in values)


class TestDocumentParity:
    """Every document the CLI writes reads back as the value of the stdlib
    encoding of the same dict, bit for bit, in the same indented layout."""

    def test_every_document_kind(self, tmp_path, monkeypatch, capsys):
        written = []
        write = cli._write_document

        def spy(path, data):
            written.append((path, data))
            write(path, data)

        monkeypatch.setattr(cli, "_write_document", spy)
        not_similar = write_instance(
            tmp_path / "ns.json",
            Instance("sus", [np.diag([2.0, 2.0, 1.0]), np.eye(3)], [np.diag([2.0, 1.0, 1.0]), np.eye(3)]),
        )
        m = np.diag([1.0, 1.0 + 1e-8]).astype(complex)
        failed = write_instance(tmp_path / "fl.json", Instance("sus", [m], [m.copy()]))
        gen = ["gen", "-n", "4", "-p", "2", "--seed", "3"]
        commands = [
            [*gen, "--kind", "planted_similar", "--out", str(tmp_path / "ps.json")],
            [*gen, "--kind", "planted_equivalent", "-m", "5", "--out", str(tmp_path / "pe.json")],
            [*gen, "--kind", "perturbed", "--out", str(tmp_path / "pt.json")],
            [*gen, "--kind", "pr_cycle", "--out", str(tmp_path / "pr.json")],
            [*gen, "--kind", "deep_split", "--out", "-"],
            ["solve", str(tmp_path / "ps.json"), "--out", str(tmp_path / "ps.result.json")],
            ["solve", str(tmp_path / "pe.json"), "--out", "-"],
            ["solve", not_similar, "--out", str(tmp_path / "ns.result.json")],
            ["solve", failed, "--out", str(tmp_path / "fl.result.json")],
            ["canon", str(tmp_path / "pe.json"), "--side", "b", "--out", str(tmp_path / "pe.fb.json")],
            ["canon", str(tmp_path / "ps.json"), "--out", "-"],
        ]
        statuses = set()
        for argv in commands:
            capsys.readouterr()
            first = len(written)
            statuses.add(main(argv))
            stdout = capsys.readouterr().out
            for path, data in written[first:]:
                text = stdout if path == "-" else (tmp_path / path).read_text()
                assert text.startswith('{\n  "') and text.endswith("\n"), (argv, path)
                expected = json.loads(json.dumps(data, indent=2, allow_nan=False))
                assert same_bits(json.loads(text), expected), (argv, path)
        assert statuses == {0, 1, 2}
        formats = [data["format"] for _, data in written]
        for tag in ("instance", "witness", "result", "features"):
            assert f"susim-{tag}/1" in formats
        assert {data["status"] for _, data in written if "status" in data} == {
            "solved",
            "not_similar",
            "failed",
        }
        assert any(has_negative_zero(data) for _, data in written)


class TestCollectorState:
    """Documents are parsed and emitted with the cyclic collector paused; every
    command leaves it enabled or disabled as it found it, also on an error."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_commands_restore_the_collector(self, tmp_path, enabled, capsys):
        inst = planted_file(tmp_path)
        res, fa, fb, bad = (str(tmp_path / n) for n in ("res.json", "fa.json", "fb.json", "bad.json"))
        (tmp_path / "bad.json").write_text('{"format": "susim-nothing/1"}')
        gen = ["gen", "--kind", "pairwise", "-n", "3", "--out"]
        commands = [
            (["solve", inst, "--out", res], 0),
            (["verify", inst, res], 0),
            (["canon", inst, "--out", fa], 0),
            (["canon", inst, "--side", "b", "--out", fb], 0),
            (["diff", fa, fb], 0),
            (gen + [str(tmp_path / "gen.json")], 0),
            (["solve", bad], 64),
            (["verify", inst, bad], 64),
            (["canon", bad], 64),
            (["diff", fa, bad], 64),
            (gen + [str(tmp_path / "missing" / "gen.json")], 64),
        ]
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            for argv, code in commands:
                assert main(argv) == code, argv
                assert gc.isenabled() is enabled, argv
        finally:
            (gc.enable if was else gc.disable)()


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "susim", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "susim" in proc.stdout

    @pytest.mark.skipif(shutil.which("susim") is None, reason="console script not on PATH")
    def test_console_script(self):
        proc = subprocess.run(["susim", "--version"], capture_output=True, text=True)
        assert proc.returncode == 0

    def test_usage_error_exit_code(self, capsys):
        assert main(["solve"]) == 64
        assert main(["frobnicate"]) == 64

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "susim" in capsys.readouterr().out
