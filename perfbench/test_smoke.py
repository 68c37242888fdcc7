"""Smoke test of the benchmark itself, at tiny instance sizes.

Run from the repository root with ``python3 -m pytest perfbench/test_smoke.py``.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import gate  # noqa: E402
import workloads  # noqa: E402
from susim.serialize import instance_to_json  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_its_unit(workload, trace):
    out = io.StringIO()
    bench.run(workload, seed=11, seconds=0.2, trace=trace, threads=1, tiny=True, out=out)
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)


def _tamper_witness(doc):
    doc["u"][0][0][0] += 1e-3


def _tamper_certificate(doc):
    cert = doc["certificate"]
    if "a_value" in cert:
        cert["a_value"][0] += 1.0
    else:
        cert["groups_a"][0]["value"][0] += 1.0


def _solve_tamper_verify(tmp_path, kind, tamper):
    runner = bench.Runner(workloads.WORKLOADS["reject"], 3, tmp_path, tiny=True)
    inst = tmp_path / "instance.json"
    inst.write_text(json.dumps(instance_to_json(workloads.make_instance(kind, 3, 0, tiny=True))))
    res = tmp_path / "result.json"
    runner.call(["solve", str(inst), "--out", str(res)], kind, str(inst), out=str(res))
    if tamper is not None:
        doc = json.loads(res.read_text())
        tamper(doc)
        res.write_text(json.dumps(doc))
    runner.call(["verify", str(inst), str(res)], kind, str(inst))
    summary = gate.audit(runner.ops, runner.diff)
    return runner.ops, summary


@pytest.mark.parametrize(
    "kind, tamper",
    [(workloads.DENSE, _tamper_witness), (workloads.PERTURBED, _tamper_certificate)],
)
def test_gate_counts_a_tampered_result_as_an_error(tmp_path, kind, tamper):
    (tmp_path / "clean").mkdir()
    ops, clean = _solve_tamper_verify(tmp_path / "clean", kind, None)
    assert clean["errors"] == 0
    assert [op.code for op in ops] == [0 if kind.expect == workloads.PLANTED else 1, 0]

    (tmp_path / "tampered").mkdir()
    ops, tampered = _solve_tamper_verify(tmp_path / "tampered", kind, tamper)
    assert tampered["errors"] >= 1
    assert ops[1].verdict == gate.ERROR
    assert ops[1].code == 3


def test_tail_needs_ten_samples_beyond_it():
    assert bench.tail([float(x) for x in range(100)])[0] == 90.0
    assert bench.tail([float(x) for x in range(40)])[0] == 75.0
    assert bench.tail([float(x) for x in range(15)]) == (50.0, 7.0)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "reject", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
