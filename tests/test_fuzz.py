"""Seeded fuzz near the tolerance boundary: the three-way contract holds.

``pr_cycle`` instances with small noise on the B side make the holonomy
check land just outside the unitary-multiple test.  Whatever the solver
then decides, it must not raise: ``solved`` carries a residual within
``verify``, ``not_similar`` a certificate the checker confirms, and
everything else is ``failed``.
"""

import json

import numpy as np
import pytest

from susim.certcheck import check_certificate
from susim.cli import main
from susim.instances import ginibre, pr_cycle
from susim.linalg import DEFAULT_TOLERANCES
from susim.model import FAILED, NOT_SIMILAR, SOLVED, Instance
from susim.serialize import instance_to_json
from susim.solver import solve, witness_residual


def noisy_pr_cycle(seed: int) -> Instance:
    """pr_cycle of size 4, 6 or 8 with log-uniform noise 1e-10..1e-6 on B."""
    rng = np.random.default_rng(seed)
    n = int(rng.choice([4, 6, 8]))
    inst, _ = pr_cycle(n, rng)
    eps = 10.0 ** rng.uniform(-10.0, -6.0)
    b = tuple(m + eps * ginibre(n, n, rng) for m in inst.b_mats)
    return Instance("sus", inst.a_mats, b)


def test_noisy_pr_cycle_never_escapes():
    seen = set()
    for seed in range(200):
        inst = noisy_pr_cycle(seed)
        res = solve(inst)
        seen.add(res.status)
        if res.status == SOLVED:
            assert witness_residual(inst.a_mats, inst.b_mats, "sus", res.u) <= DEFAULT_TOLERANCES.verify
        elif res.status == NOT_SIMILAR:
            assert check_certificate(inst, res.certificate).confirmed, seed
        else:
            assert res.status == FAILED and res.message
    assert seen == {SOLVED, NOT_SIMILAR, FAILED}


@pytest.mark.parametrize("seed", [0, 11])
def test_boundary_instance_exits_failed_on_the_cli(tmp_path, seed):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance_to_json(noisy_pr_cycle(seed))))
    out = tmp_path / "res.json"
    assert main(["solve", str(path), "--out", str(out)]) == 2
    doc = json.loads(out.read_text())
    assert doc["status"] == FAILED and "NotMultipleOfUnitary" in doc["message"]
    assert main(["canon", str(path), "--side", "b"]) == 2
    assert main(["canon", str(path), "--side", "a"]) == 0
