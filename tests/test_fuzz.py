"""Seeded fuzz near the tolerance boundary: the three-way contract holds.

Small noise on the B side makes the scan and the holonomy check land near
their tolerances.  Whatever the solver then decides, it must not raise:
``solved`` carries a residual within ``verify``, ``not_similar`` a
certificate the checker confirms, and everything else is ``failed``, counting
the pass that gave up.
"""

import json

import numpy as np
import pytest
from test_golden import CONFIGS

from susim.certcheck import check_certificate
from susim.cli import main
from susim.instances import GenConfig, generate, ginibre, pr_cycle
from susim.linalg import DEFAULT_TOLERANCES
from susim.model import FAILED, NOT_SIMILAR, SOLVED, Instance
from susim.serialize import instance_to_json
from susim.solver import solve, witness_residual

SCALES = (1e-30, 1.0, 1e30)


def noisy_pr_cycle(seed: int) -> Instance:
    """pr_cycle of size 4, 6 or 8 with log-uniform noise 1e-10..1e-6 on B."""
    rng = np.random.default_rng(seed)
    n = int(rng.choice([4, 6, 8]))
    inst, _ = pr_cycle(n, rng)
    eps = 10.0 ** rng.uniform(-10.0, -6.0)
    b = tuple(m + eps * ginibre(n, n, rng) for m in inst.b_mats)
    return Instance("sus", inst.a_mats, b)


def noisy_scaled(config: GenConfig) -> Instance:
    """The generated instance with log-uniform noise 1e-10..1e-6 on B, then
    both sides multiplied by a global scale of 1e-30, 1 or 1e30."""
    inst, _ = generate(config)
    rng = np.random.default_rng([config.seed, 1])
    eps = 10.0 ** rng.uniform(-10.0, -6.0)
    scale = SCALES[rng.integers(len(SCALES))]
    b = tuple(m + eps * ginibre(*m.shape, rng) for m in inst.b_mats)
    return Instance(
        inst.mode, tuple(scale * m for m in inst.a_mats), tuple(scale * m for m in b)
    )


def assert_contract(inst: Instance, res, label) -> None:
    if res.status == SOLVED:
        residual = witness_residual(inst.a_mats, inst.b_mats, inst.mode, res.u, res.v)
        assert residual <= DEFAULT_TOLERANCES.verify, label
    elif res.status == NOT_SIMILAR:
        assert check_certificate(inst, res.certificate).confirmed, label
    else:
        assert res.status == FAILED and res.message, label
        assert res.iterations >= 1, label


def test_noisy_pr_cycle_never_escapes():
    seen = set()
    for seed in range(200):
        inst = noisy_pr_cycle(seed)
        res = solve(inst)
        seen.add(res.status)
        assert_contract(inst, res, seed)
    assert seen == {SOLVED, NOT_SIMILAR, FAILED}


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda cfg: cfg["kind"])
def test_noisy_scaled_generator_kinds_keep_the_contract(cfg):
    for seed in range(20):
        config = GenConfig(seed=seed, **cfg)
        inst = noisy_scaled(config)
        assert_contract(inst, solve(inst), config.label())


@pytest.mark.parametrize("seed", [0, 11])
def test_boundary_instance_exits_failed_on_the_cli(tmp_path, seed):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance_to_json(noisy_pr_cycle(seed))))
    out = tmp_path / "res.json"
    assert main(["solve", str(path), "--out", str(out)]) == 2
    doc = json.loads(out.read_text())
    assert doc["status"] == FAILED and "NotMultipleOfUnitary" in doc["message"]
    assert doc["iterations"] >= 1
    assert main(["canon", str(path), "--side", "b"]) == 2
    assert main(["canon", str(path), "--side", "a"]) == 0
