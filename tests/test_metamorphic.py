"""Metamorphic properties of the verdict: the same question, the same status.

Swapping the two collections, or conjugating either one by a unitary (one
unitary per axis in equivalence mode), asks the same question, so ``solve``
must end with the same status.  The global-scale property is left out: the
tolerances are absolute, so small enough inputs pass any unitary and a
``not_similar`` pair turns ``solved`` at a scale of 1e-12.

Asking must not change the question either: ``solve`` and
``extract_features`` leave the instance's arrays bit-identical.
"""

import numpy as np
import pytest
from test_golden import CONFIGS

from susim.canonical import extract_features
from susim.instances import GenConfig, generate, random_unitary
from susim.linalg import adjoint
from susim.model import Instance
from susim.solver import solve

SEEDS = range(20)


def conjugated(mats, mode, rng):
    """``U M V*`` for every matrix, with ``V = U`` in similarity mode."""
    m, n = mats[0].shape
    u = random_unitary(m, rng)
    v = u if mode == "sus" else random_unitary(n, rng)
    return tuple(u @ x @ adjoint(v) for x in mats)


def instances(cfg):
    for seed in SEEDS:
        config = GenConfig(seed=seed, **cfg)
        inst, _ = generate(config)
        yield config.label(), inst, solve(inst).status, np.random.default_rng([seed, 2])


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda cfg: cfg["kind"])
def test_status_survives_swapping_the_sides(cfg):
    for label, inst, status, _ in instances(cfg):
        assert solve(Instance(inst.mode, inst.b_mats, inst.a_mats)).status == status, label


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda cfg: cfg["kind"])
def test_status_survives_conjugating_either_side(cfg):
    for label, inst, status, rng in instances(cfg):
        a = conjugated(inst.a_mats, inst.mode, rng)
        b = conjugated(inst.b_mats, inst.mode, rng)
        assert solve(Instance(inst.mode, a, inst.b_mats)).status == status, (label, "a")
        assert solve(Instance(inst.mode, inst.a_mats, b)).status == status, (label, "b")


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda cfg: cfg["kind"])
def test_solve_and_features_leave_the_instance_as_it_was(cfg):
    inst, _ = generate(GenConfig(seed=0, **cfg))
    mats = inst.a_mats + inst.b_mats
    # complex128 input is used in place, not copied, by both entry points.
    assert all(x.dtype == np.complex128 for x in mats)
    before = [x.tobytes() for x in mats]
    solve(inst)
    extract_features(inst.a_mats, mode=inst.mode)
    extract_features(inst.b_mats, mode=inst.mode)
    assert [x.tobytes() for x in mats] == before
