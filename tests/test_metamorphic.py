"""Metamorphic properties of the verdict: the same question, the same status.

Swapping the two collections, or conjugating either one by a unitary (one
unitary per axis in equivalence mode), asks the same question, so ``solve``
must end with the same status.  The global-scale property is left out: the
tolerances are absolute, so small enough inputs pass any unitary and a
``not_similar`` pair turns ``solved`` at a scale of 1e-12.
"""

import numpy as np
import pytest
from test_golden import CONFIGS

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
