"""Metamorphic properties of the verdict: the same question, the same status.

Swapping the two collections, or conjugating either one by a unitary (one
unitary per axis in equivalence mode), asks the same question, so ``solve``
must end with the same status.  The global-scale property is left out: the
tolerances are absolute, so small enough inputs pass any unitary and a
``not_similar`` pair turns ``solved`` at a scale of 1e-12.

Reversing the order of the matrices, or conjugating every entry, on both
sides also asks the same question, and its evidence maps back: a witness
of the reversed pair is a witness of the original, and one of the
conjugated pair is too once its factors are conjugated back.  Every
certificate must be confirmed on the instance it was found for.

Asking must not change the question either: ``solve`` and
``extract_features`` leave the instance's arrays bit-identical.
"""

import numpy as np
import pytest
from test_golden import CONFIGS

from susim.canonical import extract_features
from susim.certcheck import check_certificate
from susim.instances import GenConfig, generate, random_unitary
from susim.linalg import DEFAULT_TOLERANCES, adjoint
from susim.model import SOLVED, Instance
from susim.solver import solve, witness_residual

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


def assert_evidence_maps_back(cfg, move, back):
    """``move`` applied to both sides keeps the status; ``back`` takes a
    witness factor of the moved instance to one of the original."""
    for label, inst, status, _ in instances(cfg):
        moved = Instance(inst.mode, move(inst.a_mats), move(inst.b_mats))
        result = solve(moved)
        assert result.status == status, label
        if result.status == SOLVED:
            u = back(result.u)
            v = None if result.v is None else back(result.v)
            residual = witness_residual(inst.a_mats, inst.b_mats, inst.mode, u, v)
            assert residual <= DEFAULT_TOLERANCES.verify, label
        if result.certificate is not None:
            assert check_certificate(moved, result.certificate).confirmed, label


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda cfg: cfg["kind"])
def test_reversing_the_matrix_order_keeps_status_and_witness(cfg):
    assert_evidence_maps_back(cfg, lambda mats: mats[::-1], lambda w: w)


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda cfg: cfg["kind"])
def test_conjugating_every_entry_conjugates_the_witness(cfg):
    assert_evidence_maps_back(cfg, lambda mats: tuple(np.conj(x) for x in mats), np.conj)


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
