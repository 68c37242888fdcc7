"""Metamorphic properties of the verdict: the same question, the same status.

Swapping the two collections, or conjugating either one by a unitary (one
unitary per axis in equivalence mode), asks the same question, so ``solve``
must end with the same status.  The global-scale property is left out: the
tolerances are absolute, so small enough inputs pass any unitary and a
``not_similar`` pair turns ``solved`` at a scale of 1e-12.

A unitary that maps every A_l to B_l maps every word in the A_l and A_l*
to the same word in the B_l (in equivalence mode, words alternate A and
A*, as A_1 A_2* A_1).  So these changes, made on both sides, ask the same
question too, and their evidence maps back:

- reversing the order of the matrices, replacing A_2 by A_1 + A_2,
  scaling A_1 by 3, appending the word A_1 A_2 (A_1 A_2* A_1 in
  equivalence mode) or appending a copy of the collection: a witness of
  the changed pair is a witness of the original;
- conjugating every entry: the witness is conjugated back;
- transposing every matrix: ``conj(u)`` is a witness of the original in
  similarity mode, and ``(conj(v), conj(u))`` in equivalence mode;
- in similarity mode only, shifting A_1 by (1 + i) I or appending A_1*:
  the witness is unchanged.

Every certificate must be confirmed on the instance it was found for.

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
SIMILARITY_CONFIGS = tuple(cfg for cfg in CONFIGS if generate(GenConfig(**cfg))[0].mode == "sus")
on_configs = pytest.mark.parametrize("cfg", CONFIGS, ids=lambda cfg: cfg["kind"])
on_similarity_configs = pytest.mark.parametrize(
    "cfg", SIMILARITY_CONFIGS, ids=lambda cfg: cfg["kind"]
)


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


@on_configs
def test_status_survives_swapping_the_sides(cfg):
    for label, inst, status, _ in instances(cfg):
        assert solve(Instance(inst.mode, inst.b_mats, inst.a_mats)).status == status, label


@on_configs
def test_status_survives_conjugating_either_side(cfg):
    for label, inst, status, rng in instances(cfg):
        a = conjugated(inst.a_mats, inst.mode, rng)
        b = conjugated(inst.b_mats, inst.mode, rng)
        assert solve(Instance(inst.mode, a, inst.b_mats)).status == status, (label, "a")
        assert solve(Instance(inst.mode, inst.a_mats, b)).status == status, (label, "b")


def assert_evidence_maps_back(cfg, move, back):
    """``move(mats, mode)`` applied to both sides keeps the status; ``back``
    takes a witness pair ``(u, v)`` of the moved instance to one of the
    original."""
    for label, inst, status, _ in instances(cfg):
        moved = Instance(inst.mode, move(inst.a_mats, inst.mode), move(inst.b_mats, inst.mode))
        result = solve(moved)
        assert result.status == status, label
        if result.status == SOLVED:
            u, v = back(result.u, result.v)
            residual = witness_residual(inst.a_mats, inst.b_mats, inst.mode, u, v)
            assert residual <= DEFAULT_TOLERANCES.verify, label
        if result.certificate is not None:
            assert check_certificate(moved, result.certificate).confirmed, label


def unchanged(u, v):
    return u, v


def conjugated_back(u, v):
    return np.conj(u), None if v is None else np.conj(v)


def transposed_back(u, v):
    # B^T = conj(V) A^T U^T, so the factors trade places and are conjugated.
    return (np.conj(u), None) if v is None else (np.conj(v), np.conj(u))


def product_word(mats, mode):
    a1, a2 = mats[0], mats[1]
    return (*mats, a1 @ a2 if mode == "sus" else a1 @ adjoint(a2) @ a1)


@on_configs
def test_reversing_the_matrix_order_keeps_status_and_witness(cfg):
    assert_evidence_maps_back(cfg, lambda mats, mode: mats[::-1], unchanged)


@on_configs
def test_conjugating_every_entry_conjugates_the_witness(cfg):
    assert_evidence_maps_back(
        cfg, lambda mats, mode: tuple(np.conj(x) for x in mats), conjugated_back
    )


@on_configs
def test_adding_the_first_matrix_to_the_second_keeps_status_and_witness(cfg):
    assert_evidence_maps_back(
        cfg, lambda mats, mode: (mats[0], mats[0] + mats[1], *mats[2:]), unchanged
    )


@on_configs
def test_appending_a_product_word_keeps_status_and_witness(cfg):
    assert_evidence_maps_back(cfg, product_word, unchanged)


@on_configs
def test_appending_a_copy_of_the_collection_keeps_status_and_witness(cfg):
    assert_evidence_maps_back(cfg, lambda mats, mode: (*mats, *mats), unchanged)


@on_configs
def test_scaling_the_first_matrix_keeps_status_and_witness(cfg):
    assert_evidence_maps_back(cfg, lambda mats, mode: (3 * mats[0], *mats[1:]), unchanged)


@on_configs
def test_transposing_every_matrix_conjugates_and_swaps_the_witness(cfg):
    assert_evidence_maps_back(cfg, lambda mats, mode: tuple(x.T for x in mats), transposed_back)


@on_similarity_configs
def test_shifting_the_first_matrix_keeps_status_and_witness(cfg):
    def shift(mats, mode):
        return (mats[0] + (1 + 1j) * np.eye(len(mats[0])), *mats[1:])

    assert_evidence_maps_back(cfg, shift, unchanged)


@on_similarity_configs
def test_appending_the_first_adjoint_keeps_status_and_witness(cfg):
    assert_evidence_maps_back(cfg, lambda mats, mode: (*mats, adjoint(mats[0])), unchanged)


@on_configs
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
