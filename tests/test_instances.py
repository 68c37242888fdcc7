"""Generator and oracle behaviour, cross-checked against the solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susim.canonical import extract_features
from susim.certcheck import check_certificate
from susim.errors import OutOfScope, SpecInvalid
from susim.instances import (
    GEN_KINDS,
    GEN_PARAMETERS,
    GenConfig,
    deep_split,
    generate,
    ginibre,
    pairwise_trap,
    perturbed_nonsimilar,
    planted_equivalent,
    planted_similar,
    pr_cycle,
    random_unitary,
)
from susim.linalg import adjoint, fro
from susim.model import NOT_SIMILAR, SOLVED, Instance
from susim.oracles import small_case_decider, trace_word_oracle, word_to_string
from susim.solver import solve


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(0)
    u = random_unitary(7, rng)
    assert fro(u @ adjoint(u) - np.eye(7)) < 1e-12


def test_random_unitary_depends_on_seed():
    a = random_unitary(4, np.random.default_rng(1))
    b = random_unitary(4, np.random.default_rng(2))
    assert fro(a - b) > 1e-3


@pytest.mark.parametrize("style", ["dense", "structured"])
def test_planted_similar_witness_and_solve(style):
    rng = np.random.default_rng(11)
    inst, u = planted_similar(6, 3, rng, style=style)
    for a, b in zip(inst.a_mats, inst.b_mats):
        assert fro(u @ a @ adjoint(u) - b) < 1e-10
    result = solve(inst)
    assert result.status == SOLVED
    assert result.iterations <= 6


def test_planted_similar_rejects_unknown_style():
    with pytest.raises(SpecInvalid):
        planted_similar(4, 1, np.random.default_rng(0), style="sparse")


def test_planted_equivalent_witness_and_solve():
    rng = np.random.default_rng(5)
    inst, (u, v) = planted_equivalent(3, 5, 2, rng)
    assert inst.mode == "sueq"
    assert inst.shape == (3, 5)
    for a, b in zip(inst.a_mats, inst.b_mats):
        assert fro(u @ a @ adjoint(v) - b) < 1e-10
    result = solve(inst)
    assert result.status == SOLVED
    assert result.iterations <= 8


def test_perturbed_is_rejected_and_certified():
    rng = np.random.default_rng(23)
    inst, word = perturbed_nonsimilar(5, 2, rng)
    again = trace_word_oracle(inst.a_mats, inst.b_mats, max_len=4)
    assert again is not None
    result = solve(inst)
    assert result.status == NOT_SIMILAR
    assert check_certificate(inst, result.certificate).confirmed


def test_pairwise_trap_needs_a_mixed_word():
    rng = np.random.default_rng(31)
    inst, word = pairwise_trap(5, rng)
    assert len(word.letters) >= 2
    assert len(set(word.letters)) >= 2
    result = solve(inst)
    assert result.status == NOT_SIMILAR


def test_pairwise_sides_are_pairwise_similar():
    rng = np.random.default_rng(37)
    inst, _ = pairwise_trap(4, rng)
    for k in range(2):
        single = Instance("sus", [inst.a_mats[k]], [inst.b_mats[k]])
        assert solve(single).status == SOLVED


@pytest.mark.parametrize(
    "n,p,depth",
    [(7, 3, 5), (16, 2, 4), (32, 2, 8), (64, 2, 16), (6, 1, 2), (5, 2, 0)],
)
def test_deep_split_hits_planned_iteration_count(n, p, depth):
    rng = np.random.default_rng(n + 13 * depth)
    inst, u = deep_split(n, p, depth, rng)
    for a, b in zip(inst.a_mats, inst.b_mats):
        assert fro(u @ a @ adjoint(u) - b) < 1e-10
    result = solve(inst)
    assert result.status == SOLVED
    assert result.iterations == depth + 1


def test_deep_split_small_gap_still_solves():
    inst, _ = deep_split(8, 2, 4, np.random.default_rng(3), gap=1e-4)
    result = solve(inst)
    assert result.status == SOLVED
    assert result.iterations == 5


@pytest.mark.parametrize("n,p,depth", [(4, 1, 4), (2, 1, 2), (3, 1, 3)])
def test_deep_split_rejects_unreachable_depth(n, p, depth):
    with pytest.raises(SpecInvalid):
        deep_split(n, p, depth, np.random.default_rng(0))


def test_pr_cycle_refines_through_path_products():
    rng = np.random.default_rng(17)
    inst, u = pr_cycle(8, rng)
    result = solve(inst)
    assert result.status == SOLVED
    features = extract_features(inst.a_mats)
    assert any(step.functional == "pr_normal" for step in features.steps)


def test_pr_cycle_rejects_odd_or_tiny_sizes():
    with pytest.raises(SpecInvalid):
        pr_cycle(5, np.random.default_rng(0))
    with pytest.raises(SpecInvalid):
        pr_cycle(2, np.random.default_rng(0))


def test_trace_word_oracle_silent_on_identical_input():
    rng = np.random.default_rng(2)
    mats = [ginibre(4, 4, rng) for _ in range(2)]
    assert trace_word_oracle(mats, [m.copy() for m in mats], max_len=3) is None


def test_trace_word_oracle_returns_cyclically_minimal_word():
    rng = np.random.default_rng(41)
    inst, word = pairwise_trap(4, rng)
    w = word.letters
    assert all(w <= w[k:] + w[:k] for k in range(1, len(w)))
    p = inst.count

    def evaluate(mats):
        out = np.eye(inst.shape[0], dtype=complex)
        for k in w:
            out = out @ (mats[k] if k < p else adjoint(mats[k - p]))
        return complex(np.trace(out))

    assert abs(evaluate(inst.a_mats) - word.trace_a) < 1e-9
    assert abs(evaluate(inst.b_mats) - word.trace_b) < 1e-9
    assert abs(word.trace_a - word.trace_b) > 1e-6


def test_word_to_string_marks_adjoints():
    assert word_to_string((0, 3, 1), p=2) == "A1 A2* A2"


def test_decider_single_normal_matrix():
    rng = np.random.default_rng(6)
    q = random_unitary(4, rng)
    vals = np.array([3.0, 2.0, 2.0, -1.0], dtype=complex)
    a = [q @ np.diag(vals) @ adjoint(q)]
    u = random_unitary(4, rng)
    b = [u @ a[0] @ adjoint(u)]
    assert small_case_decider(Instance("sus", a, b)) == SOLVED
    b_off = [u @ np.diag(vals + np.array([0, 0, 0, 0.5])) @ adjoint(u)]
    assert small_case_decider(Instance("sus", a, b_off)) == NOT_SIMILAR


def test_decider_single_matrix_requires_normality():
    a = [np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)]
    with pytest.raises(OutOfScope):
        small_case_decider(Instance("sus", [np.eye(3, dtype=complex) + 0], [np.triu(np.ones((3, 3), dtype=complex))]))
    assert small_case_decider(Instance("sus", a, [a[0].copy()])) == SOLVED


def test_decider_equivalence_by_singular_values():
    rng = np.random.default_rng(9)
    inst, _ = planted_equivalent(3, 5, 1, rng)
    assert small_case_decider(inst) == SOLVED
    bad = Instance("sueq", inst.a_mats, [2.0 * inst.b_mats[0]])
    assert small_case_decider(bad) == NOT_SIMILAR
    with pytest.raises(OutOfScope):
        small_case_decider(Instance("sueq", [np.eye(2)] * 2, [np.eye(2)] * 2))


def test_decider_out_of_scope_for_general_collections():
    rng = np.random.default_rng(10)
    mats = [ginibre(3, 3, rng) for _ in range(2)]
    with pytest.raises(OutOfScope):
        small_case_decider(Instance("sus", mats, mats))


def test_decider_one_by_one():
    a = [np.array([[2.0 + 1j]]), np.array([[0.5]])]
    assert small_case_decider(Instance("sus", a, [m.copy() for m in a])) == SOLVED
    assert small_case_decider(Instance("sus", a, [a[0] + 1.0, a[1]])) == NOT_SIMILAR


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000), st.booleans())
def test_decider_agrees_with_solver_on_two_by_two(seed, plant):
    rng = np.random.default_rng(seed)
    if plant:
        inst, _ = planted_similar(2, 3, rng)
    else:
        a = [ginibre(2, 2, rng) for _ in range(3)]
        b = [ginibre(2, 2, rng) for _ in range(3)]
        inst = Instance("sus", a, b)
    assert small_case_decider(inst) == solve(inst).status


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000))
def test_decider_agrees_with_solver_on_single_equivalence(seed):
    rng = np.random.default_rng(seed)
    if seed % 2 == 0:
        inst, _ = planted_equivalent(3, 4, 1, rng)
    else:
        inst = Instance("sueq", [ginibre(3, 4, rng)], [ginibre(3, 4, rng)])
    assert small_case_decider(inst) == solve(inst).status


def test_generate_dispatch_and_labels():
    inst, meta = generate(GenConfig(kind="pr_cycle", n=6, seed=4))
    assert inst.name == "pr_cycle-n6-p1-seed4"
    assert "witness_u" in meta
    inst, meta = generate(GenConfig(kind="pairwise", n=4, count=2, seed=8, name="trap"))
    assert inst.name == "trap"
    assert "certifying_word" in meta and "word_text" in meta
    inst, meta = generate(GenConfig(kind="planted_equivalent", n=5, m=3, count=2, seed=1))
    assert inst.shape == (3, 5)
    assert "witness_v" in meta
    with pytest.raises(SpecInvalid):
        generate(GenConfig(kind="mystery", n=4))


@pytest.mark.parametrize("count", [0, -2])
def test_config_without_a_matrix_is_refused(count):
    with pytest.raises(SpecInvalid, match="count"):
        GenConfig(kind="perturbed", n=4, count=count)


@pytest.mark.parametrize(
    "params, message",
    [
        (dict(kind="pairwise", n=4, count=5), "pairwise builds 2 matrices per side, not -p 5"),
        (dict(kind="pr_cycle", n=6, count=1), "pr_cycle builds 2 matrices per side, not -p 1"),
        (dict(kind="deep_split", n=8, count=2, m=3, eps=0.5), "deep_split does not read -m"),
        (dict(kind="deep_split", n=8, eps=1e-2), "deep_split does not read --eps"),
        (dict(kind="pairwise", n=4, style="dense"), "pairwise does not read --style"),
        (dict(kind="planted_equivalent", n=4, gap=1.0), "planted_equivalent does not read --gap"),
        (dict(kind="mystery", n=4), "unknown instance kind 'mystery'"),
    ],
)
def test_config_refuses_a_parameter_its_kind_does_not_read(params, message):
    # Given as its default value, too: the kind would ignore it.
    with pytest.raises(SpecInvalid) as caught:
        GenConfig(**params)
    assert str(caught.value) == message


@pytest.mark.parametrize("kind", list(GEN_KINDS))
def test_parameters_not_given_take_their_kind_values(kind):
    n = 6
    bare = GenConfig(kind=kind, n=n, seed=3)
    assert {p: getattr(bare, p) for p in GEN_PARAMETERS} == {
        p: GEN_KINDS[kind].get(p) for p in GEN_PARAMETERS
    }
    assert bare == GenConfig(kind=kind, n=n, seed=3, **GEN_KINDS[kind])
    assert bare.label() == f"{kind}-n{n}-p1-seed3"
    first, _ = generate(bare)
    second, _ = generate(GenConfig(kind=kind, n=n, seed=3, **GEN_KINDS[kind]))
    for x, y in zip(first.a_mats + first.b_mats, second.a_mats + second.b_mats):
        assert x.tobytes() == y.tobytes()


def test_generate_is_reproducible():
    cfg = GenConfig(kind="planted_similar", n=5, count=2, seed=99)
    first, _ = generate(cfg)
    second, _ = generate(cfg)
    for x, y in zip(first.a_mats + first.b_mats, second.a_mats + second.b_mats):
        assert fro(x - y) == 0.0
