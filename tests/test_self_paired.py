"""A collection paired with itself: every stage computes the B side only once.

``extract_features`` runs the decision loop on ``(mats, mats)``.  Each stage
reuses its A-side result when the B side is the same object, so the run
must take the same steps, partitions and ending as a run against a copy,
while calling the eigensolver once per step and reading each scanned cell
once (the 1x1 cells only once the final scan has passed, and the cells one
kernel pass proves zero or, on the similarity diagonal, identity multiples
not at all).
"""

from collections import Counter

import pytest
from test_fuzz import noisy_pr_cycle
from test_golden import CONFIGS
from test_shared_pairs import guard_scan_reads

from susim import model, refine, solver
from susim.errors import SusimError
from susim.instances import GenConfig, generate
from susim.linalg import DEFAULT_TOLERANCES

TOL = DEFAULT_TOLERANCES


def array_bits(x):
    """An array's shape, dtype and bytes: equal only if equal bit for bit."""
    return x.shape, x.dtype, x.tobytes()


def run_record(mode, a_mats, b_mats):
    """Everything the loop yields and returns, or the error it raises."""
    record = []
    loop = solver._refinements(mode, a_mats, b_mats, TOL)
    try:
        while True:
            out, rows, cols = next(loop)
            record.append(
                (
                    out.step,
                    rows.sizes,
                    cols.sizes,
                    out.rows.sizes,
                    out.cols.sizes,
                    [m.tobytes() for m in out.a_mats],
                    [m.tobytes() for m in out.b_mats],
                    out.y.tobytes(),
                    out.z.tobytes(),
                )
            )
    except StopIteration as stop:
        end = stop.value
    except SusimError as exc:
        return record, (type(exc), str(exc))
    paths = end.paths
    record.append(
        (
            type(end),
            end.rows.sizes,
            end.cols.sizes,
            array_bits(end.form.diag_alphas),
            array_bits(end.form.cell_scales_a),
            array_bits(end.form.cell_scales_b),
            paths.components,
            paths.steps_to,
            paths.amps_a,
            paths.amps_b,
            [p.tobytes() for p in paths.paths_a],
            [p.tobytes() for p in paths.paths_b],
            array_bits(end.betas),
        )
    )
    return record, None


def assert_self_run_matches_copy(mode, mats):
    mats = list(mats)
    assert run_record(mode, mats, mats) == run_record(mode, mats, [m.copy() for m in mats])


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda cfg: cfg["kind"])
def test_self_paired_run_matches_a_run_against_a_copy(cfg):
    for seed in range(20):
        inst, _ = generate(GenConfig(seed=seed, **cfg))
        for mats in (inst.a_mats, inst.b_mats):
            square = mats[0].shape[0] == mats[0].shape[1]
            for mode in ("sus", "sueq") if square else ("sueq",):
                assert_self_run_matches_copy(mode, mats)


def test_noisy_pr_cycle_b_sides_match_a_run_against_a_copy():
    for seed in range(200):
        assert_self_run_matches_copy("sus", noisy_pr_cycle(seed).b_mats)


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda cfg: cfg["kind"])
def test_self_paired_run_computes_each_side_once(cfg, monkeypatch):
    calls = Counter()

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in ("eig_hermitian", "eig_normal"):
        count(refine, name)
    seen = guard_scan_reads(monkeypatch)

    inst, _ = generate(GenConfig(seed=0, **cfg))
    mats = list(inst.a_mats)
    loop = solver._refinements(inst.mode, mats, mats, TOL)
    steps = 0
    while True:
        try:
            next(loop)
        except StopIteration as stop:
            end = stop.value
            break
        steps += 1
    assert isinstance(end, solver._Solution)
    assert calls["eig_hermitian"] + calls["eig_normal"] == steps
    assert seen["kernel reads"] >= len(mats)
    # Collections that keep classes larger than 1x1 skip their zero cells.
    blocky = cfg["kind"] in ("planted_equivalent", "deep_split", "pr_cycle")
    assert bool(seen["zero cells skipped"]) is blocky
    # Similarity collections that keep classes larger than 1x1 skip their
    # diagonal cells, which are identity multiples.
    scalar = cfg["kind"] in ("deep_split", "pr_cycle")
    assert bool(seen["scalar cells skipped"]) is scalar
    assert end.paths.paths_b is end.paths.paths_a


def test_guard_sees_both_eigensolvers():
    # The pr_cycle collection refines through a holonomy, whose functional
    # is normal, so the guard above covers eig_normal as well.
    inst, _ = generate(GenConfig(seed=0, kind="pr_cycle", n=6))
    mats = list(inst.a_mats)
    functionals = [out.step.functional for out, _, _ in solver._refinements("sus", mats, mats, TOL)]
    assert model.PR_NORMAL in functionals
