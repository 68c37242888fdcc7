"""Certificate replay: genuine certificates confirm, tampered ones refute."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from susim.certcheck import check_certificate
from susim.graph import EdgeStep
from susim.instances import GenConfig, generate, pairwise_trap, perturbed_nonsimilar
from susim.linalg import DEFAULT_TOLERANCES, adjoint
from susim.model import NOT_SIMILAR, Certificate, Instance
from susim.refine import RefinementStep
from susim.solver import solve

TOL = DEFAULT_TOLERANCES


def random_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def as_instance(a_mats, b_mats, mode="sus"):
    return Instance(
        mode,
        tuple(np.asarray(m, dtype=complex) for m in a_mats),
        tuple(np.asarray(m, dtype=complex) for m in b_mats),
    )


def certified(a_mats, b_mats, mode="sus"):
    inst = as_instance(a_mats, b_mats, mode)
    res = solve(inst)
    assert res.status == NOT_SIMILAR, res
    return inst, res.certificate


def holonomy_instances():
    a1 = np.diag([2.0, 2.0, 1.0, 1.0]).astype(complex)
    a2 = np.zeros((4, 4), dtype=complex)
    a2[0:2, 2:4] = 2.0 * np.eye(2)
    return a1, a2


class TestGenuineCertificates:
    def test_diag_alpha(self):
        inst, cert = certified([np.array([[2.0]])], [np.array([[3.0]])])
        rep = check_certificate(inst, cert)
        assert rep.confirmed, rep.reason

    def test_eigenvalue_herm_real(self):
        inst, cert = certified([np.diag([1.0, 2.0])], [np.diag([1.0, 3.0])])
        rep = check_certificate(inst, cert)
        assert rep.confirmed, rep.reason

    def test_pr_beta(self):
        a1, a2 = holonomy_instances()
        a3 = a2.copy()
        b3 = np.zeros((4, 4), dtype=complex)
        b3[0:2, 2:4] = -2.0 * np.eye(2)
        inst, cert = certified([a1, a2, a3], [a1.copy(), a2.copy(), b3])
        assert cert.target == "pr_beta"
        rep = check_certificate(inst, cert)
        assert rep.confirmed, rep.reason

    def test_pr_normal(self):
        a1, a2 = holonomy_instances()
        a3 = np.zeros((4, 4), dtype=complex)
        a3[0:2, 2:4] = np.diag([1.0, -1.0])
        b3 = np.zeros((4, 4), dtype=complex)
        b3[0:2, 2:4] = np.eye(2)
        inst, cert = certified([a1, a2, a3], [a1.copy(), a2.copy(), b3])
        assert cert.target == "pr_normal"
        assert len(cert.steps) >= 1
        rep = check_certificate(inst, cert)
        assert rep.confirmed, rep.reason

    def test_multistep_perturbed(self):
        rng = np.random.default_rng(20)
        a = [rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)) for _ in range(2)]
        u = random_unitary(5, rng)
        b = [u @ m @ adjoint(u) for m in a]
        e = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        b[1] = b[1] + 0.02 * e / np.linalg.norm(e)
        inst, cert = certified(a, b)
        rep = check_certificate(inst, cert)
        assert rep.confirmed, rep.reason

    def test_equivalence_certificate(self):
        inst, cert = certified(
            [np.diag([1.0, 2.0, 3.0])], [np.diag([1.0, 2.0, 4.0])], mode="sueq"
        )
        rep = check_certificate(inst, cert)
        assert rep.confirmed, rep.reason

    def test_early_disagreement_still_confirms(self):
        # A certificate may claim a longer chain; if the replay hits a
        # forced disagreement at an intermediate step, that already proves
        # the instances apart.
        a = [np.diag([1.0, 2.0]).astype(complex)]
        b = [np.diag([1.0, 3.0]).astype(complex)]
        inst = as_instance(a, b)
        step = RefinementStep(
            "herm_real", (0, 0, 0), ("row", 0),
            ((2.0 + 0j, 1), (1.0 + 0j, 1)), ((3.0 + 0j, 1), (1.0 + 0j, 1)),
        )
        cert = Certificate(
            "sus", "scalar", "diag_alpha", (0, 0, 0), (step,), 2,
            a_value=0.0 + 0j, b_value=1.0 + 0j,
        )
        rep = check_certificate(inst, cert)
        assert rep.confirmed
        assert "already disagree" in rep.reason


class TestTamperedCertificates:
    def _base(self):
        return certified([np.diag([1.0, 2.0])], [np.diag([1.0, 3.0])])

    def test_recorded_spectrum_altered(self):
        inst, cert = self._base()
        fake = Certificate(
            cert.mode, cert.kind, cert.target, cert.at, cert.steps, cert.iterations,
            groups_a=((9.0 + 0j, 1), (1.0 + 0j, 1)), groups_b=cert.groups_b,
        )
        rep = check_certificate(inst, fake)
        assert not rep.confirmed
        assert "does not match" in rep.reason

    def test_certificate_against_solvable_instance(self):
        _, cert = self._base()
        same = as_instance([np.diag([1.0, 2.0])], [np.diag([2.0, 1.0])])
        rep = check_certificate(same, cert)
        assert not rep.confirmed

    def test_scalar_value_altered(self):
        inst, cert = certified([np.array([[2.0]])], [np.array([[3.0]])])
        fake = Certificate(
            cert.mode, cert.kind, cert.target, cert.at, cert.steps, cert.iterations,
            a_value=5.0 + 0j, b_value=cert.b_value,
        )
        rep = check_certificate(inst, fake)
        assert not rep.confirmed

    def test_scalar_claim_on_equal_scalars(self):
        inst = as_instance([np.array([[2.0]])], [np.array([[2.0]])])
        cert = Certificate(
            "sus", "scalar", "diag_alpha", (0, 0, 0), (), 1,
            a_value=2.0 + 0j, b_value=3.0 + 0j,
        )
        rep = check_certificate(inst, cert)
        assert not rep.confirmed
        assert "not there" in rep.reason

    def test_mode_mismatch(self):
        inst, cert = self._base()
        fake = Certificate(
            "sueq", cert.kind, cert.target, cert.at, cert.steps, cert.iterations,
            groups_a=cert.groups_a, groups_b=cert.groups_b,
        )
        rep = check_certificate(inst, fake)
        assert not rep.confirmed
        assert "mode" in rep.reason

    def test_out_of_range_cell(self):
        inst, cert = self._base()
        fake = Certificate(
            cert.mode, cert.kind, cert.target, (5, 0, 0), cert.steps, cert.iterations,
            groups_a=cert.groups_a, groups_b=cert.groups_b,
        )
        rep = check_certificate(inst, fake)
        assert not rep.confirmed

    def test_touch_functional_inconsistency(self):
        a = [np.diag([1.0, 2.0]).astype(complex)]
        b = [np.diag([1.0, 3.0]).astype(complex)]
        inst = as_instance(a, b)
        step = RefinementStep(
            "gram_left", (0, 0, 0), ("col", 0),
            ((1.0 + 0j, 1),), ((1.0 + 0j, 1),),
        )
        cert = Certificate(
            "sus", "scalar", "diag_alpha", (0, 0, 0), (step,), 2,
            a_value=0.0 + 0j, b_value=1.0 + 0j,
        )
        rep = check_certificate(inst, cert)
        assert not rep.confirmed
        assert "touches" in rep.reason

    def test_malformed_holonomy_paths(self):
        a1, a2 = holonomy_instances()
        a3 = a2.copy()
        b3 = np.zeros((4, 4), dtype=complex)
        b3[0:2, 2:4] = -2.0 * np.eye(2)
        inst, cert = certified([a1, a2, a3], [a1.copy(), a2.copy(), b3])
        fake = Certificate(
            cert.mode, cert.kind, cert.target, cert.at, cert.steps, cert.iterations,
            a_value=cert.a_value, b_value=cert.b_value, pr_paths=None,
        )
        rep = check_certificate(inst, fake)
        assert not rep.confirmed

    def test_unknown_functional(self):
        inst = as_instance([np.diag([1.0, 2.0])], [np.diag([1.0, 3.0])])
        cert = Certificate(
            "sus", "eigenvalue", "made_up", (0, 0, 0), (), 1,
            groups_a=((1.0 + 0j, 2),), groups_b=((2.0 + 0j, 2),),
        )
        rep = check_certificate(inst, cert)
        assert not rep.confirmed


def pairwise_certificates():
    """Instances and certificates of the golden-size pairwise traps, seeds 0-19.

    Each certificate refines once, then claims a diagonal scalar mismatch.
    """
    for seed in range(20):
        inst, _ = generate(GenConfig(kind="pairwise", n=4, seed=seed))
        res = solve(inst)
        assert res.status == NOT_SIMILAR and res.certificate.steps, seed
        yield seed, inst, res.certificate


def with_first_step(cert, **changes):
    first = dataclasses.replace(cert.steps[0], **changes)
    return dataclasses.replace(cert, steps=(first, *cert.steps[1:]))


class TestMutatedCertificates:
    """One change to a genuine certificate, and the checker refutes it."""

    def test_genuine_pairwise_certificates_confirm(self):
        for seed, inst, cert in pairwise_certificates():
            assert check_certificate(inst, cert).confirmed, seed

    def test_dropped_step(self):
        for seed, inst, cert in pairwise_certificates():
            fake = dataclasses.replace(cert, steps=cert.steps[1:])
            assert not check_certificate(inst, fake).confirmed, seed

    def test_changed_group_count(self):
        for seed, inst, cert in pairwise_certificates():
            (value, count), *rest = cert.steps[0].groups_a
            fake = with_first_step(cert, groups_a=((value, count + 1), *rest))
            rep = check_certificate(inst, fake)
            assert not rep.confirmed, seed
            assert "recorded spectra" in rep.reason

    def test_group_value_moved_beyond_verify(self):
        for seed, inst, cert in pairwise_certificates():
            (value, count), *rest = cert.steps[0].groups_b
            fake = with_first_step(cert, groups_b=((value + 1.0, count), *rest))
            rep = check_certificate(inst, fake)
            assert not rep.confirmed, seed
            assert "recorded spectra" in rep.reason

    def test_flipped_edge_step(self):
        a1, a2 = holonomy_instances()
        b3 = np.zeros((4, 4), dtype=complex)
        b3[0:2, 2:4] = -2.0 * np.eye(2)
        c3 = np.zeros((4, 4), dtype=complex)
        c3[0:2, 2:4] = np.diag([1.0, -1.0])
        pairs = [
            ([a1, a2, a2.copy()], [a1.copy(), a2.copy(), b3]),  # pr_beta
            ([a1, a2, c3], [a1.copy(), a2.copy(), b3 / -2.0]),  # pr_normal
        ]
        for a, b in pairs:
            inst, cert = certified(a, b)
            steps_row, steps_col = cert.pr_paths
            assert steps_col, cert.target
            e = steps_col[0]
            flipped = (EdgeStep(e.l, e.i, e.j, not e.invert), *steps_col[1:])
            fake = dataclasses.replace(cert, pr_paths=(steps_row, flipped))
            assert check_certificate(inst, cert).confirmed, cert.target
            assert not check_certificate(inst, fake).confirmed, cert.target


def pr_beta_certificate():
    """A one-step certificate whose holonomies at cell (2, 0, 1) are 1 and -1;
    the column path crosses edge (1, 0, 1) from row class 1 to row class 0."""
    a1, a2 = holonomy_instances()
    b3 = np.zeros((4, 4), dtype=complex)
    b3[0:2, 2:4] = -2.0 * np.eye(2)
    return certified([a1, a2, a2.copy()], [a1.copy(), a2.copy(), b3])


def pr_normal_certificate():
    """As :func:`pr_beta_certificate`, with holonomies diag(1, -1) / 2 and I / 2."""
    a1, a2 = holonomy_instances()
    a3 = np.zeros((4, 4), dtype=complex)
    a3[0:2, 2:4] = np.diag([1.0, -1.0])
    b3 = np.zeros((4, 4), dtype=complex)
    b3[0:2, 2:4] = np.eye(2)
    return certified([a1, a2, a3], [a1.copy(), a2.copy(), b3])


def diag_alpha_certificate():
    """A pairwise trap: one refinement step, then a diagonal scalar claim."""
    inst = pairwise_trap(6, np.random.default_rng(3))[0]
    res = solve(inst)
    assert res.certificate.target == "diag_alpha" and len(res.certificate.steps) == 1
    return inst, res.certificate


def eigenvalue_certificate():
    """A perturbed pair whose certificate ends in a spectral disagreement."""
    inst = perturbed_nonsimilar(5, 2, np.random.default_rng(0))[0]
    res = solve(inst)
    assert res.certificate.kind == "eigenvalue"
    return inst, res.certificate


def assert_refuted(inst, cert, reason):
    rep = check_certificate(inst, cert)
    assert not rep.confirmed
    assert reason in rep.reason, rep.reason


class TestRefutationReasons:
    """Every refutation the replay can reach, each from one change to a
    genuine certificate, pinned by its reason."""

    # -- path walk -----------------------------------------------------------

    def test_non_square_path_factor(self):
        # A 2x3 equivalence instance has one 2x3 cell before any refinement.
        a = [np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])]
        b = [np.array([[1.0, 0.0, 0.0], [0.0, 3.0, 0.0]])]
        inst, cert = certified(a, b, mode="sueq")
        fake = dataclasses.replace(
            cert, kind="scalar", target="pr_beta", at=(0, 0, 0), steps=(),
            a_value=1.0 + 0j, b_value=-1.0 + 0j,
            pr_paths=((EdgeStep(0, 0, 0, False),), ()),
        )
        assert_refuted(inst, fake, "path factor at (0, 0, 0) is not square")

    def test_non_invertible_path_factor(self):
        inst, cert = pr_beta_certificate()
        # Cell (0, 0, 1) of the diagonal first matrix is zero.
        fake = dataclasses.replace(cert, pr_paths=((), (EdgeStep(0, 0, 1, False),)))
        assert_refuted(inst, fake, "is not an invertible scalar multiple of a unitary")

    def test_descriptors_that_do_not_compose(self):
        inst, cert = pr_beta_certificate()
        steps_row, (e,) = cert.pr_paths
        fake = dataclasses.replace(cert, pr_paths=(steps_row, (e, e)))
        assert_refuted(inst, fake, "path descriptors do not compose")

    def test_empty_path_out_of_range(self):
        inst, cert = pr_beta_certificate()
        fake = dataclasses.replace(cert, at=(2, 5, 1))
        assert_refuted(inst, fake, "vertex ('row', 5) out of range")

    def test_paths_reach_different_classes(self):
        inst, cert = pr_beta_certificate()
        fake = dataclasses.replace(cert, pr_paths=((), ()))
        assert_refuted(inst, fake, "the two paths of a holonomy hint target different classes")

    # -- holonomy ------------------------------------------------------------

    def test_holonomy_hint_on_non_square_cell(self):
        # Paths through square factors join classes of one size, so the two
        # paths of a non-square cell never reach the same class.
        a = [np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])]
        b = [np.array([[1.0, 0.0, 0.0], [0.0, 3.0, 0.0]])]
        inst, cert = certified(a, b, mode="sueq")
        fake = dataclasses.replace(
            cert, kind="scalar", target="pr_beta", at=(0, 0, 0), steps=(),
            a_value=1.0 + 0j, b_value=-1.0 + 0j, pr_paths=((), ()),
        )
        assert_refuted(inst, fake, "the two paths of a holonomy hint target different classes")

    def test_pr_normal_holonomy_not_a_unitary_multiple(self):
        inst, cert = pr_normal_certificate()
        a3 = np.zeros((4, 4), dtype=complex)
        a3[0:2, 2:4] = np.diag([1.0, 2.0])
        fake_inst = dataclasses.replace(inst, a_mats=(*inst.a_mats[:2], a3))
        assert_refuted(fake_inst, cert, "functional recomputation failed")

    def test_pr_beta_holonomies_not_scalar(self):
        inst, cert = pr_normal_certificate()
        fake = dataclasses.replace(
            cert, kind="scalar", target="pr_beta", a_value=0.5 + 0j, b_value=0.5 + 0j,
            groups_a=None, groups_b=None,
        )
        assert_refuted(inst, fake, "the claimed holonomies are not scalar on recomputation")

    # -- hints and claims ----------------------------------------------------

    def test_hermitian_hint_off_the_diagonal(self):
        inst, cert = diag_alpha_certificate()
        fake = with_first_step(cert, at=(0, 0, 1))
        assert_refuted(inst, fake, "a Hermitian-part hint must target a diagonal cell")

    def test_step_on_a_scalar_cell(self):
        # After the first step, cell (0, 0, 0) of diag(2, 2, 1, 1) is 2 I.
        inst, cert = pr_beta_certificate()
        (first,) = cert.steps
        again = dataclasses.replace(first, groups_a=((2.0 + 0j, 2),), groups_b=((2.0 + 0j, 2),))
        fake = dataclasses.replace(cert, steps=(first, again))
        assert_refuted(inst, fake, "step (0, 0, 0) cannot split a class on recomputation")

    def test_diagonal_scalar_claim_off_the_diagonal(self):
        inst, cert = diag_alpha_certificate()
        fake = dataclasses.replace(cert, at=(1, 0, 1))
        assert_refuted(inst, fake, "a diagonal scalar claim must target a diagonal cell")

    def test_unknown_kind_or_target(self):
        inst, cert = diag_alpha_certificate()
        for changes in (dict(kind="made_up"), dict(target="made_up")):
            fake = dataclasses.replace(cert, **changes)
            assert_refuted(inst, fake, "unknown certificate kind")

    # -- B side --------------------------------------------------------------

    def test_b_side_spectrum_altered(self):
        inst, cert = eigenvalue_certificate()
        (value, count), *rest = cert.groups_b
        fake = dataclasses.replace(cert, groups_b=((value + 1.0, count), *rest))
        assert_refuted(inst, fake, "recorded B-side spectrum does not match the recomputation")

    def test_b_side_scalar_altered(self):
        inst, cert = diag_alpha_certificate()
        fake = dataclasses.replace(cert, b_value=cert.b_value + 1.0)
        assert_refuted(inst, fake, "recorded B-side scalar does not match the recomputation")


class TestNonFiniteRecordedValues:
    """A NaN recorded value matches no recomputation."""

    def test_nan_a_value(self):
        inst, cert = diag_alpha_certificate()
        fake = dataclasses.replace(cert, a_value=complex(np.nan, 0.0))
        assert_refuted(inst, fake, "recorded A-side scalar does not match")

    def test_nan_b_value(self):
        inst, cert = diag_alpha_certificate()
        fake = dataclasses.replace(cert, b_value=complex(np.nan, 0.0))
        assert_refuted(inst, fake, "recorded B-side scalar does not match")

    def test_nan_in_a_step_spectrum(self):
        inst, cert = diag_alpha_certificate()
        (_, count), *rest = cert.steps[0].groups_a
        fake = with_first_step(cert, groups_a=((complex(np.nan, 0.0), count), *rest))
        assert_refuted(inst, fake, "recorded spectra of step (0, 0, 0) do not match")

    def test_nan_in_the_final_spectrum(self):
        inst, cert = eigenvalue_certificate()
        (_, count), *rest = cert.groups_b
        fake = dataclasses.replace(cert, groups_b=((complex(np.nan, 0.0), count), *rest))
        assert_refuted(inst, fake, "recorded B-side spectrum does not match")


class TestEveryRejectionRevalidates:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_random_perturbed_certificates_confirm(self, n, p, seed):
        rng = np.random.default_rng(seed)
        a = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(p)]
        u = random_unitary(n, rng)
        b = [u @ m @ adjoint(u) for m in a]
        e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b[0] = b[0] + 0.05 * e / np.linalg.norm(e)
        inst = as_instance(a, b)
        res = solve(inst)
        if res.status == NOT_SIMILAR:
            rep = check_certificate(inst, res.certificate)
            assert rep.confirmed, rep.reason
