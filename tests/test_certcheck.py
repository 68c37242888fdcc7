"""Certificate replay: genuine certificates confirm, tampered ones refute."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from susim.certcheck import check_certificate
from susim.graph import EdgeStep
from susim.instances import GenConfig, generate
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
