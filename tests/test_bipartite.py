"""Tests for bipartite vectors, their induced maps, and the related identities."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eprkit import errors
from eprkit.antilinear import AntilinearMap, adjoint, apply, compose_aa, compose_mixed
from eprkit.bipartite import (
    BipartiteVector,
    cloning_check,
    cross_gram,
    epr_maps,
    inner_via_trace,
    local_transform,
    partner_operator,
    polar_of_state,
    project_rank1,
    purification_from_isometry,
    reconstruct,
    reduced,
)
from eprkit.linalg import partial_trace, psd_sqrt

from util import basis_state, bell, complex_normal, random_unit_state, random_unitary, seeded_rng


class TestEprMaps:
    def test_single_term_state(self):
        pair = epr_maps(basis_state(0, 1, 2, 2))
        assert_allclose(pair.s_ba.mat, [[0.0, 0.0], [1.0, 0.0]])

    def test_bell(self):
        pair = epr_maps(bell(2))
        assert_allclose(pair.s_ba.mat, np.eye(2) / np.sqrt(2))
        assert_allclose(pair.s_ab.mat, np.eye(2) / np.sqrt(2))

    def test_adjoint_pair_exact(self):
        rng = seeded_rng(30)
        psi = random_unit_state(rng, 3, 4)
        pair = epr_maps(psi)
        assert np.array_equal(pair.s_ab.mat, adjoint(pair.s_ba).mat)

    def test_maps_depend_only_on_coefficients(self):
        # two different sum decompositions of the same vector share one coeff matrix
        u = np.array([1.0, 1.0]) / np.sqrt(2)
        w = np.array([1.0, -1.0]) / np.sqrt(2)
        coeff = 0.5 * (np.outer(u, u) + np.outer(w, w))  # equals I/2 again
        assert_allclose(epr_maps(BipartiteVector(coeff)).s_ba.mat, np.eye(2).T / 2, atol=1e-15)

    def test_pairing_identity(self):
        rng = seeded_rng(31)
        psi = random_unit_state(rng, 3, 2)
        pair = epr_maps(psi)
        for _ in range(100):
            phi_a = complex_normal(rng, 3)
            phi_b = complex_normal(rng, 2)
            target = np.vdot(np.kron(phi_a, phi_b), psi.to_vector())
            assert abs(np.vdot(phi_b, apply(pair.s_ba, phi_a)) - target) < 1e-12
            assert abs(np.vdot(phi_a, apply(pair.s_ab, phi_b)) - target) < 1e-12


class TestProjectRank1:
    def test_bell_basis_input(self):
        got = project_rank1(bell(2), [1.0, 0.0])
        want = np.zeros((2, 2))
        want[0, 0] = 1 / np.sqrt(2)
        assert_allclose(got.coeff, want)

    def test_product_state(self):
        rng = seeded_rng(32)
        u = complex_normal(rng, 3)
        u /= np.linalg.norm(u)
        w = complex_normal(rng, 2)
        psi = BipartiteVector(np.outer(u, w))
        phi = complex_normal(rng, 3)
        phi /= np.linalg.norm(phi)
        got = project_rank1(psi, phi)
        assert_allclose(got.coeff, np.vdot(phi, u) * np.outer(phi, w), atol=1e-12)

    def test_matches_induced_map(self):
        rng = seeded_rng(33)
        psi = random_unit_state(rng, 4, 3)
        pair = epr_maps(psi)
        phi = complex_normal(rng, 4)
        phi /= np.linalg.norm(phi)
        got = project_rank1(psi, phi)
        assert np.linalg.norm(got.coeff - np.outer(phi, apply(pair.s_ba, phi))) < 1e-10

    def test_output_norm_is_expectation(self):
        rng = seeded_rng(34)
        psi = random_unit_state(rng, 3, 3)
        phi = complex_normal(rng, 3)
        phi /= np.linalg.norm(phi)
        got = project_rank1(psi, phi)
        expect = np.vdot(phi, reduced(psi, "a") @ phi).real
        assert got.norm() ** 2 == pytest.approx(expect, abs=1e-10)

    def test_not_unit(self):
        with pytest.raises(errors.NotUnit):
            project_rank1(bell(2), [2.0, 0.0])


class TestInnerViaTrace:
    def test_normalized_self(self):
        rng = seeded_rng(35)
        psi = random_unit_state(rng, 2, 3)
        assert inner_via_trace(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_basis_with_bell(self):
        got = inner_via_trace(basis_state(0, 0, 2, 2), bell(2))
        assert got == pytest.approx(1 / np.sqrt(2), abs=1e-15)

    def test_orthogonal_products(self):
        assert inner_via_trace(basis_state(0, 0, 2, 2), basis_state(1, 1, 2, 2)) == 0

    def test_both_trace_routes(self):
        rng = seeded_rng(36)
        phi = random_unit_state(rng, 3, 2)
        psi = random_unit_state(rng, 3, 2)
        direct = np.vdot(phi.coeff, psi.coeff)
        assert abs(inner_via_trace(phi, psi) - direct) < 1e-12
        other = np.trace(compose_aa(epr_maps(psi).s_ba, epr_maps(phi).s_ab))
        assert abs(other - direct) < 1e-12


class TestReconstruct:
    def test_identity_returns_state(self):
        rng = seeded_rng(37)
        psi = random_unit_state(rng, 3, 2)
        got = reconstruct(epr_maps(psi).s_ba, np.eye(3))
        assert np.linalg.norm(got.coeff - psi.coeff) < 1e-10

    def test_rank_one_projector_matches_projection(self):
        got = reconstruct(epr_maps(bell(2)).s_ba, np.diag([1.0, 0.0]))
        assert_allclose(got.coeff, project_rank1(bell(2), [1.0, 0.0]).coeff, atol=1e-12)

    def test_zero_operator(self):
        got = reconstruct(epr_maps(bell(2)).s_ba, np.zeros((2, 2)))
        assert np.all(got.coeff == 0)

    def test_general_psd_matches_direct_action(self):
        rng = seeded_rng(38)
        psi = random_unit_state(rng, 4, 3)
        a = complex_normal(rng, 4, 4)
        a = a @ a.conj().T
        got = reconstruct(epr_maps(psi).s_ba, a)
        assert np.linalg.norm(got.coeff - a @ psi.coeff) < 1e-10

    def test_not_positive(self):
        with pytest.raises(errors.NotPositive):
            reconstruct(epr_maps(bell(2)).s_ba, np.diag([1.0, -1.0]))


class TestReduced:
    def test_bell(self):
        assert_allclose(reduced(bell(2), "a"), np.eye(2) / 2)
        assert_allclose(reduced(bell(2), "b"), np.eye(2) / 2)

    def test_product_vector_rank_one(self):
        psi = basis_state(1, 0, 2, 3)
        assert_allclose(reduced(psi, "a"), np.diag([0.0, 1.0]))
        assert np.linalg.matrix_rank(reduced(psi, "b")) == 1

    def test_against_partial_trace(self):
        rng = seeded_rng(39)
        for da, db in [(2, 2), (3, 4), (8, 8)]:
            psi = random_unit_state(rng, da, db)
            dense = np.outer(psi.to_vector(), np.conj(psi.to_vector()))
            assert np.linalg.norm(reduced(psi, "a") - partial_trace(dense, da, db, "a")) < 1e-10
            assert np.linalg.norm(reduced(psi, "b") - partial_trace(dense, da, db, "b")) < 1e-10

    def test_defining_expectation_property(self):
        rng = seeded_rng(40)
        psi = random_unit_state(rng, 3, 3)
        a = complex_normal(rng, 3, 3)
        lhs = np.vdot(psi.to_vector(), np.kron(a, np.eye(3)) @ psi.to_vector())
        assert abs(lhs - np.trace(reduced(psi, "a") @ a)) < 1e-10

    def test_traces_equal_norm_sq(self):
        rng = seeded_rng(41)
        psi = BipartiteVector(complex_normal(rng, 3, 2))  # deliberately not normalized
        n2 = psi.norm() ** 2
        assert np.trace(reduced(psi, "a")).real == pytest.approx(n2, abs=1e-12)
        assert np.trace(reduced(psi, "b")).real == pytest.approx(n2, abs=1e-12)


class TestLocalTransform:
    def test_identity(self):
        psi = bell(2)
        assert_allclose(local_transform(psi, np.eye(2), np.eye(2)).coeff, psi.coeff)

    def test_diagonal_on_bell(self):
        a = np.diag([0.3 + 0.1j, 1.2])
        got = local_transform(bell(2), a, np.eye(2))
        assert_allclose(got.coeff, a / np.sqrt(2), atol=1e-15)

    def test_map_covariance(self):
        rng = seeded_rng(42)
        psi = random_unit_state(rng, 3, 2)
        a = complex_normal(rng, 3, 3)
        b = complex_normal(rng, 2, 2)
        moved = local_transform(psi, a, b)
        pair = epr_maps(psi)
        want_ba = compose_mixed(b, compose_mixed(a.conj().T, pair.s_ba, "right"), "left")
        want_ab = compose_mixed(a, compose_mixed(b.conj().T, pair.s_ab, "right"), "left")
        assert np.linalg.norm(epr_maps(moved).s_ba.mat - want_ba.mat) < 1e-10
        assert np.linalg.norm(epr_maps(moved).s_ab.mat - want_ab.mat) < 1e-10

    def test_kronecker_action(self):
        rng = seeded_rng(43)
        psi = random_unit_state(rng, 2, 3)
        a = complex_normal(rng, 2, 2)
        b = complex_normal(rng, 3, 3)
        got = local_transform(psi, a, b).to_vector()
        want = np.kron(a, b) @ psi.to_vector()
        assert np.linalg.norm(got - want) < 1e-12


class TestPartnerOperator:
    def test_identity_gives_support_projection(self):
        rng = seeded_rng(44)
        psi = random_unit_state(rng, 3, 3)
        parts = polar_of_state(psi)
        b = partner_operator(np.eye(3), parts)
        assert np.linalg.norm(b - parts.support_cod) < 1e-10

    def test_bell_diagonal(self):
        parts = polar_of_state(bell(2))
        b = partner_operator(np.diag([1.0, 2.0]), parts)
        assert np.trace(reduced(bell(2), "b") @ b).real == pytest.approx(1.5, abs=1e-12)

    def test_trace_transfer_random(self):
        rng = seeded_rng(45)
        for _ in range(100):
            psi = random_unit_state(rng, 3, 3)
            a = complex_normal(rng, 3, 3)
            b = partner_operator(a, polar_of_state(psi))
            lhs = np.trace(reduced(psi, "a") @ a)
            rhs = np.trace(reduced(psi, "b") @ b)
            assert abs(lhs - rhs) < 1e-10

    def test_intertwines_on_support(self):
        rng = seeded_rng(46)
        psi = random_unit_state(rng, 4, 2)  # rank <= 2, genuinely supported
        parts = polar_of_state(psi)
        a = complex_normal(rng, 4, 4)
        b = partner_operator(a, parts)
        j = parts.phase.mat
        resid = (b.conj().T @ j - j @ np.conj(a)) @ np.conj(parts.support_dom)
        assert np.abs(resid).max() < 1e-10


class TestPurification:
    def test_bell_from_conjugation(self):
        psi = purification_from_isometry(np.eye(2) / 2, AntilinearMap(np.eye(2)))
        assert_allclose(psi.coeff, np.eye(2) / np.sqrt(2), atol=1e-15)

    def test_rank_one_gives_product(self):
        v = np.array([0.6, 0.8j])
        omega = np.outer(v, np.conj(v))
        psi = purification_from_isometry(omega, AntilinearMap(np.eye(2)))
        assert np.linalg.svd(psi.coeff, compute_uv=False)[1] < 1e-12

    def test_roundtrip_and_isometry_freedom(self):
        rng = seeded_rng(47)
        a = complex_normal(rng, 3, 3)
        omega = a @ a.conj().T
        omega /= np.trace(omega).real
        w1 = AntilinearMap(np.eye(3))
        w2 = AntilinearMap(random_unitary(rng, 3))
        psi1 = purification_from_isometry(omega, w1)
        psi2 = purification_from_isometry(omega, w2)
        assert np.linalg.norm(reduced(psi1, "a") - omega) < 1e-9
        assert np.linalg.norm(reduced(psi2, "a") - omega) < 1e-9
        assert np.linalg.norm(psi1.coeff - psi2.coeff) > 1e-3  # different purifications

    def test_conjugation_purifies_rank_deficient(self):
        omega = np.diag([1.0, 0.0])
        psi = purification_from_isometry(omega, AntilinearMap(np.eye(2)))
        assert np.linalg.norm(reduced(psi, "a") - omega) < 1e-12

    def test_not_isometry(self):
        with pytest.raises(errors.NotIsometry):
            purification_from_isometry(np.eye(2) / 2, AntilinearMap(np.eye(2) * 0.5))


class TestCrossGram:
    def test_bell_with_itself(self):
        got = cross_gram(bell(2), bell(2))
        assert_allclose(got, np.eye(2) / 2)
        assert_allclose(np.linalg.svd(got, compute_uv=False), [0.5, 0.5])

    def test_orthogonal_supports(self):
        assert np.all(cross_gram(basis_state(0, 0, 2, 2), basis_state(1, 1, 2, 2)) == 0)

    def test_singular_values_match_reduction_formula(self):
        rng = seeded_rng(48)
        for _ in range(20):
            phi = random_unit_state(rng, 3, 4)
            psi = random_unit_state(rng, 3, 4)
            sv = np.sort(np.linalg.svd(cross_gram(phi, psi), compute_uv=False))[::-1]
            oracle = np.sort(
                np.linalg.svd(
                    psd_sqrt(reduced(phi, "a")) @ psd_sqrt(reduced(psi, "a")),
                    compute_uv=False,
                )
            )[::-1]
            n = max(sv.size, oracle.size)
            sv = np.pad(sv, (0, n - sv.size))
            oracle = np.pad(oracle, (0, n - oracle.size))
            assert np.abs(sv - oracle).max() < 1e-9

    def test_trace_formula(self):
        rng = seeded_rng(49)
        phi = random_unit_state(rng, 2, 3)
        psi = random_unit_state(rng, 2, 3)
        for _ in range(20):
            b = complex_normal(rng, 3, 3)
            lhs = np.trace(cross_gram(phi, psi) @ b)
            rhs = np.vdot(psi.coeff, phi.coeff @ b.T)
            assert abs(lhs - rhs) < 1e-10


class TestCloning:
    def test_equal_states(self):
        hermitian, comm = cloning_check(bell(2), bell(2))
        assert hermitian
        assert comm == pytest.approx(0.0, abs=1e-15)

    def test_bell_with_skewed_diagonal(self):
        skew = BipartiteVector(np.diag([np.sqrt(0.8), np.sqrt(0.2)]))
        hermitian, comm = cloning_check(bell(2), skew)
        assert hermitian
        assert comm < 1e-12

    def test_generic_pair_not_hermitian(self):
        rng = seeded_rng(50)
        hermitian, comm = cloning_check(random_unit_state(rng, 3, 3), random_unit_state(rng, 3, 3))
        assert not hermitian
        assert comm > 1e-3

    def test_constructed_hermitian_instances_commute(self):
        rng = seeded_rng(51)
        for _ in range(20):
            u = random_unitary(rng, 3)
            v = random_unitary(rng, 3)
            p = rng.random(3) + 0.1
            q = rng.random(3) + 0.1
            phi = BipartiteVector(u @ np.diag(np.sqrt(p / p.sum())) @ v.conj().T)
            psi = BipartiteVector(u @ np.diag(np.sqrt(q / q.sum())) @ v.conj().T)
            hermitian, comm = cloning_check(phi, psi)
            assert hermitian
            assert comm < 1e-9

    def test_hermiticity_cut_is_relative_to_each_cross_product(self):
        # A non-commuting unit pair scaled by 1e-5: cross products of about 1e-10, skew of the same size.
        rng = np.random.default_rng(1)
        phi, psi = (BipartiteVector(1e-5 * random_unit_state(rng, 3, 3).coeff) for _ in range(2))
        assert not cloning_check(phi, psi)[0]
        # A commuting pair (shared Schmidt bases) scaled by 1e4: a rounding skew of 5.6e-9 on entries of 3.6e7.
        rng = np.random.default_rng(4)
        u, v = random_unitary(rng, 3), random_unitary(rng, 3)
        p, q = rng.random(3) + 0.1, rng.random(3) + 0.1
        phi, psi = (BipartiteVector(1e4 * u @ np.diag(np.sqrt(w / w.sum())) @ v.conj().T) for w in (p, q))
        x = cross_gram(phi, psi)
        assert np.abs(x - x.conj().T).max() > 1e-9
        assert cloning_check(phi, psi)[0]


def test_bipartite_vector_validation():
    with pytest.raises(errors.NonFinite):
        BipartiteVector([[np.inf, 0.0]])
    with pytest.raises(errors.DimMismatch):
        BipartiteVector.from_vector([1.0, 0.0, 0.0], 2, 2)
    with pytest.raises(errors.DimMismatch, match="positive"):
        BipartiteVector(np.zeros((0, 2)))


def test_coefficients_are_read_only():
    psi = bell(2)
    with pytest.raises(ValueError):
        psi.coeff[0, 0] = 5.0
