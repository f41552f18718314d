"""Tests for twisted products, lifted operators, and the modular triple."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eprkit import errors, verify
from eprkit.antilinear import AntilinearMap, compose_aa
from eprkit.bipartite import BipartiteVector, reduced
from eprkit.linalg import numerical_rank, psd_sqrt, support_projection
from eprkit.modular import (
    KroneckerProduct,
    ModularTriple,
    gns_check,
    lift_operators,
    tomita_S,
    twisted_adjoint,
    twisted_compose,
    twisted_product,
)
from eprkit.sampling import complex_normal, random_unitary, state_from_rng
from eprkit.verify import (
    TOLERANCES,
    ResidualTable,
    modular_defining,
    modular_delta,
    modular_intertwine,
    modular_phase_match,
    modular_phase_match_oracle,
    modular_reconstruction,
    modular_suite,
)

from util import basis_state, bell, random_unit_state, seeded_rng


def random_anti(rng, dy, dx):
    return AntilinearMap(complex_normal(rng, dy, dx))


def twisted_oracle(eta, xi) -> np.ndarray:
    """kron(eta, xi) followed by the permutation sending a-major (k, l) to b-major (l, k)."""
    dim_a, dim_b = eta.shape
    cols = np.arange(dim_a * dim_b)
    rows = (cols % dim_b) * dim_a + cols // dim_b
    perm = np.zeros((dim_a * dim_b, dim_a * dim_b))
    perm[rows, cols] = 1.0
    return np.kron(eta, xi) @ perm


def dense_modular_oracle(phi, psi) -> tuple[np.ndarray, np.ndarray]:
    """S solved from its defining relation on all d² matrix units, and J as the phase of its dense SVD."""
    d = psi.dim_a
    n = d * d
    basis = np.empty((n, n), dtype=np.complex128)   # columns conj((E_ij ⊗ 1) psi)
    target = np.empty((n, n), dtype=np.complex128)  # columns (E_ij* ⊗ 1) phi
    col = 0
    for i in range(d):
        for j in range(d):
            e_ij = np.zeros((d, d), dtype=np.complex128)
            e_ij[i, j] = 1.0
            basis[:, col] = np.conj((e_ij @ psi.coeff).reshape(-1))
            target[:, col] = (e_ij.conj().T @ phi.coeff).reshape(-1)
            col += 1
    s_mat = np.linalg.solve(basis.T, target.T).T
    u, sv, vh = np.linalg.svd(s_mat)
    r = numerical_rank(sv)
    return s_mat, u[:, :r] @ vh[:r, :]


def graded_state(rng, d: int, k: float) -> BipartiteVector:
    """Unit state with Schmidt coefficients logspace(0, -k, d), normalized, in random bases."""
    sigma = np.logspace(0, -k, d)
    sigma /= np.linalg.norm(sigma)
    return BipartiteVector((random_unitary(rng, d) * sigma) @ random_unitary(rng, d).conj().T)


class TestTwistedProduct:
    def test_double_conjugation_swaps_basis(self):
        p = twisted_product(AntilinearMap(np.eye(2)), AntilinearMap(np.eye(2)))
        e0, e1 = np.eye(2)
        assert_allclose(p(np.kron(e0, e1)), np.kron(e1, e0))

    def test_linear_factor_action(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        p = twisted_product(x, np.eye(2))
        e = np.eye(2)
        for i in range(2):
            for j in range(2):
                assert_allclose(p(np.kron(e[i], e[j])), np.kron(x @ e[j], e[i]))

    def test_antilinear_action_on_products(self):
        rng = seeded_rng(80)
        eta = random_anti(rng, 2, 3)
        xi = random_anti(rng, 3, 2)
        p = twisted_product(eta, xi)
        u = complex_normal(rng, 2)
        v = complex_normal(rng, 3)
        assert np.linalg.norm(p(np.kron(u, v)) - np.kron(eta(v), xi(u))) < 1e-12

    def test_adjoint_law(self):
        rng = seeded_rng(81)
        eta = random_anti(rng, 3, 2)
        xi = random_anti(rng, 2, 3)
        p = twisted_product(eta, xi)
        assert np.linalg.norm(twisted_adjoint(p).mat - p.mat.T) < 1e-12
        lin = twisted_product(complex_normal(rng, 3, 2), complex_normal(rng, 2, 3))
        assert np.linalg.norm(twisted_adjoint(lin).mat - lin.mat.conj().T) < 1e-12

    def test_mixed_parity_rejected(self):
        with pytest.raises(errors.MixedParity):
            twisted_product(np.eye(2), AntilinearMap(np.eye(2)))

    def test_dim_mismatch(self):
        with pytest.raises(errors.DimMismatch):
            twisted_product(AntilinearMap(np.ones((2, 3))), AntilinearMap(np.ones((2, 3))))

    @pytest.mark.parametrize("dims", [(2, 2), (4, 4), (2, 3), (3, 2)])
    def test_bit_identical_to_kron_and_permutation(self, dims):
        dim_a, dim_b = dims
        rng = seeded_rng(79, dim_a, dim_b)
        eta = complex_normal(rng, dim_a, dim_b)
        xi = complex_normal(rng, dim_b, dim_a)
        want = twisted_oracle(eta, xi)
        assert np.array_equal(twisted_product(eta, xi).mat, want)
        assert np.array_equal(twisted_product(AntilinearMap(eta), AntilinearMap(xi)).mat, want)


class TestTwistedCompose:
    def test_phase_lift_squares_to_support(self):
        rng = seeded_rng(82)
        phi = state_from_rng(rng, 3, 3, entangled=True)
        psi = state_from_rng(rng, 3, 3, entangled=True)
        fwd = lift_operators(phi, psi)
        bwd = lift_operators(psi, phi)
        assert np.linalg.norm(twisted_compose(fwd.j, bwd.j) - np.eye(9)) < 1e-9

    def test_conjugation_lift_squared_is_identity(self):
        c = AntilinearMap(np.eye(2))
        p = twisted_product(c, c)
        assert_allclose(twisted_compose(p, p), np.eye(4))

    def test_against_dense_product_and_kron_formula(self):
        rng = seeded_rng(83)
        eta1, xi1 = random_anti(rng, 2, 3), random_anti(rng, 3, 2)
        eta2, xi2 = random_anti(rng, 2, 3), random_anti(rng, 3, 2)
        p1 = twisted_product(eta1, xi1)
        p2 = twisted_product(eta2, xi2)
        got = twisted_compose(p1, p2)
        assert np.linalg.norm(got - p1.mat @ np.conj(p2.mat)) < 1e-12
        want = np.kron(compose_aa(eta1, xi2), compose_aa(xi1, eta2))
        assert np.linalg.norm(got - want) < 1e-10

    def test_linear_factors_give_the_kron_formula(self):
        rng = seeded_rng(84)
        eta1, xi1 = complex_normal(rng, 2, 3), complex_normal(rng, 3, 2)
        eta2, xi2 = complex_normal(rng, 2, 3), complex_normal(rng, 3, 2)
        got = twisted_compose(twisted_product(eta1, xi1), twisted_product(eta2, xi2))
        assert np.linalg.norm(got - np.kron(eta1 @ xi2, xi1 @ eta2)) < 1e-10


class TestLiftOperators:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_bit_identical_to_kron_and_permutation(self, d):
        rng = seeded_rng(78, d)
        phi = random_unit_state(rng, d, d)
        psi = random_unit_state(rng, d, d)
        lifted = lift_operators(phi, psi)
        for field in ("s_tilde", "f_tilde", "delta_tilde", "j"):
            op = getattr(lifted, field)
            assert np.array_equal(op.mat, twisted_oracle(*op.factors)), field

    def test_bell_conjugation_swap(self):
        lifted = lift_operators(bell(2), bell(2))
        rng = seeded_rng(84)
        u = complex_normal(rng, 2)
        v = complex_normal(rng, 2)
        got = lifted.j(np.kron(u, v))
        assert np.linalg.norm(got - np.kron(np.conj(v), np.conj(u))) < 1e-12
        assert np.linalg.norm(lifted.delta_tilde.mat - lifted.j.mat / 2) < 1e-12

    def test_reduction_products(self):
        rng = seeded_rng(85)
        phi = random_unit_state(rng, 3, 3)
        psi = random_unit_state(rng, 3, 3)
        fwd = lift_operators(phi, psi)
        bwd = lift_operators(psi, phi)
        got = twisted_compose(fwd.delta_tilde, bwd.delta_tilde)
        assert np.linalg.norm(got - np.kron(reduced(phi, "a"), reduced(psi, "b"))) < 1e-9
        got_j = twisted_compose(fwd.j, bwd.j)
        want_j = np.kron(
            support_projection(reduced(phi, "a")), support_projection(reduced(psi, "b"))
        )
        assert np.linalg.norm(got_j - want_j) < 1e-9

    def test_adjoints_exchange_arguments_and_cross_the_mixed_lifts(self):
        rng = seeded_rng(86)
        phi = random_unit_state(rng, 2, 2)
        psi = random_unit_state(rng, 2, 2)
        fwd = lift_operators(phi, psi)
        bwd = lift_operators(psi, phi)
        assert np.linalg.norm(fwd.delta_tilde.mat.T - bwd.delta_tilde.mat) < 1e-12
        assert np.linalg.norm(fwd.j.mat.T - bwd.j.mat) < 1e-12
        assert np.linalg.norm(fwd.s_tilde.mat.T - bwd.f_tilde.mat) < 1e-12
        assert np.linalg.norm(fwd.f_tilde.mat.T - bwd.s_tilde.mat) < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_polar_factorizations(self, d):
        rng = seeded_rng(87 + d)
        phi = random_unit_state(rng, d, d)
        psi = random_unit_state(rng, d, d)
        lifted = lift_operators(phi, psi)
        om_a_phi, om_b_phi = reduced(phi, "a"), reduced(phi, "b")
        om_a_psi, om_b_psi = reduced(psi, "a"), reduced(psi, "b")
        q_a_phi = support_projection(om_a_phi)
        q_b_phi = support_projection(om_b_phi)
        q_a_psi = support_projection(om_a_psi)
        q_b_psi = support_projection(om_b_psi)
        j = lifted.j.mat
        checks = [
            (lifted.delta_tilde.mat, psd_sqrt(np.kron(om_a_phi, om_b_psi)) @ j),
            (lifted.delta_tilde.mat, j @ np.conj(psd_sqrt(np.kron(om_a_psi, om_b_phi)))),
            (lifted.s_tilde.mat, np.kron(q_a_phi, psd_sqrt(om_b_psi)) @ j),
            (lifted.s_tilde.mat, j @ np.conj(np.kron(psd_sqrt(om_a_psi), q_b_phi))),
            (lifted.f_tilde.mat, np.kron(psd_sqrt(om_a_phi), q_b_psi) @ j),
            (lifted.f_tilde.mat, j @ np.conj(np.kron(q_a_psi, psd_sqrt(om_b_phi)))),
        ]
        for got, want in checks:
            assert np.linalg.norm(got - want) < 1e-9


class TestGnsCheck:
    def test_bell_true(self):
        assert gns_check(bell(2))

    def test_product_false(self):
        assert not gns_check(basis_state(0, 0, 2, 2))

    def test_rectangular_false(self):
        assert not gns_check(random_unit_state(seeded_rng(90), 2, 3))

    def test_nearly_degenerate_still_true(self):
        psi = BipartiteVector(np.diag([np.sqrt(0.999), np.sqrt(0.001)]))
        assert gns_check(psi)

    def test_cyclicity_of_accepted_states(self):
        rng = seeded_rng(91)
        for d in (2, 3):
            psi = state_from_rng(rng, d, d, entangled=True)
            vectors = []
            for i in range(d):
                for j in range(d):
                    e = np.zeros((d, d), dtype=complex)
                    e[i, j] = 1.0
                    vectors.append((e @ psi.coeff).reshape(-1))
            gram = np.array(vectors) @ np.array(vectors).conj().T
            assert np.linalg.matrix_rank(gram, tol=1e-10) == d * d


class TestTomita:
    def test_bell_delta_identity_and_j_equals_s(self):
        triple = tomita_S(bell(2), bell(2))
        assert_allclose(triple.delta.mat, np.eye(4), atol=1e-12)
        assert np.linalg.norm(triple.j.mat - triple.s.mat) < 1e-12

    def test_bell_maps_matrix_unit(self):
        triple = tomita_S(bell(2), bell(2))
        e01 = np.zeros((2, 2))
        e01[0, 1] = 1.0
        arg = np.kron(e01, np.eye(2)) @ bell(2).to_vector()
        want = np.zeros(4)
        want[2] = 1 / np.sqrt(2)  # index (1, 0) in the a-major basis
        assert_allclose(triple.s(arg), want, atol=1e-12)

    def test_fixed_point_for_equal_states(self):
        rng = seeded_rng(92)
        psi = state_from_rng(rng, 3, 3, entangled=True)
        triple = tomita_S(psi, psi)
        vec = psi.to_vector()
        assert np.linalg.norm(triple.s(vec) - vec) < 1e-10
        assert np.linalg.norm(triple.j(vec) - vec) < 1e-10

    @pytest.mark.parametrize("d", [2, 3])
    def test_defining_relation_on_matrix_units(self, d):
        rng = seeded_rng(93 + d)
        psi = state_from_rng(rng, d, d, entangled=True)
        phi = random_unit_state(rng, d, d)
        triple = tomita_S(phi, psi)
        for i in range(d):
            for j in range(d):
                e = np.zeros((d, d), dtype=complex)
                e[i, j] = 1.0
                lhs = triple.s((e @ psi.coeff).reshape(-1))
                rhs = (e.conj().T @ phi.coeff).reshape(-1)
                assert np.linalg.norm(lhs - rhs) < 1e-9

    def test_delta_formula_and_reconstruction(self):
        rng = seeded_rng(94)
        psi = state_from_rng(rng, 3, 3, entangled=True)
        phi = random_unit_state(rng, 3, 3)
        triple = tomita_S(phi, psi)
        w = np.linalg.eigvalsh(reduced(psi, "b"))
        assert w.min() > 0
        delta_direct = compose_aa(
            AntilinearMap(triple.s.mat.T), triple.s.as_antilinear()
        )
        assert np.linalg.norm(delta_direct - triple.delta.mat) < 1e-9
        assert np.linalg.norm(
            triple.s.mat - triple.j.mat @ np.conj(psd_sqrt(triple.delta.mat))
        ) < 1e-9

    def test_phase_match_rejects_phase_of_another_pair(self):
        rng = seeded_rng(103)
        psi = state_from_rng(rng, 3, 3, entangled=True)
        phi = random_unit_state(rng, 3, 3)
        other = lift_operators(random_unit_state(rng, 3, 3), random_unit_state(rng, 3, 3)).j
        triple = tomita_S(phi, psi)
        foreign = ModularTriple(s=triple.s, delta=triple.delta, j=other)
        assert modular_phase_match(triple) < TOLERANCES["modular.phase_match"]
        assert modular_phase_match(foreign) > TOLERANCES["modular.phase_match"]

    def test_phase_match_reads_s_and_reconstruction_reads_j(self):
        rng = seeded_rng(104)
        psi = state_from_rng(rng, 3, 3, entangled=True)
        phi = random_unit_state(rng, 3, 3)
        good = tomita_S(phi, psi)
        wrong_j = lift_operators(random_unit_state(rng, 3, 3), random_unit_state(rng, 3, 3)).j
        bad = ModularTriple(s=good.s, delta=good.delta, j=wrong_j)
        assert modular_phase_match(good) < TOLERANCES["modular.phase_match"]
        assert modular_phase_match(bad) > TOLERANCES["modular.phase_match"]
        tol = TOLERANCES["modular.reconstruction"]
        assert modular_reconstruction(good, phi, psi) < tol
        assert modular_reconstruction(bad, phi, psi) > tol

    def test_graded_pair_k4_passes_reconstruction_and_intertwine(self):
        # Both spectra logspace(0, -4, 4): ||Delta|| ~ 1e8 and Delta is skew by
        # 2.3e-9, so a square root of Delta failed its Hermiticity check
        # ("Delta deviates from Hermiticity") and `eprkit modular` exited 2.
        # The square roots now come from the SVDs of the coefficient matrices,
        # and so does Delta's inverse factor: from an eigendecomposition of
        # omega_b(psi) it missed S* S by 5.2e-9 relative.
        rng = np.random.default_rng(3)
        phi, psi = graded_state(rng, 4, 4), graded_state(rng, 4, 4)
        triple = tomita_S(phi, psi)
        assert modular_reconstruction(triple, phi, psi) <= TOLERANCES["modular.reconstruction"]
        assert modular_intertwine(triple, phi, psi) <= 1e-2 * TOLERANCES["modular.intertwine"]
        assert modular_defining(triple, phi, psi) <= TOLERANCES["modular.defining"]
        assert modular_phase_match(triple) <= TOLERANCES["modular.phase_match"]
        assert modular_delta(triple) <= TOLERANCES["modular.delta"]

    def test_verify_seed_19_trial_80(self):
        # d = 4, smallest Schmidt coefficient of psi 2.4e-3: reconstruction
        # through psd_sqrt(Delta) gave 2.38e-9 > 1e-9 and `verify --seed 19` exited 3.
        table = ResidualTable()
        modular_suite(table, 19, [2, 3, 4], [80])
        results = {r.name: r for r in table.results()}
        assert results["modular.reconstruction"].worst == (120, 80, (4,))
        assert results["modular.reconstruction"].residual < 1e-11
        assert all(r.passed for r in results.values())

    def test_j_coincides_with_twisted_phase_lift(self):
        rng = seeded_rng(95)
        psi = state_from_rng(rng, 2, 2, entangled=True)
        phi = random_unit_state(rng, 2, 2)
        triple = tomita_S(phi, psi)
        lifted = lift_operators(psi, phi)
        assert np.linalg.norm(triple.j.mat - lifted.j.mat) < 1e-9

    def test_intertwining_identity(self):
        rng = seeded_rng(96)
        psi = state_from_rng(rng, 3, 3, entangled=True)
        phi = random_unit_state(rng, 3, 3)
        triple = tomita_S(phi, psi)
        j = lift_operators(psi, phi).j.mat
        lhs = triple.s.mat @ np.conj(np.kron(np.eye(3), psd_sqrt(reduced(psi, "b"))))
        rhs = j @ np.conj(np.kron(psd_sqrt(reduced(phi, "a")), np.eye(3)))
        assert np.linalg.norm(lhs - rhs) < 1e-9

    def test_j_antiunitary_for_full_rank_pair(self):
        rng = seeded_rng(97)
        psi = state_from_rng(rng, 3, 3, entangled=True)
        phi = state_from_rng(rng, 3, 3, entangled=True)
        triple = tomita_S(phi, psi)
        assert np.linalg.norm(compose_aa(AntilinearMap(triple.j.mat.T), triple.j.as_antilinear()) - np.eye(9)) < 1e-9

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_factor_level_s_and_j_match_dense_oracle(self, d):
        rng = seeded_rng(100, d)
        psi = state_from_rng(rng, d, d, entangled=True)
        phi = random_unit_state(rng, d, d)
        triple = tomita_S(phi, psi)
        s_dense, j_dense = dense_modular_oracle(phi, psi)
        assert np.linalg.norm(triple.s.mat - s_dense) <= 1e-12 * np.linalg.norm(s_dense)
        assert np.linalg.norm(triple.j.mat - j_dense) <= 1e-12 * np.linalg.norm(j_dense)

    def test_defining_relation_at_d24(self):
        rng = seeded_rng(101)
        psi = state_from_rng(rng, 24, 24, entangled=True)
        phi = random_unit_state(rng, 24, 24)
        assert modular_defining(tomita_S(phi, psi), phi, psi) < 1e-9

    def test_j_antiunitary_on_graded_spectra(self):
        # Singular values of S are ratios of Schmidt coefficients and span 1e12
        # here; a d²×d² SVD drops one of them and returned a J of rank 15.
        rng = seeded_rng(102)
        phi = graded_state(rng, 4, 6)
        psi = graded_state(rng, 4, 6)
        triple = tomita_S(phi, psi)
        assert np.linalg.norm(compose_aa(AntilinearMap(triple.j.mat.T), triple.j.as_antilinear()) - np.eye(16)) < 1e-9
        assert modular_defining(triple, phi, psi) < 1e-9

    def test_rank_deficient_psi_rejected(self):
        with pytest.raises(errors.NotSeparating):
            tomita_S(bell(2), basis_state(0, 0, 2, 2))

    def test_rectangular_rejected(self):
        rng = seeded_rng(98)
        psi = random_unit_state(rng, 2, 3)
        with pytest.raises(errors.NotSeparating):
            tomita_S(psi, psi)

    def test_dim_mismatch(self):
        rng = seeded_rng(99)
        with pytest.raises(errors.DimMismatch):
            tomita_S(random_unit_state(rng, 3, 3), bell(2))


MODULAR_IDENTITIES = ("defining", "delta", "reconstruction", "phase_match", "intertwine")


def modular_residuals(triple, phi, psi, oracle: bool = False) -> dict:
    """Every modular identity's residual, by its factor route or by its dense oracle."""
    out = {}
    for name in MODULAR_IDENTITIES:
        fn = getattr(verify, f"modular_{name}_oracle" if oracle else f"modular_{name}")
        out[name] = float(fn(triple) if name in ("delta", "phase_match") else fn(triple, phi, psi))
    return out


def modular_pair(family: str, d: int):
    rng = seeded_rng(105, d, len(family))
    if family == "gaussian":
        return random_unit_state(rng, d, d), state_from_rng(rng, d, d, entangled=True)
    k = int(family.removeprefix("graded-k"))
    return graded_state(rng, d, k), graded_state(rng, d, k)


class TestFactorRoutes:
    """The CLI's factor-level modular checks against the dense d²×d² oracles that verify keeps."""

    @pytest.mark.parametrize("family", ["gaussian", "graded-k2", "graded-k4"])
    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_equal_to_dense_oracles(self, family, d):
        # On the built triple both routes give rounding-level residuals, which
        # cannot agree to a relative bound; S, Delta and J with every factor
        # perturbed by 1e-2 give residuals well above rounding, the same
        # quantity by both routes.
        phi, psi = modular_pair(family, d)
        triple = tomita_S(phi, psi)
        rng = seeded_rng(106, d, len(family))

        def nudge(m):
            return m + 1e-2 * np.linalg.norm(m) / d * complex_normal(rng, *m.shape)

        (eta, xi), (eta_j, xi_j), (a, b) = triple.s.factors, triple.j.factors, triple.delta.factors
        perturbed = ModularTriple(
            s=twisted_product(AntilinearMap(nudge(eta)), AntilinearMap(xi)),
            delta=KroneckerProduct((nudge(a), b)),
            j=twisted_product(AntilinearMap(eta_j), AntilinearMap(nudge(xi_j))),
        )
        factor = modular_residuals(perturbed, phi, psi)
        dense = modular_residuals(perturbed, phi, psi, oracle=True)
        for name in MODULAR_IDENTITIES:
            assert dense[name] > 1e3 * TOLERANCES[f"modular.{name}"], name
            assert abs(factor[name] - dense[name]) <= 1e-10 * dense[name], name

    @pytest.mark.parametrize("c", [3.0, 1e-3, 2.0 - 1.0j])
    def test_rescaled_factors_pass(self, c):
        # (c eta) ⊗̃ (xi / c) is the same operator; no identity may see the scale.
        phi, psi = modular_pair("gaussian", 4)
        triple = tomita_S(phi, psi)
        eta, xi = triple.s.factors
        rescaled = replace(triple, s=twisted_product(AntilinearMap(c * eta), AntilinearMap(xi / c)))
        assert np.linalg.norm(rescaled.s.mat - triple.s.mat) <= 1e-14 * np.linalg.norm(triple.s.mat)
        for name, value in modular_residuals(rescaled, phi, psi).items():
            assert value <= TOLERANCES[f"modular.{name}"], name

    def test_perturbed_eta_fails_defining(self):
        phi, psi = modular_pair("gaussian", 4)
        triple = tomita_S(phi, psi)
        eta, xi = triple.s.factors
        bumped = replace(triple, s=twisted_product(AntilinearMap(eta * (1 + 1e-6)), AntilinearMap(xi)))
        assert modular_defining(triple, phi, psi) <= TOLERANCES["modular.defining"]
        assert modular_defining(bumped, phi, psi) > TOLERANCES["modular.defining"]

    @pytest.mark.parametrize("seed, dense", [(5, 1.0), (3, 2.19e-6)])
    def test_phase_match_graded_k6_at_d8(self, seed, dense):
        # Schmidt spectra logspace(0, -6, 8): the singular values of S spread
        # over 1e12, so the dense SVD's rank rule drops one (seed 5, residual
        # 1.0 as in `eprkit modular`) or keeps a phase accurate to only ~1e-6.
        # The rank rule now applies to each factor, whose singular values
        # spread over 1e6.
        rng = np.random.default_rng(seed)
        phi, psi = graded_state(rng, 8, 6), graded_state(rng, 8, 6)
        triple = tomita_S(phi, psi)
        assert modular_phase_match_oracle(triple) == pytest.approx(dense, rel=1e-2)
        assert modular_phase_match(triple) <= 1e-9

    def test_dense_matrices_refused_above_the_limit(self):
        rng = seeded_rng(107)
        d = 65  # d² = 4225 > DENSE_DIM_LIMIT = 4096
        phi, psi = random_unit_state(rng, d, d), state_from_rng(rng, d, d, entangled=True)
        triple = tomita_S(phi, psi)
        for op in (triple.s, triple.j, triple.delta, lift_operators(psi, phi).j):
            with pytest.raises(errors.DimTooLarge):
                op.mat
        assert modular_defining(triple, phi, psi) <= TOLERANCES["modular.defining"]


def assert_read_only(a):
    with pytest.raises(ValueError):
        a[(0,) * a.ndim] = 1.0


class TestCopies:
    """Each d²×d² matrix is written once; no value type aliases a writable caller array."""

    def test_twisted_products_are_read_only_and_own_their_factors(self):
        rng = seeded_rng(100)
        eta, xi = complex_normal(rng, 2, 3), complex_normal(rng, 3, 2)
        anti_eta, anti_xi = AntilinearMap(eta), AntilinearMap(xi)
        for prod in (twisted_product(eta, xi), twisted_product(anti_eta, anti_xi)):
            for a in (prod.mat, *prod.factors):
                assert_read_only(a)
                assert not np.shares_memory(a, eta) and not np.shares_memory(a, xi)
        assert not np.shares_memory(anti_eta.mat, eta)

    def test_as_antilinear_shares_the_built_matrix(self):
        rng = seeded_rng(101)
        prod = twisted_product(random_anti(rng, 3, 3), random_anti(rng, 3, 3))
        assert np.shares_memory(prod.as_antilinear().mat, prod.mat)

    def test_lifts_and_modular_triple_are_read_only(self):
        rng = seeded_rng(102)
        phi_c, psi_c = complex_normal(rng, 3, 3), complex_normal(rng, 3, 3)
        phi = BipartiteVector(phi_c / np.linalg.norm(phi_c))
        psi = BipartiteVector(psi_c / np.linalg.norm(psi_c))
        lifts = lift_operators(phi, psi)
        triple = tomita_S(phi, psi)
        arrays = [triple.s.mat, triple.j.mat, triple.delta.mat]
        for op in (triple.s, triple.j, triple.delta):
            arrays += op.factors
        for op in (lifts.s_tilde, lifts.f_tilde, lifts.delta_tilde, lifts.j):
            arrays += [op.mat, *op.factors]
        for a in arrays:
            assert_read_only(a)
            assert not np.shares_memory(a, phi_c) and not np.shares_memory(a, psi_c)

    def test_delta_from_a_writable_array_is_copied(self):
        factor = np.eye(2, dtype=complex)
        conj = twisted_product(AntilinearMap(np.eye(2)), AntilinearMap(np.eye(2)))
        triple = ModularTriple(s=conj, delta=KroneckerProduct((factor, factor)), j=conj)
        for a in (triple.delta.mat, *triple.delta.factors):
            assert_read_only(a)
            assert not np.shares_memory(a, factor)
