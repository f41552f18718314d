"""Tests for teleportation channels, their oracles, bounds, and chains."""

import dataclasses
import itertools
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eprkit import errors
from eprkit.bipartite import BipartiteVector, reduced
from eprkit.sampling import haar
from eprkit.teleport import (
    _factor_out,
    chain_oracle,
    chain_teleport,
    luders_apply,
    luders_bounds,
    luders_channel,
    luders_project,
    projection_decomposition,
    success_bound,
    teleport_map,
    teleport_oracle,
    trace_norm_fidelity,
)
from eprkit.verify import TOLERANCES

from util import basis_state, bell, complex_normal, random_psd, random_unit_state, random_unitary, seeded_rng

SKEW = np.diag([np.sqrt(0.8), np.sqrt(0.2)])


def graded(rng, da, db, k=6):
    """Unit state with Schmidt coefficients logspace(0, -k, min(dims)), normalized, placed by Haar isometries."""
    m = min(da, db)
    s = np.logspace(0, -k, m)
    s /= np.linalg.norm(s)
    return BipartiteVector((random_unitary(rng, da)[:, :m] * s) @ random_unitary(rng, db)[:, :m].conj().T)


class TestTeleportMap:
    def test_bell_bell(self):
        tm = teleport_map(bell(2), bell(2))
        assert np.abs(tm.t - np.eye(2) / 2).max() < 1e-15

    def test_skewed_ancilla(self):
        tm = teleport_map(bell(2), BipartiteVector(SKEW))
        assert_allclose(tm.t, np.diag([np.sqrt(0.4), np.sqrt(0.1)]), atol=1e-15)

    def test_product_measured_vector_gives_rank_one(self):
        rng = seeded_rng(60)
        u = complex_normal(rng, 2)
        w = complex_normal(rng, 3)
        psi = BipartiteVector(np.outer(u, w) / (np.linalg.norm(u) * np.linalg.norm(w)))
        tm = teleport_map(psi, random_unit_state(rng, 3, 2))
        assert np.linalg.svd(tm.t, compute_uv=False)[1] < 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(errors.DimMismatch):
            teleport_map(bell(2), random_unit_state(seeded_rng(61), 3, 2))


def dense_projector_oracle(phi_a, stages) -> np.ndarray:
    """The chain oracle written with one D×D projector kron(|w_1><w_1|, ..., 1_last) and np.kron."""
    measured, ancillae = stages[0::2], stages[1::2]
    ws = [m.to_vector() for m in measured]
    full = reduce(np.kron, (p.to_vector() for p in ancillae), np.asarray(phi_a, dtype=complex))
    proj = np.kron(reduce(np.kron, (np.outer(w, np.conj(w)) for w in ws)), np.eye(stages[-1].dim_b))
    w_all = reduce(np.kron, ws)
    return np.conj(w_all) @ (proj @ full).reshape(w_all.shape[0], stages[-1].dim_b)


class TestTeleportOracle:
    def test_bell_bell_basis_input(self):
        out = teleport_oracle(bell(2), bell(2), [1.0, 0.0])
        assert_allclose(out, [0.5, 0.0], atol=1e-12)

    def test_kernel_input_gives_zero(self):
        psi = basis_state(0, 0, 2, 2)  # induced map annihilates e_1
        out = teleport_oracle(psi, bell(2), [0.0, 1.0])
        assert np.linalg.norm(out) < 1e-12

    def test_agrees_with_factorized_map(self):
        rng = seeded_rng(62)
        for trial in range(100):
            da, db, dc = (int(rng.integers(2, 5)) for _ in range(3))
            psi = random_unit_state(rng, da, db)
            phi = random_unit_state(rng, db, dc)
            v = complex_normal(rng, da)
            v /= np.linalg.norm(v)
            assert np.linalg.norm(
                teleport_map(psi, phi).t @ v - teleport_oracle(psi, phi, v)
            ) < 1e-10

    def test_requires_unit_measured_vector(self):
        with pytest.raises(errors.NotUnit):
            teleport_oracle(BipartiteVector(np.eye(2)), bell(2), [1.0, 0.0])

    def test_agrees_with_tripartite_projection(self):
        rng = seeded_rng(78)
        for _ in range(50):
            da, db, dc = (int(rng.integers(2, 5)) for _ in range(3))
            psi = random_unit_state(rng, da, db)
            phi = random_unit_state(rng, db, dc)
            v = complex_normal(rng, da)
            want = dense_projector_oracle(v, [psi, phi])
            assert np.abs(teleport_oracle(psi, phi, v) - want).max() <= 1e-14

    def test_memory_stays_linear_in_the_dimension(self):
        # D = 16·16·16 = DENSE_DIM_LIMIT: the D×D projector alone would take 268 MB.
        rng = seeded_rng(80)
        psi = random_unit_state(rng, 16, 16)
        phi = random_unit_state(rng, 16, 16)
        v = complex_normal(rng, 16)
        tracemalloc.start()
        try:
            out = teleport_oracle(psi, phi, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6
        assert np.linalg.norm(teleport_map(psi, phi).t @ v - out) <= TOLERANCES["teleport.factorization"]


class TestLudersProjectMemory:
    def test_rank_one_channel_at_12x12x12_stays_small(self):
        # The dense kron(P, 1_c) projector alone would take 48 MB here.
        rng = seeded_rng(76)
        ch = luders_channel([random_unit_state(rng, 12, 12)], random_unit_state(rng, 12, 12))
        v = complex_normal(rng, 12)
        tracemalloc.start()
        try:
            dense = luders_project(ch, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6
        factored = np.kron(ch.psis.to_vector()[..., 0, :], ch.maps[..., 0, :, :] @ v)
        assert np.linalg.norm(dense - factored) <= TOLERANCES["luders.decoupling"]

    def test_beyond_the_dense_limit_is_refused(self):
        rng = seeded_rng(77)
        ch = luders_channel([random_unit_state(rng, 16, 16)], random_unit_state(rng, 16, 17))
        with pytest.raises(errors.DimTooLarge):
            luders_project(ch, complex_normal(rng, 16))

    def test_wrong_probe_length_is_refused(self):
        ch = luders_channel([bell(2)], bell(2))
        with pytest.raises(errors.DimMismatch):
            luders_project(ch, np.ones(3))


class TestSuccessBound:
    def test_bell_bell_quarter(self):
        tm = teleport_map(bell(2), bell(2))
        bound = success_bound(tm)
        assert bound == pytest.approx(0.25, abs=1e-12)
        assert np.linalg.norm(tm.t @ np.array([1.0, 0.0])) ** 2 == pytest.approx(bound, abs=1e-12)

    def test_skewed_ancilla(self):
        tm = teleport_map(bell(2), BipartiteVector(SKEW))
        assert success_bound(tm) == pytest.approx(0.4, abs=1e-12)

    def test_product_measured_vector(self):
        rng = seeded_rng(63)
        u = complex_normal(rng, 2)
        u /= np.linalg.norm(u)
        w = complex_normal(rng, 3)
        w /= np.linalg.norm(w)
        psi = BipartiteVector(np.outer(u, w))
        phi = random_unit_state(rng, 3, 2)
        omega = reduced(phi, "a")
        assert success_bound(teleport_map(psi, phi)) == pytest.approx(
            np.vdot(w, omega @ w).real, abs=1e-10
        )

    def test_bound_holds_and_is_attained(self):
        rng = seeded_rng(64)
        for _ in range(20):
            psi = random_unit_state(rng, 3, 2)
            phi = random_unit_state(rng, 2, 3)
            tm = teleport_map(psi, phi)
            bound = success_bound(tm)
            for _ in range(50):
                v = complex_normal(rng, 3)
                v /= np.linalg.norm(v)
                assert np.linalg.norm(tm.t @ v) ** 2 <= bound + 1e-12
            top = np.linalg.svd(tm.t, compute_uv=False).max()
            assert abs(top**2 - bound) < 1e-9

    def test_requires_unit_vectors(self):
        tm = teleport_map(BipartiteVector(np.eye(2)), bell(2))
        with pytest.raises(errors.NotUnit):
            success_bound(tm)

    @pytest.mark.parametrize("dims", [(2, 6, 4), (6, 6, 6)])
    def test_graded_spectra_attained_to_rounding(self, dims):
        # Schmidt spectra logspace(0, -6, .): with sqrt(omega) taken by eigh and the
        # top eigenvalue of sqrt(omega) rho sqrt(omega) by eigh, the bound missed
        # sigma_max(t)^2 by up to 5.5e-13 on these pairs; from the SVD roots, by 1e-15.
        for i in range(6):
            rng = seeded_rng(82, i)
            tm = teleport_map(graded(rng, dims[0], dims[1]), graded(rng, dims[1], dims[2]))
            top = np.linalg.svd(tm.t, compute_uv=False).max()
            assert abs(top**2 - success_bound(tm)) <= 1e-14


class TestTraceNormFidelity:
    def test_bell_bell(self):
        tn, f = trace_norm_fidelity(teleport_map(bell(2), bell(2)))
        assert tn == pytest.approx(1.0, abs=1e-12)
        assert f == pytest.approx(1.0, abs=1e-12)

    def test_closed_form(self):
        tn, f = trace_norm_fidelity(teleport_map(bell(2), BipartiteVector(SKEW)))
        want = np.sqrt(0.4) + np.sqrt(0.1)
        assert tn == pytest.approx(want, abs=1e-12)
        assert f == pytest.approx(want, abs=1e-12)

    def test_orthogonal_supports(self):
        psi = basis_state(0, 0, 2, 2)
        phi = basis_state(1, 0, 2, 2)
        tn, f = trace_norm_fidelity(teleport_map(psi, phi))
        assert tn == pytest.approx(0.0, abs=1e-12)
        assert f == pytest.approx(0.0, abs=1e-7)

    def test_equality_random(self):
        rng = seeded_rng(65)
        for _ in range(100):
            psi = random_unit_state(rng, 2, 3)
            phi = random_unit_state(rng, 3, 4)
            tn, f = trace_norm_fidelity(teleport_map(psi, phi))
            assert abs(tn - f) < 1e-9

    def test_graded_spectra(self):
        # With the square roots taken by eigh, which floors eigenvalues below
        # 1e-12 times the largest, this k = 6 pair had |tn - f| = 8.0e-9.
        rng = seeded_rng(81, 1)
        psi = graded(rng, 2, 6)
        phi = graded(rng, 6, 4)
        tn, f = trace_norm_fidelity(teleport_map(psi, phi))
        assert tn == pytest.approx(0.2696086951147123, abs=1e-14)
        assert abs(tn - f) <= 1e-14


def bell_basis() -> list[BipartiteVector]:
    mats = [
        np.eye(2),
        np.diag([1.0, -1.0]),
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([[0.0, 1.0], [-1.0, 0.0]]),
    ]
    return [BipartiteVector(m / np.sqrt(2)) for m in mats]


def test_t_and_maps_are_read_only_and_built_once():
    for value, name in ((teleport_map(bell(2), bell(2)), "t"), (luders_channel(bell_basis(), bell(2)), "maps")):
        first = getattr(value, name)
        assert getattr(value, name) is first and not first.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            first[...] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, np.zeros_like(first))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)
        assert getattr(value, name) is first


class TestLudersChannel:
    def test_rank_one_reduces_to_teleport_map(self):
        rng = seeded_rng(66)
        psi = random_unit_state(rng, 2, 2)
        phi = random_unit_state(rng, 2, 3)
        ch = luders_channel([psi], phi)
        assert ch.rank == 1
        assert np.array_equal(ch.maps[0], teleport_map(psi, phi).t)

    def test_full_basis_has_all_maps(self):
        ch = luders_channel(bell_basis(), bell(2))
        assert ch.rank == 4

    def test_two_bell_vectors_give_unitary_halves(self):
        ch = luders_channel(bell_basis()[:2], bell(2))
        for t in ch.maps:
            assert_allclose(t.conj().T @ t, np.eye(2) / 4, atol=1e-12)

    def test_not_orthonormal(self):
        with pytest.raises(errors.NotOrthonormal):
            luders_channel([bell(2), bell(2)], bell(2))

    def test_decoupling_against_dense_projection(self):
        rng = seeded_rng(67)
        u = random_unitary(rng, 4)
        psis = [BipartiteVector.from_vector(u[:, k], 2, 2) for k in range(3)]
        phi = random_unit_state(rng, 2, 2)
        ch = luders_channel(psis, phi)
        for _ in range(10):
            v = complex_normal(rng, 2)
            dense = luders_project(ch, v)
            factored = sum(
                np.kron(ch.psis.to_vector()[..., k, :], ch.maps[..., k, :, :] @ v) for k in range(ch.rank)
            )
            assert np.linalg.norm(dense - factored) < 1e-10

    def test_decomposition_independence(self):
        rng = seeded_rng(68)
        u = random_unitary(rng, 4)
        psis = [BipartiteVector.from_vector(u[:, k], 2, 2) for k in range(2)]
        mix = random_unitary(rng, 2)
        flat = np.stack([p.to_vector() for p in psis])
        psis2 = [BipartiteVector.from_vector(v, 2, 2) for v in mix.T @ flat]
        phi = random_unit_state(rng, 2, 2)
        ch1 = luders_channel(psis, phi)
        ch2 = luders_channel(psis2, phi)
        nu = random_psd(rng, 2)
        assert np.linalg.norm(luders_apply(ch1, nu) - luders_apply(ch2, nu)) < 1e-9

    def test_projection_decomposition_roundtrip(self):
        rng = seeded_rng(69)
        u = random_unitary(rng, 6)
        p = u[:, :3] @ u[:, :3].conj().T
        psis = projection_decomposition(p, 2, 3)
        assert psis.coeff.shape == (3, 2, 3)
        flat = psis.to_vector()
        rebuilt = flat.T @ np.conj(flat)
        assert np.linalg.norm(rebuilt - p) < 1e-10
        assert luders_channel(psis, random_unit_state(rng, 3, 2)).rank == 3


class TestLudersRankAxis:
    """Stacks shaped like verify's, (n, rank, d_a, d_b): one channel per trial, its vectors on axis -3."""

    @pytest.mark.parametrize("da, db, dc", list(itertools.product([1, 2, 3], repeat=3)))
    def test_maps_have_the_teleport_map_bits_and_list_equals_stack(self, da, db, dc):
        rng = seeded_rng(108, da, db, dc)
        n = 5
        phi = BipartiteVector(complex_normal(rng, n, db, dc))
        for rank in range(1, da * db + 1):
            coeffs = haar(complex_normal(rng, n, da * db, da * db))[..., :rank].mT.reshape(n, rank, da, db)
            stacked = luders_channel(BipartiteVector(coeffs), phi)
            listed = luders_channel([BipartiteVector(coeffs[:, k]) for k in range(rank)], phi)
            assert stacked.rank == listed.rank == rank
            assert stacked.maps.shape == (n, rank, dc, da)
            assert np.array_equal(stacked.psis.coeff, listed.psis.coeff)
            assert np.array_equal(stacked.maps, listed.maps)
            for k in range(rank):
                assert np.array_equal(stacked.maps[..., k, :, :], teleport_map(BipartiteVector(coeffs[:, k]), phi).t)


class TestLudersApply:
    def test_rank_one_channel_on_projector(self):
        rng = seeded_rng(70)
        psi = random_unit_state(rng, 2, 2)
        phi = random_unit_state(rng, 2, 2)
        ch = luders_channel([psi], phi)
        v = complex_normal(rng, 2)
        got = luders_apply(ch, np.outer(v, np.conj(v)))
        tv = ch.maps[0] @ v
        assert_allclose(got, np.outer(tv, np.conj(tv)), atol=1e-12)

    def test_zero_input(self):
        ch = luders_channel([bell(2)], bell(2))
        assert np.all(luders_apply(ch, np.zeros((2, 2))) == 0)

    def test_positivity_and_trace_bound(self):
        rng = seeded_rng(71)
        ch = luders_channel(bell_basis()[:3], random_unit_state(rng, 2, 3))
        for _ in range(10):
            nu = random_psd(rng, 2)
            out = luders_apply(ch, nu)
            assert np.abs(out - out.conj().T).max() < 1e-12
            assert np.linalg.eigvalsh(out).min() > -1e-12
            assert np.trace(out).real <= ch.ancilla_norm_sq * np.trace(nu).real + 1e-9


class TestLudersBounds:
    def test_bell_basis_with_bell_ancilla_saturates(self):
        ch = luders_channel(bell_basis(), bell(2))
        op_bound, trace_bound = luders_bounds(ch)
        assert op_bound == pytest.approx(1.0, abs=1e-12)
        assert trace_bound == pytest.approx(1.0, abs=1e-12)
        assert ch.ancilla_norm_sq == pytest.approx(1.0, abs=1e-12)

    def test_single_map_below_one(self):
        rng = seeded_rng(72)
        ch = luders_channel([random_unit_state(rng, 2, 2)], random_unit_state(rng, 2, 2))
        op_bound, trace_bound = luders_bounds(ch)
        assert op_bound <= 1.0 + 1e-12
        assert trace_bound == pytest.approx(op_bound, abs=1e-12)

    def test_zero_ancilla(self):
        ch = luders_channel([bell(2)], BipartiteVector(np.zeros((2, 2))))
        assert luders_bounds(ch) == (0.0, 0.0)

    def test_bounded_by_ancilla_norm(self):
        rng = seeded_rng(73)
        for _ in range(20):
            u = random_unitary(rng, 4)
            k = 1 + int(rng.integers(4))
            psis = [BipartiteVector.from_vector(u[:, i], 2, 2) for i in range(k)]
            scale = float(rng.random() + 0.5)
            phi = BipartiteVector(scale * random_unit_state(rng, 2, 2).coeff)
            ch = luders_channel(psis, phi)
            op_bound, _ = luders_bounds(ch)
            assert op_bound <= ch.ancilla_norm_sq + 1e-9

    def test_completeness_case(self):
        rng = seeded_rng(74)
        phi = random_unit_state(rng, 2, 2)
        ch = luders_channel(bell_basis(), phi)
        nu = random_psd(rng, 2)
        out = np.trace(luders_apply(ch, nu)).real
        assert out == pytest.approx(ch.ancilla_norm_sq * np.trace(nu).real, abs=1e-9)


def random_chain(rng, hops: int, max_dense: int = 1024):
    """Unit stages of an N-hop chain with subsystem dims from {2, 3}, and a unit input.

    The dense dimension is kept at most max_dense, below DENSE_DIM_LIMIT,
    so the projector of dense_projector_oracle stays within 16 MB.
    """
    while True:
        dims = [int(x) for x in rng.choice([2, 3], size=2 * hops + 1)]
        if np.prod(dims) <= max_dense:
            break
    stages = [random_unit_state(rng, a, b) for a, b in zip(dims, dims[1:])]
    v = complex_normal(rng, dims[0])
    return stages, v / np.linalg.norm(v)


class TestChain:
    def test_all_bell_is_quarter_identity(self):
        t = chain_teleport([bell(2)] * 4)
        assert np.abs(t - np.eye(2) / 4).max() < 1e-15

    def test_product_stage_gives_rank_one(self):
        rng = seeded_rng(75)
        stages = [random_unit_state(rng, 2, 2) for _ in range(4)]
        stages[2] = basis_state(0, 1, 2, 2)
        t = chain_teleport(stages)
        assert np.linalg.svd(t, compute_uv=False)[1] < 1e-12

    def test_oracle_all_bell(self):
        out = chain_oracle([0.0, 1.0], [bell(2)] * 4)
        assert_allclose(out, [0.0, 0.25], atol=1e-12)

    def test_oracle_kernel_input(self):
        out = chain_oracle([0.0, 1.0], [basis_state(0, 0, 2, 2), bell(2), bell(2), bell(2)])
        assert np.linalg.norm(out) < 1e-12

    def test_agreement_with_oracle(self):
        rng = seeded_rng(76)
        for _ in range(50):
            stages = [random_unit_state(rng, 2, 2) for _ in range(4)]
            t = chain_teleport(stages)
            v = complex_normal(rng, 2)
            v /= np.linalg.norm(v)
            out = chain_oracle(v, stages)
            assert np.linalg.norm(t @ v - out) < 1e-10

    @pytest.mark.parametrize("hops", [1, 2, 3, 4])
    def test_oracle_agrees_with_dense_projector(self, hops):
        rng = seeded_rng(82, hops)
        for _ in range(10):
            stages, v = random_chain(rng, hops)
            assert np.abs(chain_oracle(v, stages) - dense_projector_oracle(v, stages)).max() <= 1e-14

    @pytest.mark.parametrize("hops", [1, 2, 3, 4])
    def test_hops_agree_with_oracle(self, hops):
        assert np.abs(chain_teleport([bell(2)] * (2 * hops)) - np.eye(2) / 2**hops).max() < 1e-15
        rng = seeded_rng(77, hops)
        for _ in range(10):
            stages, v = random_chain(rng, hops)
            t = chain_teleport(stages)
            assert t.shape == (stages[-1].dim_b, stages[0].dim_a)
            assert np.linalg.norm(t @ v - chain_oracle(v, stages)) <= TOLERANCES["chain.factorization"]

    @pytest.mark.parametrize("stacked", [[0], [1], [0, 3], [0, 1, 2, 3]])
    def test_oracle_broadcasts_stacked_stages(self, stacked):
        # Some stages stacked (three members), the rest and the probe single.
        rng = seeded_rng(83, len(stacked))
        dims = [2, 3, 2, 3, 2]
        members = [[random_unit_state(rng, x, y) for x, y in zip(dims, dims[1:])] for _ in range(3)]
        stages = [
            BipartiteVector(np.stack([m[k].coeff for m in members])) if k in stacked else members[0][k]
            for k in range(4)
        ]
        v = complex_normal(rng, 2)
        v /= np.linalg.norm(v)
        out = chain_oracle(v, stages)
        assert out.shape == (3, 2)
        for i, chain in enumerate(members):
            single = [chain[k] if k in stacked else members[0][k] for k in range(4)]
            assert np.abs(out[i] - chain_oracle(v, single)).max() <= 1e-15
        assert np.abs(out - chain_oracle(np.stack([v] * 3), stages)).max() <= 1e-15

    def test_one_hop_is_teleport_map(self):
        rng = seeded_rng(79)
        for _ in range(20):
            (psi, phi), _ = random_chain(rng, 1)
            assert np.array_equal(chain_teleport([psi, phi]), teleport_map(psi, phi).t)

    def test_odd_count_rejected(self):
        for count in (1, 3, 5):
            with pytest.raises(errors.OddParity):
                chain_teleport([bell(2)] * count)
            with pytest.raises(errors.OddParity):
                chain_oracle([1.0, 0.0], [bell(2)] * count)

    def test_oracle_needs_a_hop(self):
        with pytest.raises(errors.DimMismatch):
            chain_oracle([1.0], [])

    def test_oracle_takes_a_scalar_input_on_a_one_dimensional_first_factor(self):
        rng = seeded_rng(84)
        stages = [random_unit_state(rng, 1, 2), random_unit_state(rng, 2, 3)]
        out = chain_oracle(1.0, stages)
        assert out.shape == (3,)
        assert np.linalg.norm(out - chain_teleport(stages)[:, 0]) <= TOLERANCES["chain.factorization"]

    def test_factor_out_rejects_an_entangled_result(self):
        # (e_0 ⊗ e_0 + e_1 ⊗ e_1)/√2 is not e_0 ⊗ x for any x: the rank-one residual is 1/√2.
        with pytest.raises(errors.FactorizationFailure, match="oracle"):
            _factor_out(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2), np.array([1.0, 0.0]), 2, "oracle")

    def test_factor_out_residual_is_relative_to_the_result(self):
        # At norm 1e100 a product's rounding alone is ~1e84 absolute, yet it factors; an entangled result does not.
        rng = seeded_rng(85)
        measured, x = random_unitary(rng, 4)[:, 0], 1e100 * complex_normal(rng, 3)
        got = _factor_out(np.kron(measured, x), measured, 3, "oracle")
        assert np.linalg.norm(got - x) <= 1e-14 * np.linalg.norm(x)
        entangled = 1e100 * np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        with pytest.raises(errors.FactorizationFailure, match="oracle"):
            _factor_out(entangled, np.array([1.0, 0.0]), 2, "oracle")

    def test_oracle_guards_dimension(self):
        big = BipartiteVector(np.ones((8, 8)) / 8)
        with pytest.raises(errors.DimTooLarge):
            chain_oracle(np.ones(8) / np.sqrt(8), [big] * 4)
