"""Tests for the dense linear algebra substrate."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eprkit import errors
from eprkit.linalg import (
    HERMITIAN_TOL,
    fidelity,
    fro_norm,
    frozen,
    norms,
    partial_trace,
    psd_sqrt,
    seal,
    support_projection,
    svd,
)


from util import bell, random_unitary, seeded_rng


class TestSvd:
    def test_identity(self):
        r = svd(np.eye(2))
        assert_allclose(r.sigma, [1.0, 1.0])
        assert r.rank == 2

    def test_zero(self):
        r = svd(np.zeros((3, 2)))
        assert_allclose(r.sigma, [0.0, 0.0])
        assert r.rank == 0

    def test_permuted_diag(self):
        # rows of diag(3, 4) swapped; singular values from M†M by hand
        m = np.array([[0.0, 4.0], [3.0, 0.0]])
        r = svd(m)
        assert_allclose(r.sigma, [4.0, 3.0])
        assert r.rank == 2

    def test_isometry_columns_and_reconstruction(self):
        rng = seeded_rng(1)
        for da, db in [(3, 5), (5, 3), (4, 4)]:
            m = rng.standard_normal((da, db)) + 1j * rng.standard_normal((da, db))
            r = svd(m)
            k = min(da, db)
            assert np.abs(r.u.conj().T @ r.u - np.eye(k)).max() < 1e-12
            assert np.abs(r.v.conj().T @ r.v - np.eye(k)).max() < 1e-12
            assert np.linalg.norm(r.reconstruct() - m) < 1e-10

    def test_vh_as_lapack_returns_it_and_v_its_read_only_adjoint(self):
        rng = seeded_rng(3)
        for shape in ((3, 5), (2, 4, 4)):
            m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            r = svd(m)
            assert np.array_equal(r.vh, np.linalg.svd(m, full_matrices=False)[2])
            assert r.v.tobytes() == r.vh.conj().mT.tobytes()
            assert not r.v.flags.writeable and not r.vh.flags.writeable

    def test_reconstruction_up_to_16(self):
        rng = seeded_rng(2)
        for d in (2, 8, 16):
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            assert np.linalg.norm(svd(m).reconstruct() - m) < 1e-10

    def test_nonfinite_rejected(self):
        with pytest.raises(errors.NonFinite):
            svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestPsdSqrt:
    def test_half_identity(self):
        assert_allclose(psd_sqrt(np.eye(2) / 2), np.eye(2) / np.sqrt(2), atol=1e-15)

    def test_diagonal(self):
        s = psd_sqrt(np.diag([0.8, 0.2]))
        assert_allclose(s, np.diag([np.sqrt(0.8), np.sqrt(0.2)]), atol=1e-15)

    def test_projector_is_its_own_root(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        p = np.outer(plus, plus)
        assert_allclose(psd_sqrt(p), p, atol=1e-12)

    def test_square_recovers_input(self):
        rng = seeded_rng(3)
        for d in (2, 5, 9):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            h = a @ a.conj().T
            s = psd_sqrt(h)
            assert np.linalg.norm(s @ s - h) < 1e-9
            assert np.abs(s - s.conj().T).max() < 1e-12

    def test_not_hermitian(self):
        with pytest.raises(errors.NotHermitian):
            psd_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_not_positive(self):
        with pytest.raises(errors.NotPositive):
            psd_sqrt(np.diag([1.0, -0.5]))

    def test_errors_name_the_operand(self):
        skew = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(errors.NotHermitian, match="^Delta deviates from Hermiticity"):
            psd_sqrt(skew, "Delta")
        with pytest.raises(errors.NotPositive, match="^omega has eigenvalue"):
            support_projection(np.diag([1.0, -0.5]), "omega")

    def test_roundoff_negative_clamped(self):
        s = psd_sqrt(np.diag([1.0, -1e-11]))
        assert_allclose(s, np.diag([1.0, 0.0]), atol=1e-12)


def psd_of_norm_1e8():
    """A valid 8×8 PSD matrix with spectrum logspace(8, 0, 8), whose rounding skew passes 1e-10."""
    u = random_unitary(seeded_rng(30), 8)
    return (u * np.logspace(8, 0, 8)) @ u.conj().T


class TestChecksScaleWithTheInput:
    """The Hermiticity and PSD checks hold relative to max(1, max |H_ij|), not absolutely."""

    def test_psd_sqrt_and_fidelity_accept_a_valid_matrix_of_norm_1e8(self):
        h = psd_of_norm_1e8()
        skew = np.abs((h - h.conj().T) / 2).max()
        assert skew > HERMITIAN_TOL  # the absolute check refused this matrix with NotHermitian
        s = psd_sqrt(h, "h")
        assert np.linalg.norm(s @ s - h) <= 1e-12 * np.linalg.norm(h)
        assert fidelity(h, h) == pytest.approx(np.trace(h).real, rel=1e-12)
        assert fidelity(h, h / 4) == pytest.approx(np.trace(h).real / 2, rel=1e-12)

    def test_a_skew_above_the_scaled_bound_is_still_refused(self):
        h = psd_of_norm_1e8().copy()
        h[0, 1] += 1e-10 * np.abs(h).max() * 4  # skew 2x the scaled bound
        with pytest.raises(errors.NotHermitian, match=r"^h deviates from Hermiticity"):
            psd_sqrt(h, "h")

    def test_a_negative_eigenvalue_above_the_scaled_clamp_is_still_refused(self):
        h = np.diag([1e8, -1e-1])
        with pytest.raises(errors.NotPositive, match=r"^h has eigenvalue -1\.000e-01 below -1\.000e-02"):
            psd_sqrt(h, "h")
        assert_allclose(psd_sqrt(np.diag([1e8, -1e-3])), np.diag([1e4, 0.0]), rtol=1e-15)

    def test_small_inputs_keep_the_absolute_bounds(self):
        with pytest.raises(errors.NotHermitian):
            psd_sqrt(np.array([[1e-3, 4e-10], [0.0, 1e-3]]))  # skew 2e-10
        with pytest.raises(errors.NotPositive, match=r"below -1\.000e-10"):
            psd_sqrt(np.diag([1e-3, -2e-10]))


class TestNorms:
    def test_diagonal_case(self):
        got = norms(np.diag([np.sqrt(0.4), np.sqrt(0.1)]))
        assert_allclose(got.operator, np.sqrt(0.4), atol=1e-15)
        assert_allclose(got.trace, np.sqrt(0.4) + np.sqrt(0.1), atol=1e-15)
        assert_allclose(got.hilbert_schmidt, np.sqrt(0.5), atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 7])
    def test_identity(self, d):
        got = norms(np.eye(d))
        assert got == pytest.approx((1.0, d, np.sqrt(d)))

    def test_zero(self):
        assert norms(np.zeros((3, 4))) == (0.0, 0.0, 0.0)

    def test_ordering(self):
        rng = seeded_rng(4)
        for _ in range(20):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            op, tr, hs = norms(m)
            assert op <= hs + 1e-12
            assert hs <= tr + 1e-12


class TestFidelity:
    def test_half_identities(self):
        assert fidelity(np.eye(2) / 2, np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)

    def test_self_fidelity_is_trace(self):
        rng = seeded_rng(5)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_commuting_diagonal_case(self):
        got = fidelity(np.eye(2) / 2, np.diag([0.8, 0.2]))
        assert got == pytest.approx(np.sqrt(0.4) + np.sqrt(0.1), abs=1e-12)

    def test_symmetry(self):
        rng = seeded_rng(6)
        for _ in range(20):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            rho, om = a @ a.conj().T, b @ b.conj().T
            assert fidelity(rho, om) == pytest.approx(fidelity(om, rho), abs=1e-10)

    def test_dim_mismatch(self):
        with pytest.raises(errors.DimMismatch):
            fidelity(np.eye(2), np.eye(3))

    def test_not_positive(self):
        with pytest.raises(errors.NotPositive):
            fidelity(np.diag([1.0, -1.0]), np.eye(2))


class TestPartialTrace:
    def test_bell_projector(self):
        w = bell(2).to_vector()
        rho = np.outer(w, np.conj(w))
        assert_allclose(partial_trace(rho, 2, 2, "a"), np.eye(2) / 2, atol=1e-15)
        assert_allclose(partial_trace(rho, 2, 2, "b"), np.eye(2) / 2, atol=1e-15)

    def test_product_case(self):
        rng = seeded_rng(7)
        p = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q /= np.trace(q)
        assert_allclose(partial_trace(np.kron(p, q), 3, 2, "a"), p, atol=1e-12)

    def test_trace_preserved(self):
        rng = seeded_rng(8)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        for keep in ("a", "b"):
            assert np.trace(partial_trace(m, 2, 3, keep)) == pytest.approx(np.trace(m), abs=1e-12)

    def test_unitary_invariance_of_other_side(self):
        # conjugating the a side by a unitary leaves the b reduction alone
        rng = seeded_rng(9)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        rho = m @ m.conj().T
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        u = np.kron(q, np.eye(3))
        assert np.linalg.norm(
            partial_trace(u @ rho @ u.conj().T, 2, 3, "b") - partial_trace(rho, 2, 3, "b")
        ) < 1e-10

    def test_dim_mismatch(self):
        with pytest.raises(errors.DimMismatch):
            partial_trace(np.eye(5), 2, 3, "a")


def test_support_projection_rank():
    p = support_projection(np.diag([0.5, 0.0, 0.2]))
    assert_allclose(p, np.diag([1.0, 0.0, 1.0]), atol=1e-12)


@pytest.mark.parametrize("dtype", [np.complex128, np.float64, np.int64])
@pytest.mark.parametrize("shape, axes", [((3, 4), 2), ((5, 3, 2), 2), ((5, 7), 1), ((2, 3, 4), 1), ((6,), 1)])
def test_fro_norm_has_the_bits_of_numpy_norm(dtype, shape, axes):
    """Member by member, fro_norm gives np.linalg.norm of each member's flattened entries, bit for bit."""
    rng = seeded_rng(99, *shape)
    x = rng.standard_normal(shape) * 10
    x = x + 1j * rng.standard_normal(shape) if dtype is np.complex128 else x.astype(dtype)
    members = x.reshape(-1, *shape[len(shape) - axes :])
    want = np.array([np.linalg.norm(m.reshape(-1)) for m in members]).reshape(shape[: len(shape) - axes])
    got = fro_norm(x, axes)
    assert np.array_equal(got, want) and np.shape(got) == want.shape


class TestFrozen:
    def test_writable_input_is_copied(self):
        a = np.eye(3, dtype=complex)
        b = frozen(a)
        assert not b.flags.writeable
        assert not np.shares_memory(a, b)

    def test_sealed_array_is_copied(self):
        a = seal((np.ones((2, 1, 2)) * 1j).reshape(2, 2))
        for view in (a, a.T):
            b = frozen(view)
            assert b is not view and not b.flags.writeable
            assert not np.shares_memory(b, a) and np.array_equal(b, view)
        assert frozen(a.T).flags.f_contiguous

    def test_read_only_view_of_writable_memory_is_copied(self):
        a = np.eye(3, dtype=complex)
        view = a[:2]
        view.setflags(write=False)
        b = frozen(view)
        assert not b.flags.writeable
        assert not np.shares_memory(a, b)

    def test_other_dtypes_are_converted(self):
        a = np.eye(2)
        a.setflags(write=False)
        b = frozen(a)
        assert b.dtype == np.complex128 and not b.flags.writeable


class TestSealedResults:
    """Builders mark the arrays they return read-only; value types still hold copies of them."""

    def test_polar_compose_mixed_epr_maps_and_reduced(self):
        from eprkit.antilinear import AntilinearMap, compose_mixed, polar
        from eprkit.bipartite import BipartiteVector, epr_maps, reduced

        rng = seeded_rng(11)
        c = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        lin = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        psi = BipartiteVector(c / np.linalg.norm(c))
        pair = epr_maps(psi)
        parts = polar(pair.s_ba)
        left = compose_mixed(lin, pair.s_ba, "left")
        arrays = [pair.s_ba.mat, pair.s_ab.mat, reduced(psi, "a"), reduced(psi, "b"), left.mat]
        arrays += [parts.positive, parts.phase.mat, parts.support_dom, parts.support_cod, parts.positive_dom]
        for a in arrays:
            assert not a.flags.writeable
            assert frozen(a) is not a and not np.shares_memory(frozen(a), a)
            assert not np.shares_memory(a, c) and not np.shares_memory(a, lin)
        held = AntilinearMap(left.mat).mat
        assert held is not left.mat and not np.shares_memory(held, left.mat)
        # The EPR maps are read-only views of the state's own checked coefficients, never of the caller's array.
        for m in (pair.s_ba.mat, pair.s_ab.mat):
            assert not m.flags.writeable
            base = m
            while isinstance(base.base, np.ndarray):
                base = base.base
            assert base is psi.coeff
            assert not np.shares_memory(m, c)
