"""Tests for antilinear maps: application, adjoints, composition parity, polar parts."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eprkit import errors
from eprkit.antilinear import (
    AntilinearMap,
    adjoint,
    apply,
    chain,
    compose_aa,
    compose_mixed,
    polar,
    trace_product,
)
from eprkit.linalg import rank_mask

from util import complex_normal, seeded_rng


def random_map(rng, dy, dx):
    return AntilinearMap(complex_normal(rng, dy, dx))


class TestApply:
    def test_plain_conjugation(self):
        t = AntilinearMap(np.eye(2))
        assert_allclose(apply(t, [1j, 0.0]), [-1j, 0.0])

    def test_shift_map(self):
        t = AntilinearMap([[0.0, 0.0], [1.0, 0.0]])
        assert_allclose(apply(t, [1.0, 0.0]), [0.0, 1.0])

    def test_antilinearity(self):
        rng = seeded_rng(10)
        t = random_map(rng, 3, 3)
        u, v = complex_normal(rng, 3), complex_normal(rng, 3)
        a, b = 0.3 - 1.1j, -0.7 + 0.2j
        lhs = apply(t, a * u + b * v)
        rhs = np.conj(a) * apply(t, u) + np.conj(b) * apply(t, v)
        assert np.linalg.norm(lhs - rhs) < 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(errors.DimMismatch):
            apply(AntilinearMap(np.eye(2)), [1.0, 0.0, 0.0])


class TestAdjoint:
    def test_transpose(self):
        t = AntilinearMap([[0.0, 1.0], [0.0, 0.0]])
        assert_allclose(adjoint(t).mat, [[0.0, 0.0], [1.0, 0.0]])

    def test_defining_relation(self):
        rng = seeded_rng(11)
        t = random_map(rng, 3, 4)
        for _ in range(100):
            x = complex_normal(rng, 4)
            y = complex_normal(rng, 3)
            lhs = np.vdot(y, apply(t, x))
            rhs = np.vdot(x, apply(adjoint(t), y))
            assert abs(lhs - rhs) < 1e-12

    def test_symmetric_matrix_is_self_adjoint(self):
        m = np.array([[1.0, 2.0j], [2.0j, -3.0]])
        t = AntilinearMap(m)
        assert_allclose(adjoint(t).mat, m)

    def test_involution_exact(self):
        rng = seeded_rng(12)
        t = random_map(rng, 4, 2)
        assert np.array_equal(adjoint(adjoint(t)).mat, t.mat)


class TestCompose:
    def test_conjugation_squares_to_identity(self):
        c = AntilinearMap(np.eye(2))
        assert_allclose(compose_aa(c, c), np.eye(2))

    def test_bell_pair_gives_half_identity(self):
        s = AntilinearMap(np.eye(2) / np.sqrt(2))
        assert_allclose(compose_aa(s, s), np.eye(2) / 2)

    def test_hand_multiplication(self):
        t1 = AntilinearMap([[0.0, 1.0], [0.0, 0.0]])
        t2 = AntilinearMap([[0.0, 0.0], [1.0, 0.0]])
        assert_allclose(compose_aa(t1, t2), np.diag([1.0, 0.0]))

    def test_matches_pointwise_application(self):
        rng = seeded_rng(13)
        t1 = random_map(rng, 2, 3)
        t2 = random_map(rng, 3, 4)
        m = compose_aa(t1, t2)
        for _ in range(10):
            v = complex_normal(rng, 4)
            assert np.linalg.norm(m @ v - apply(t1, apply(t2, v))) < 1e-12

    def test_adjoint_reverses_factors(self):
        rng = seeded_rng(14)
        t1 = random_map(rng, 2, 3)
        t2 = random_map(rng, 3, 2)
        lhs = compose_aa(t1, t2).conj().T
        rhs = compose_aa(adjoint(t2), adjoint(t1))
        assert np.linalg.norm(lhs - rhs) < 1e-12

    def test_mixed_identity_leaves_map(self):
        rng = seeded_rng(15)
        t = random_map(rng, 3, 3)
        assert_allclose(compose_mixed(np.eye(3), t, "left").mat, t.mat)

    def test_mixed_scalar_conjugates_on_right(self):
        t = AntilinearMap(np.eye(2))
        got = compose_mixed(1j * np.eye(2), t, "right")
        assert_allclose(got.mat, -1j * np.eye(2))

    def test_mixed_pointwise(self):
        rng = seeded_rng(16)
        t = random_map(rng, 3, 2)
        lin_left = complex_normal(rng, 3, 3)
        lin_right = complex_normal(rng, 2, 2)
        v = complex_normal(rng, 2)
        assert np.linalg.norm(
            apply(compose_mixed(lin_left, t, "left"), v) - lin_left @ apply(t, v)
        ) < 1e-12
        assert np.linalg.norm(
            apply(compose_mixed(lin_right, t, "right"), v) - apply(t, lin_right @ v)
        ) < 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(errors.DimMismatch):
            compose_aa(AntilinearMap(np.eye(2)), AntilinearMap(np.ones((3, 3))))


class TestTraceProduct:
    def test_conjugation_pair(self):
        c = AntilinearMap(np.eye(2))
        assert trace_product(c, c) == pytest.approx(2.0)

    def test_swap_conjugates(self):
        rng = seeded_rng(17)
        for _ in range(100):
            t1 = random_map(rng, 3, 2)
            t2 = random_map(rng, 2, 3)
            assert abs(trace_product(t1, t2) - np.conj(trace_product(t2, t1))) < 1e-12

    def test_with_own_adjoint_gives_squared_hs_norm(self):
        rng = seeded_rng(18)
        t = random_map(rng, 3, 4)
        val = trace_product(t, adjoint(t))
        sigmas = np.linalg.svd(t.mat, compute_uv=False)
        assert val.imag == pytest.approx(0.0, abs=1e-12)
        assert val.real == pytest.approx(float((sigmas**2).sum()), abs=1e-10)

    def test_requires_square_composite(self):
        with pytest.raises(errors.DimMismatch):
            trace_product(AntilinearMap(np.ones((2, 3))), AntilinearMap(np.ones((2, 3))))


class TestPolar:
    def test_bell_map(self):
        parts = polar(AntilinearMap(np.eye(2) / np.sqrt(2)))
        assert_allclose(parts.positive, np.eye(2) / np.sqrt(2), atol=1e-15)
        assert_allclose(parts.phase.mat, np.eye(2), atol=1e-15)

    def test_rank_one_shift(self):
        parts = polar(AntilinearMap([[0.0, 0.0], [1.0, 0.0]]))
        assert_allclose(parts.positive, np.diag([0.0, 1.0]), atol=1e-15)
        assert_allclose(parts.support_dom, np.diag([1.0, 0.0]), atol=1e-15)
        assert_allclose(parts.support_cod, np.diag([0.0, 1.0]), atol=1e-15)

    def test_zero_map(self):
        parts = polar(AntilinearMap(np.zeros((2, 3))))
        assert np.all(parts.phase.mat == 0)
        assert np.all(parts.support_dom == 0)
        assert np.all(parts.support_cod == 0)

    def test_both_factorizations_and_supports(self):
        rng = seeded_rng(19)
        for dy, dx in [(3, 3), (4, 2), (2, 4)]:
            t = random_map(rng, dy, dx)
            parts = polar(t)
            assert np.linalg.norm(t.mat - parts.positive @ parts.phase.mat) < 1e-9
            assert np.linalg.norm(t.mat - parts.phase.mat @ np.conj(parts.positive_dom)) < 1e-9
            assert np.linalg.norm(
                compose_aa(adjoint(parts.phase), parts.phase) - parts.support_dom
            ) < 1e-9
            assert np.linalg.norm(
                compose_aa(parts.phase, adjoint(parts.phase)) - parts.support_cod
            ) < 1e-9

    def test_keeps_the_read_only_svd_its_parts_come_from(self):
        rng = seeded_rng(21)
        for dy, dx in [(3, 3), (4, 2), (2, 4)]:
            t = random_map(rng, dy, dx)
            res = polar(t).svd
            u, sigma, vh = np.linalg.svd(t.mat, full_matrices=False)
            assert np.array_equal(res.u, u) and np.array_equal(res.sigma, sigma)
            assert np.array_equal(res.v, vh.conj().T) and res.rank == min(dy, dx)
            assert not any(a.flags.writeable for a in (res.u, res.sigma, res.v))
            assert np.array_equal(polar(t).phase.mat, u @ vh)


def eager_polar_parts(mat):
    """The five polar parts by the eager formula that polar applied to every part before they were lazy."""
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    keep = rank_mask(s)
    ur, sr, vhr = u * keep[..., None, :], s * keep, vh * keep[..., :, None]
    vr = vhr.conj().mT
    positive = (ur * sr[..., None, :]) @ ur.conj().mT
    positive_dom = (np.conj(vr) * sr[..., None, :]) @ vr.mT
    return {
        "positive": (positive + positive.conj().mT) / 2,
        "phase": ur @ vhr,
        "support_dom": np.conj(vr) @ vr.mT,
        "support_cod": ur @ ur.conj().mT,
        "positive_dom": (positive_dom + positive_dom.conj().mT) / 2,
    }


POLAR_PARTS = ("positive", "phase", "support_dom", "support_cod", "positive_dom")


class TestLazyPolarParts:
    def maps(self):
        rng = seeded_rng(22)
        deficient = np.outer(complex_normal(rng, 3), complex_normal(rng, 4))
        yield complex_normal(rng, 3, 3)
        yield complex_normal(rng, 4, 2)
        yield deficient
        yield np.stack([complex_normal(rng, 3, 4), deficient])

    def test_each_part_has_the_bits_of_the_eager_formula_and_is_read_only(self):
        for mat in self.maps():
            parts = polar(AntilinearMap(mat))
            want = eager_polar_parts(mat)
            for name in POLAR_PARTS:
                got = getattr(parts, name)
                got = got.mat if name == "phase" else got
                assert np.array_equal(got, want[name]), name
                assert not got.flags.writeable, name
                assert getattr(parts, name) is getattr(parts, name), name  # built once

    def test_full_rank_skips_the_mask_with_the_masked_bits(self):
        rng = seeded_rng(24)
        full = complex_normal(rng, 2, 3, 3)
        deficient = np.stack([full[0], np.outer(complex_normal(rng, 3), complex_normal(rng, 3))])
        for mat, skipped in ((full, True), (deficient, False)):
            parts = polar(AntilinearMap(mat))
            res = parts.svd
            keep = rank_mask(res.sigma)
            masked = res.u * keep[..., None, :], res.sigma * keep, res.vh * keep[..., :, None]
            assert all(a is b for a, b in zip(parts._kept, (res.u, res.sigma, res.vh))) == skipped
            assert [a.tobytes() for a in parts._kept] == [a.tobytes() for a in masked]
            want = eager_polar_parts(mat)
            for name in POLAR_PARTS:
                got = getattr(parts, name)
                assert (got.mat if name == "phase" else got).tobytes() == want[name].tobytes(), name

    def test_reading_the_phase_builds_no_other_part(self):
        parts = polar(AntilinearMap(complex_normal(seeded_rng(23), 3, 3)))
        assert not set(POLAR_PARTS) & set(vars(parts))
        parts.phase
        assert set(POLAR_PARTS) & set(vars(parts)) == {"phase"}
        parts.positive
        assert set(POLAR_PARTS) & set(vars(parts)) == {"phase", "positive"}

    def test_parts_cannot_be_reassigned(self):
        parts = polar(AntilinearMap(np.eye(2)))
        for name in ("svd",) + POLAR_PARTS:
            with pytest.raises(AttributeError):
                setattr(parts, name, None)


class TestChain:
    def test_even_count_is_linear_matrix(self):
        maps = [AntilinearMap(np.eye(2) / np.sqrt(2))] * 4
        got = chain(maps)
        assert isinstance(got, np.ndarray)
        assert_allclose(got, np.eye(2) / 4, atol=1e-15)

    def test_odd_count_is_antilinear(self):
        got = chain([AntilinearMap(np.eye(2))] * 3)
        assert isinstance(got, AntilinearMap)
        assert_allclose(got.mat, np.eye(2))

    def test_matches_pairwise_composition(self):
        rng = seeded_rng(20)
        t1 = random_map(rng, 3, 2)
        t2 = random_map(rng, 4, 3)
        assert_allclose(chain([t1, t2]), compose_aa(t2, t1), atol=1e-15)

    def test_maps_that_do_not_compose_are_refused(self):
        rng = seeded_rng(21)
        t1, t2 = random_map(rng, 3, 2), random_map(rng, 4, 2)  # t1 lands in C^3, t2 takes C^2
        with pytest.raises(errors.DimMismatch, match=r"^chain break: map wants 2, has 3$"):
            chain([t1, t2])
