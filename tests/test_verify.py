"""Tests that the vectorized verify checks still catch faults, and of the array helpers they use."""

from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eprkit import errors
from eprkit.antilinear import AntilinearMap
from eprkit.linalg import kron
from eprkit.modular import twisted_product
from eprkit.sampling import complex_normal, complex_normal_rows, random_unit_vector, rng_for
from eprkit.teleport import success_bound, teleport_map
from eprkit.verify import TOLERANCES, ResidualTable, teleport_bound_holds, twisted_action

from util import random_unit_state, seeded_rng


class TestTeleportBoundHolds:
    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 4, 2), (4, 3, 4)])
    def test_catches_a_bound_lowered_by_1e_6(self, dims):
        da, db, dc = dims
        rng = seeded_rng(91, da, db, dc)
        tm = teleport_map(random_unit_state(rng, da, db), random_unit_state(rng, db, dc))
        bound = success_bound(tm)
        # The top right-singular vector attains the bound; scale it so the check must normalize.
        top = 3.0 * np.linalg.svd(tm.t)[2][0].conj()
        probes = np.vstack([complex_normal_rows(rng, 20, da), top])
        tol = TOLERANCES["teleport.bound_holds"]
        assert teleport_bound_holds(tm, probes, bound) <= tol
        assert teleport_bound_holds(tm, probes, bound - 1e-6) > tol

    def test_no_probes_gives_zero(self):
        tm = teleport_map(random_unit_state(seeded_rng(92), 2, 2), random_unit_state(seeded_rng(93), 2, 3))
        assert teleport_bound_holds(tm, np.zeros((0, 2), dtype=complex), success_bound(tm)) == 0.0


def test_recording_an_unregistered_identity_raises():
    with pytest.raises(KeyError, match="unregistered"):
        ResidualTable().record("epr.no_such_identity", [0.0])


class TestTwistedAction:
    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 3), (4, 2)])
    def test_exact_on_built_products(self, dims):
        da, db = dims
        rng = seeded_rng(94, da, db)
        eta, xi = complex_normal(rng, da, db), complex_normal(rng, db, da)
        assert twisted_action(twisted_product(eta, xi), eta, xi) == 0.0
        anti_eta, anti_xi = AntilinearMap(eta), AntilinearMap(xi)
        assert twisted_action(twisted_product(anti_eta, anti_xi), anti_eta, anti_xi) == 0.0

    @pytest.mark.parametrize("parity", ["linear", "antilinear"])
    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 3)])
    def test_fails_with_two_columns_swapped(self, parity, dims):
        da, db = dims
        rng = seeded_rng(95, da, db)
        eta, xi = complex_normal(rng, da, db), complex_normal(rng, db, da)
        if parity == "antilinear":
            eta, xi = AntilinearMap(eta), AntilinearMap(xi)
        prod = twisted_product(eta, xi)
        assert prod.parity == parity
        swapped = prod.mat.copy()
        swapped[:, [0, da * db - 1]] = swapped[:, [da * db - 1, 0]]
        broken = SimpleNamespace(mat=swapped, dim_a=da, dim_b=db)
        assert twisted_action(broken, eta, xi) > TOLERANCES["twisted.action"]


class TestStackedDraw:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_equals_sequential_draws_and_leaves_the_same_state(self, d):
        count = 100
        stacked_rng, seq_rng, unit_rng = (rng_for(7, 80, d) for _ in range(3))
        rows = complex_normal_rows(stacked_rng, count, d)
        assert rows.shape == (count, d)
        seq = np.stack([complex_normal(seq_rng, d) for _ in range(count)])
        assert np.array_equal(rows, seq)
        units = np.stack([random_unit_vector(unit_rng, d) for _ in range(count)])
        assert_allclose(rows / np.linalg.norm(rows, axis=1, keepdims=True), units, rtol=0, atol=1e-15)
        nxt = stacked_rng.standard_normal(5)
        assert np.array_equal(nxt, seq_rng.standard_normal(5))
        assert np.array_equal(nxt, unit_rng.standard_normal(5))


class TestKron:
    @pytest.mark.parametrize(
        "sx, sy",
        [((3,), (4,)), ((1,), (2,)), ((3, 3), (2, 2)), ((2, 3), (4, 1)), ((1, 4), (3, 2))],
    )
    def test_bit_identical_to_numpy(self, sx, sy):
        rng = seeded_rng(96, *sx, *sy)
        x, y = complex_normal(rng, *sx), complex_normal(rng, *sy)
        for a, b in ((x, y), (x.real, y), (x, y.real), (x.real, y.real)):
            got = kron(a, b)
            assert got.shape == np.kron(a, b).shape
            assert np.array_equal(got, np.kron(a, b))

    def test_with_identity_and_transposed_operand(self):
        rng = seeded_rng(97)
        m = complex_normal(rng, 3, 3)
        assert np.array_equal(kron(np.eye(2), m.T), np.kron(np.eye(2), m.T))
        assert np.array_equal(kron(m.T, np.eye(2)), np.kron(m.T, np.eye(2)))

    def test_mixed_ranks_rejected(self):
        with pytest.raises(errors.DimMismatch):
            kron(np.ones(2), np.ones((2, 2)))
