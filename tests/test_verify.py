"""Tests that the vectorized verify checks still catch faults, and of the array helpers they use."""

from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eprkit import antilinear, errors
from eprkit.antilinear import AntilinearMap, adjoint
from eprkit.linalg import kron
from eprkit.modular import twisted_product
from eprkit.sampling import complex_from, normal_count, rng_for
from eprkit.teleport import success_bound, teleport_map
from eprkit.verify import TOLERANCES, ResidualTable, antilinear_suite, run_all, teleport_bound_holds, twisted_action

from util import complex_normal, random_unit_state, random_unit_vector, seeded_rng


class TestTeleportBoundHolds:
    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 4, 2), (4, 3, 4)])
    def test_catches_a_bound_lowered_by_1e_6(self, dims):
        da, db, dc = dims
        rng = seeded_rng(91, da, db, dc)
        tm = teleport_map(random_unit_state(rng, da, db), random_unit_state(rng, db, dc))
        bound = success_bound(tm)
        # The top right-singular vector attains the bound; scale it so the check must normalize.
        top = 3.0 * np.linalg.svd(tm.t)[2][0].conj()
        probes = np.vstack([complex_normal(rng, da) for _ in range(20)] + [top])
        tol = TOLERANCES["teleport.bound_holds"]
        assert teleport_bound_holds(tm, probes, bound) <= tol
        assert teleport_bound_holds(tm, probes, bound - 1e-6) > tol

    def test_no_probes_gives_zero(self):
        tm = teleport_map(random_unit_state(seeded_rng(92), 2, 2), random_unit_state(seeded_rng(93), 2, 3))
        assert teleport_bound_holds(tm, np.zeros((0, 2), dtype=complex), success_bound(tm)) == 0.0


class TestAntiInvolution:
    """anti.involution reads exactly 0.0 on the adopted adjoint, and must catch an adjoint scaled by 1 + 1e-6."""

    @staticmethod
    def involution() -> float:
        table = ResidualTable()
        antilinear_suite(table, 1, [2, 3, 4], range(3))
        return {r.name: r.residual for r in table.results()}["anti.involution"]

    def test_exact_on_the_adopted_adjoint(self):
        t = AntilinearMap(complex_normal(seeded_rng(94), 3, 2))
        held = adjoint(t).mat
        assert not held.flags.writeable and np.shares_memory(held, t.mat)
        assert self.involution() == 0.0

    def test_catches_a_scaled_adjoint(self, monkeypatch):
        plain = antilinear.adjoint
        monkeypatch.setattr(antilinear, "adjoint", lambda t: AntilinearMap(plain(t).mat * (1 + 1e-6)))
        assert self.involution() > 10 * TOLERANCES["anti.involution"]


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
    """Rows of one normal call assembled by complex_from, as teleport_suite draws its bound probes."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_equals_sequential_draws_and_leaves_the_same_state(self, d):
        count = 100
        stacked_rng, seq_rng, unit_rng = (rng_for(7, 80, d) for _ in range(3))
        rows = complex_from(stacked_rng.standard_normal((count, normal_count((d,)))), d)
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


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(trials=0), "trials must be >= 1, got 0"),
        (dict(dims=()), "dimensions must be positive"),
        (dict(dims=[0]), "dimensions must be positive"),
        (dict(dims=[2, -1]), "dimensions must be positive"),
        (dict(seed=-1), "seed must be non-negative, got -1"),
        (dict(tolerance=float("nan")), "tolerance must be positive and finite, got nan"),
        (dict(tolerance=0.0), "tolerance must be positive and finite, got 0.0"),
        (dict(tolerance=np.inf), "tolerance must be positive and finite, got inf"),
    ],
    ids=["trials-0", "dims-empty", "dims-0", "dims-negative", "seed", "tolerance-nan", "tolerance-0", "tolerance-inf"],
)
def test_run_all_refuses_what_the_cli_refuses(kwargs, message):
    with pytest.raises(errors.ParseError) as info:
        run_all(**kwargs)
    assert str(info.value) == message
