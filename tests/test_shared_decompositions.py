"""Each decomposition derived from an immutable value is computed once per object and cached on it.

A BipartiteVector caches its EPR pair and an AntilinearMap its polar parts,
so builders that read the same state share one SVD per matrix.  The cached
results must be bit for bit what a fresh computation returns, belong to one
object only, and never see a caller's array change under them.
"""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eprkit import linalg
from eprkit.antilinear import AntilinearMap, polar
from eprkit.bipartite import BipartiteVector, epr_maps, polar_of_state
from eprkit.cli import main
from eprkit.formats import bipartite_to_json
from eprkit.modular import lift_operators, tomita_S
from eprkit.teleport import teleport_map
from eprkit.verify import modular_roots

from util import bell, random_unit_state, seeded_rng


@pytest.fixture
def svd_calls(monkeypatch):
    """Count np.linalg.svd calls that return singular vectors; a stacked call counts once."""
    calls = []
    plain = np.linalg.svd

    def counting(a, *args, **kwargs):
        if kwargs.get("compute_uv", True):
            calls.append(np.shape(a))
        return plain(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def pair(d: int, stream: int) -> tuple[np.ndarray, np.ndarray]:
    rng = seeded_rng(stream)
    return random_unit_state(rng, d, d).coeff, random_unit_state(rng, d, d).coeff


class TestSvdCounts:
    def test_tomita_then_lift_takes_three(self, svd_calls):
        c_phi, c_psi = pair(24, 300)
        phi, psi = BipartiteVector(c_phi), BipartiteVector(c_psi)
        tomita_S(phi, psi)
        assert len(svd_calls) == 3  # C_psi, and the phases of C_psi^T and C_phi^T
        lift_operators(psi, phi)
        assert len(svd_calls) == 3
        modular_roots(phi, psi)  # C_phi is new, C_psi^T is J's
        assert len(svd_calls) == 4
        tomita_S(phi, psi)
        assert len(svd_calls) == 4

    def test_cli_modular_takes_six(self, svd_calls, tmp_path):
        paths = []
        for name, c in zip(("phi", "psi"), pair(8, 301)):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(bipartite_to_json(BipartiteVector(c))))
        assert main(["modular", *map(str, paths), "--out", str(tmp_path / "report.json")]) == 0
        # tomita_S 3, modular_roots 1 (C_phi), modular_phase_match 2 (the factors of S).
        assert len(svd_calls) == 6


class TestIdentity:
    def test_polar_and_epr_maps_are_cached(self, svd_calls):
        psi = BipartiteVector(pair(3, 302)[0])
        t = AntilinearMap(pair(3, 303)[1])
        assert epr_maps(psi) is epr_maps(psi)
        assert polar(t) is polar(t)
        assert polar_of_state(psi) is polar(epr_maps(psi).s_ba)
        assert len(svd_calls) == 2

    def test_equal_arrays_do_not_share_results(self):
        c = pair(3, 304)[0]
        for psi1, psi2 in ((BipartiteVector(c), BipartiteVector(c)), (bell(3), bell(3))):
            assert epr_maps(psi1) is not epr_maps(psi2)
            assert epr_maps(psi1).s_ba is not epr_maps(psi2).s_ba
            assert polar_of_state(psi1) is not polar_of_state(psi2)
        t1 = AntilinearMap(c)
        t2 = AntilinearMap(t1.mat)
        assert t2.mat is t1.mat and polar(t1) is not polar(t2)


def _bits(*arrays) -> list[bytes]:
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


def _builder_bits(phi, psi) -> list[bytes]:
    triple = tomita_S(phi, psi)
    lifted = lift_operators(psi, phi)
    ops = (triple.s, triple.delta, triple.j, lifted.s_tilde, lifted.f_tilde, lifted.delta_tilde, lifted.j)
    return _bits(*(f for op in ops for f in op.factors), *modular_roots(phi, psi))


class TestSameBits:
    @pytest.mark.parametrize("d", [2, 5, 24])
    def test_builders_on_fresh_and_filled_caches(self, d):
        c_phi, c_psi = pair(d, 305)
        fresh = _builder_bits(BipartiteVector(c_phi), BipartiteVector(c_psi))
        phi, psi = BipartiteVector(c_phi), BipartiteVector(c_psi)
        modular_roots(phi, psi)
        lift_operators(psi, phi)
        lift_operators(phi, psi)
        assert _builder_bits(phi, psi) == fresh
        assert _builder_bits(phi, psi) == fresh

    def test_root_norms_on_fresh_and_filled_caches(self):
        rng = seeded_rng(306)
        c_psi, c_phi = random_unit_state(rng, 3, 4).coeff, random_unit_state(rng, 4, 2).coeff
        fresh = teleport_map(BipartiteVector(c_psi), BipartiteVector(c_phi)).root_norms
        psi, phi = BipartiteVector(c_psi), BipartiteVector(c_phi)
        polar_of_state(psi).phase
        polar(epr_maps(phi).s_ab).positive_dom
        assert teleport_map(psi, phi).root_norms == fresh


class TestCallerArrays:
    """A caller's read-only array is copied once, so cached results cannot go stale when its owner writes again."""

    def test_caches_ignore_later_writes(self):
        x = np.diag([0.6, 0.8]).astype(complex)
        x.setflags(write=False)
        psi = BipartiteVector(x)
        parts = polar_of_state(psi)
        positive, phase = parts.positive.copy(), parts.phase.mat.copy()
        tm = teleport_map(psi, bell(2))
        t = tm.t.copy()
        x.setflags(write=True)
        x[0, 0], x[1, 1] = 0.8, 0.6
        want = np.diag([0.6, 0.8])
        assert np.array_equal(psi.coeff, want)
        assert np.array_equal(epr_maps(psi).s_ab.mat, want) and np.array_equal(epr_maps(psi).s_ba.mat, want)
        assert np.array_equal(polar_of_state(psi).positive, positive)
        assert np.array_equal(polar_of_state(psi).phase.mat, phase)
        assert_allclose(polar_of_state(psi).positive @ polar_of_state(psi).positive, psi.coeff.mT @ psi.coeff.conj())
        assert np.array_equal(tm.t, t) and np.array_equal(tm.source_psi.coeff, want)

    def test_package_arrays_are_kept_and_forgotten_with_their_owner(self):
        a = linalg.seal(np.ones((2, 2), dtype=complex))
        kept = linalg.frozen(np.array([[1j]]))
        assert linalg.frozen(a) is a and linalg.frozen(kept) is kept
        key = id(a)
        assert key in linalg._SEALED
        del a
        assert key not in linalg._SEALED
