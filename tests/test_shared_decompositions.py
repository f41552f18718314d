"""Each decomposition derived from an immutable value is computed once per object and cached on it.

A BipartiteVector caches its EPR pair and an AntilinearMap its polar parts,
so builders that read the same state share one SVD per matrix.  The cached
results must be bit for bit what a fresh computation returns, belong to one
object only, and never see a caller's array change under them.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from eprkit import antilinear, bipartite, linalg, modular
from eprkit.antilinear import AntilinearMap, polar
from eprkit.bipartite import BipartiteVector, polar_of_state, purification_from_isometry, reduced
from eprkit.cli import main
from eprkit.formats import bipartite_to_json
from eprkit.modular import KroneckerProduct, lift_operators, tomita_S, twisted_product
from eprkit.sampling import random_state
from eprkit.teleport import LudersChannel, TeleportMap, success_bound, teleport_map
from eprkit.verify import modular_roots, run_all, teleport_checks

from util import bell, random_unit_state, seeded_rng


def _count_calls(monkeypatch, name: str, counted=lambda kwargs: True) -> list:
    """Count the np.linalg.<name> calls whose keywords `counted` accepts; a stacked call counts once."""
    calls = []
    plain = getattr(np.linalg, name)

    def counting(a, *args, **kwargs):
        if counted(kwargs):
            calls.append(np.shape(a))
        return plain(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


@pytest.fixture
def svd_calls(monkeypatch):
    """Count np.linalg.svd calls that return singular vectors; a stacked call counts once."""
    return _count_calls(monkeypatch, "svd", lambda kwargs: kwargs.get("compute_uv", True))


def pair(d: int, stream: int) -> tuple[np.ndarray, np.ndarray]:
    rng = seeded_rng(stream)
    return random_unit_state(rng, d, d).coeff, random_unit_state(rng, d, d).coeff


class TestSvdCounts:
    def test_tomita_then_lift_takes_two(self, svd_calls):
        c_phi, c_psi = pair(24, 300)
        phi, psi = BipartiteVector(c_phi), BipartiteVector(c_psi)
        tomita_S(phi, psi)
        assert len(svd_calls) == 2  # C_psi^T (S, Delta and J's phase) and C_phi^T (J's phase)
        lift_operators(psi, phi)
        assert len(svd_calls) == 2
        modular_roots(phi, psi)  # C_phi is new, C_psi^T is J's
        assert len(svd_calls) == 3
        tomita_S(phi, psi)
        assert len(svd_calls) == 3

    def test_tomita_leaves_c_psi_undecomposed(self):
        # s_ab(psi) = C_psi is the adjoint of s_ba(psi): S and Delta read the SVD of C_psi^T.
        phi, psi = (BipartiteVector(c) for c in pair(5, 300))
        tomita_S(phi, psi)
        assert "_polar" in vars(psi.s_ba) and "_polar" not in vars(psi.s_ab)

    def test_entangled_draw_shares_its_svd_with_tomita(self, monkeypatch):
        # gns_check reads the polar SVD of C_psi^T that the drawn state keeps, and tomita_S reuses it.
        svds = _count_calls(monkeypatch, "svd")
        tomita_S(random_state((3, 3), 8), random_state((3, 3), 7, entangled=True))
        assert len(svds) == 2  # C_psi^T and C_phi^T

    def test_cli_modular_takes_five(self, svd_calls, tmp_path):
        paths = []
        for name, c in zip(("phi", "psi"), pair(8, 301)):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(bipartite_to_json(BipartiteVector(c))))
        assert main(["modular", *map(str, paths), "--out", str(tmp_path / "report.json")]) == 0
        # tomita_S 2, modular_roots 1 (C_phi), modular_phase_match 2 (the factors of S).
        assert len(svd_calls) == 5


class TestOneDecompositionPerOperand:
    """Each Hermitian operand is eigendecomposed once, and each teleport map's t decomposed once, per dims group."""

    def test_run_all_counts(self, monkeypatch):
        eighs, svds = _count_calls(monkeypatch, "eigh"), _count_calls(monkeypatch, "svd")
        run_all(seed=1)
        # One eigh per reduction in polar's oracles and per fidelity operand in matcore, one in each
        # purification and Lüders rank; one SVD of t per teleport group.  The six padded suites run one
        # group each (Lüders split by rank), where grouping by dims took 76 eighs and 201 SVDs.  The
        # draw phase takes none.
        assert (len(eighs), len(svds)) == (28, 49)

    def test_purification_takes_one_eigh(self, monkeypatch):
        rng = seeded_rng(308)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        omega = a @ a.conj().T
        w = AntilinearMap(np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0])
        eighs = _count_calls(monkeypatch, "eigh")
        psi = purification_from_isometry(omega / np.trace(omega).real, w)
        assert len(eighs) == 1  # the support and the root share it
        assert_allclose(reduced(psi, "a"), omega / np.trace(omega).real, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6), n=st.integers(1, 4), scale=st.integers(-8, 8))
def test_psd_routes_are_their_eigh_forms(seed, d, n, scale):
    # PSD stacks whose members have random ranks from 0 to d: psd_sqrt, support_projection and fidelity
    # give the bits of psd_eigh followed by the private builders that share its decomposition.
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((2, n, d, d)) + 1j * rng.standard_normal((2, n, d, d))
    z *= np.arange(d) < rng.integers(0, d + 1, size=(2, n, 1, 1))  # zero the columns beyond each rank
    rho, omega = 10.0**scale * (z @ z.conj().mT)
    eig = linalg.psd_eigh(rho)
    assert _bits(linalg.psd_sqrt(rho)) == _bits(linalg._sqrt_of(*eig))
    assert _bits(linalg.support_projection(rho)) == _bits(linalg._support_of(*eig))
    roots = (linalg._sqrt_of(*linalg.psd_eigh(m)) for m in (rho, omega))
    assert _bits(linalg.fidelity(rho, omega)) == _bits(linalg._fidelity_of(*roots))


def test_modular_builders_copy_each_factor_once(monkeypatch):
    # The builders adopt every factor and phase they compute or read, and the EPR maps view the coefficients.
    copies = []
    plain = linalg.frozen

    def counting(a):
        copies.append(np.shape(a))
        return plain(a)

    for module in (linalg, antilinear, bipartite, modular):
        monkeypatch.setattr(module, "frozen", counting)
    phi, psi = (BipartiteVector(c) for c in pair(24, 300))
    del copies[:]
    tomita_S(phi, psi)
    assert len(copies) == 0
    lift_operators(psi, phi)
    assert len(copies) == 0


def test_modular_builders_check_each_caller_array_once(monkeypatch):
    # The EPR maps view the checked coefficients; finite runs once per reduction, inverse and omega_b.
    calls = {"as_matrix": [], "finite": []}
    plain = {name: getattr(linalg, name) for name in calls}

    def counting(name):
        def wrapped(a, *args, **kwargs):
            calls[name].append(np.shape(a))
            return plain[name](a, *args, **kwargs)
        return wrapped

    for module in (linalg, antilinear, bipartite, modular):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name))
    phi, psi = (BipartiteVector(c) for c in pair(24, 300))
    for found in calls.values():
        del found[:]
    tomita_S(phi, psi)
    lift_operators(psi, phi)
    assert len(calls["as_matrix"]) == 0
    assert len(calls["finite"]) == 4  # omega_a of phi, omega_b and its inverse, and S's eta


def test_teleport_checks_take_each_state_norm_once(monkeypatch):
    # chain_oracle and root_norms both check the measured vector's norm; success_bound reads root_norms again.
    c_psi, c_phi = pair(3, 309)
    want = (linalg.fro_norm(c_psi), linalg.fro_norm(c_phi))
    calls = []
    plain = bipartite.fro_norm
    monkeypatch.setattr(bipartite, "fro_norm", lambda x, *args: calls.append(x) or plain(x, *args))
    psi, phi = BipartiteVector(c_psi), BipartiteVector(c_phi)
    tm, _, _ = teleport_checks(lambda name, values: None, psi, phi, np.eye(3)[0])
    success_bound(tm)
    assert [sum(x is s.coeff for x in calls) for s in (psi, phi)] == [1, 1]
    assert (psi.norm(), phi.norm()) == want


class TestIdentity:
    def test_polar_and_epr_maps_are_cached(self, svd_calls):
        psi = BipartiteVector(pair(3, 302)[0])
        t = AntilinearMap(pair(3, 303)[1])
        assert psi.s_ba is psi.s_ba and psi.s_ab is psi.s_ab
        assert polar(t) is polar(t)
        assert polar_of_state(psi) is polar(psi.s_ba)
        assert len(svd_calls) == 2

    def test_equal_arrays_do_not_share_results(self):
        c = pair(3, 304)[0]
        for psi1, psi2 in ((BipartiteVector(c), BipartiteVector(c)), (bell(3), bell(3))):
            assert psi1.s_ba is not psi2.s_ba and psi1.s_ab is not psi2.s_ab
            assert polar_of_state(psi1) is not polar_of_state(psi2)
        t1 = AntilinearMap(c)
        t2 = AntilinearMap(t1.mat)
        assert np.array_equal(t2.mat, t1.mat) and not np.shares_memory(t2.mat, t1.mat)
        assert polar(t1) is not polar(t2)


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
        polar(phi.s_ab).positive_dom
        assert teleport_map(psi, phi).root_norms == fresh


def _values(arrays) -> list[tuple]:
    return [(a.shape, a.tobytes(order="A")) for a in arrays]


def _parts(p) -> list[np.ndarray]:
    return [p.svd.u, p.svd.sigma, p.svd.v, p.positive, p.phase.mat, p.support_dom, p.support_cod, p.positive_dom]


# Each value type built from one caller array x, a stack of two unit 3×3 matrices: the arrays it
# holds (the one made from x first) and the results it caches.
VALUE_TYPES = {
    "SvdResult": (  # u, sigma and vh all read x's memory: sigma is a real view of its first column
        lambda x: linalg.SvdResult(u=x, sigma=x.real[..., 0], vh=x, rank=np.full(2, 3)),
        lambda r: [r.u, r.sigma, r.vh],
        lambda r: [r.v],
    ),
    "AntilinearMap": (AntilinearMap, lambda t: [t.mat], lambda t: _parts(polar(t))),
    "BipartiteVector": (
        BipartiteVector,
        lambda psi: [psi.coeff],
        lambda psi: [psi.s_ba.mat, psi.s_ab.mat, *_parts(polar_of_state(psi)), psi.norm()],
    ),
    "TwistedOperator": (lambda x: twisted_product(x, x), lambda op: list(op.factors), lambda op: [op.mat]),
    "KroneckerProduct": (lambda x: KroneckerProduct((x, x)), lambda op: list(op.factors), lambda op: [op.mat]),
    "TeleportMap": (
        lambda x: TeleportMap(source_psi=BipartiteVector(x), ancilla_phi=BipartiteVector(x)),
        lambda tm: [tm.source_psi.coeff, tm.ancilla_phi.coeff],
        lambda tm: [tm.t, *tm.root_norms],
    ),
    "LudersChannel": (  # two channels of rank one: x[:, None] puts each unit member on its own rank axis
        lambda x: LudersChannel(psis=BipartiteVector(x[:, None]), ancilla_phi=BipartiteVector(x)),
        lambda ch: [ch.psis.coeff, ch.ancilla_phi.coeff],
        lambda ch: [ch.maps, ch.psis.s_ba.mat],
    ),
}


class TestCallerArrays:
    """Every value type holds a read-only copy of what it is given, so its caches cannot go stale when a caller writes."""

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
        assert np.array_equal(psi.s_ab.mat, want) and np.array_equal(psi.s_ba.mat, want)
        assert np.array_equal(polar_of_state(psi).positive, positive)
        assert np.array_equal(polar_of_state(psi).phase.mat, phase)
        assert_allclose(polar_of_state(psi).positive @ polar_of_state(psi).positive, psi.coeff.mT @ psi.coeff.conj())
        assert np.array_equal(tm.t, t) and np.array_equal(tm.source_psi.coeff, want)

    def test_package_arrays_are_copied(self):
        sealed = linalg.seal(np.ones((2, 2), dtype=complex))
        earlier = linalg.frozen(np.array([[1j]]))
        for a in (sealed, earlier):
            b = linalg.frozen(a)
            assert b is not a and not b.flags.writeable
            assert np.array_equal(b, a) and not np.shares_memory(b, a)

    @pytest.mark.parametrize("build, held, cached", VALUE_TYPES.values(), ids=VALUE_TYPES.keys())
    def test_value_types_own_their_arrays(self, build, held, cached):
        rng = seeded_rng(307)
        c = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
        x = np.array(c / np.linalg.norm(c, axis=(-2, -1), keepdims=True), order="F")  # owns its memory
        want = build(x.copy(order="F"))
        want_held, want_cached = _values(held(want)), _values(cached(want))
        x.setflags(write=False)
        filled = build(x)
        cached(filled)
        late = build(x)
        x.setflags(write=True)
        x[...] = np.arange(x.size).reshape(x.shape)
        for value in (filled, late):
            arrays = held(value)
            assert arrays[0].flags.f_contiguous and not arrays[0].flags.c_contiguous
            assert _values(arrays) == want_held and _values(cached(value)) == want_cached
            assert not any(a.flags.writeable for a in arrays + cached(value))
            assert not any(np.shares_memory(a, x) for a in arrays + cached(value))
