"""Residual suites: every analytic identity of the library re-checked on seeded random instances.

Each trial draws its instances from an independent sub-stream of
(seed, suite, trial index), so any reported residual is reproducible in
isolation.  Residuals are Frobenius norms of differences (absolute values for
scalars), maximized over trials.  Tolerances are pinned per identity; passing
a global tolerance overrides all of them.

The identities the CLI subcommands check on their inputs are each computed
by one residual function below, which takes already-built operands; the
suites and the CLI both call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import antilinear as al
from . import bipartite as bp
from . import linalg as la
from . import modular as md
from . import teleport as tp
from .errors import ToleranceExceeded
from .sampling import (
    complex_normal,
    complex_normal_rows,
    random_psd,
    random_unit_vector,
    random_unitary,
    rng_for,
    state_from_rng,
)

TOLERANCES = {
    "matcore.svd_reconstruct": 1e-10,
    "matcore.psd_sqrt": 1e-9,
    "matcore.fidelity_symmetry": 1e-10,
    "matcore.partial_trace_invariance": 1e-10,
    "epr.projection": 1e-10,
    "epr.pairing": 1e-12,
    "epr.inner_trace": 1e-12,
    "epr.reconstruct": 1e-10,
    "epr.reduction": 1e-10,
    "epr.local_transform": 1e-10,
    "anti.adjoint_pairing": 1e-12,
    "anti.involution": 1e-15,
    "anti.compose_adjoint": 1e-12,
    "anti.mixed_compose": 1e-12,
    "anti.trace_conjugation": 1e-12,
    "polar.factorizations": 1e-9,
    "polar.supports": 1e-9,
    "polar.conjugate_reduction": 1e-9,
    "partner.trace": 1e-10,
    "partner.intertwine": 1e-10,
    "cloning.commutator": 1e-9,
    "crossgram.singulars": 1e-9,
    "crossgram.trace": 1e-10,
    "purification.roundtrip": 1e-9,
    "teleport.factorization": 1e-10,
    "teleport.bound_holds": 1e-12,
    "teleport.bound_attained": 1e-9,
    "teleport.trace_fidelity": 1e-9,
    "luders.rank1": 1e-12,
    "luders.decoupling": 1e-10,
    "luders.independence": 1e-9,
    "luders.trace_bound": 1e-9,
    "luders.op_bound": 1e-9,
    "luders.completeness": 1e-9,
    "chain.factorization": 1e-10,
    "twisted.action": 1e-12,
    "twisted.adjoint": 1e-10,
    "twisted.compose": 1e-10,
    "twisted.adjoint_exchange": 1e-12,
    "twisted.reductions": 1e-9,
    "twisted.polar": 1e-9,
    "modular.defining": 1e-9,
    "modular.delta": 1e-9,
    "modular.reconstruction": 1e-9,
    "modular.phase_match": 1e-9,
    "modular.intertwine": 1e-9,
    "modular.fixed_point": 1e-10,
}


@dataclass(frozen=True)
class IdentityResult:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


class ResidualTable:
    """Running max residual per identity name."""

    def __init__(self):
        self._max: dict[str, float] = {}

    def record(self, name: str, value: float):
        if name not in TOLERANCES:
            raise KeyError(f"unregistered identity {name!r}")
        v = float(value)
        if name not in self._max or v > self._max[name]:
            self._max[name] = v

    def results(self, tolerance: float | None = None) -> list[IdentityResult]:
        return [
            IdentityResult(name, self._max[name], tolerance if tolerance is not None else TOLERANCES[name])
            for name in TOLERANCES
            if name in self._max
        ]


def _fro(x) -> float:
    return float(np.linalg.norm(np.asarray(x).reshape(-1)))


def _dim_pairs(dims) -> list[tuple[int, int]]:
    return [(da, db) for da in dims for db in dims]


def _square_dims(dims) -> list[int]:
    return sorted(set(int(d) for d in dims))


def _vdot(x, y) -> complex:
    return complex(np.vdot(np.asarray(x).reshape(-1), np.asarray(y).reshape(-1)))


def epr_projection(psi, pair, omega_a, phi_a) -> float:
    """(|phi_a><phi_a| ⊗ 1) psi = phi_a ⊗ s_ba phi_a, with squared norm <phi_a, omega_a phi_a>."""
    projected = bp.project_rank1(psi, phi_a)
    return max(
        _fro(projected.coeff - np.outer(phi_a, al.apply(pair.s_ba, phi_a))),
        abs(projected.norm() ** 2 - _vdot(phi_a, omega_a @ phi_a).real),
    )


def epr_pairing(psi, pair, phi_a, phi_b) -> float:
    """<phi_b, s_ba phi_a> = <phi_a, s_ab phi_b> = <phi_a ⊗ phi_b, psi>."""
    rhs = _vdot(la.kron(phi_a, phi_b), psi.to_vector())
    return max(
        abs(_vdot(phi_b, al.apply(pair.s_ba, phi_a)) - rhs),
        abs(_vdot(phi_a, al.apply(pair.s_ab, phi_b)) - rhs),
    )


def epr_inner_trace(psi, pair, chi) -> float:
    """<chi, psi> as a trace of induced maps, on either factor."""
    direct = _vdot(chi.coeff, psi.coeff)
    trace_b = complex(np.trace(al.compose_aa(pair.s_ba, bp.epr_maps(chi).s_ab)))
    return max(abs(bp.inner_via_trace(chi, psi) - direct), abs(trace_b - direct))


def epr_reduction(psi, omega_a, omega_b) -> float:
    """The reductions against partial traces of the dense projector |psi><psi|."""
    dense = np.outer(psi.to_vector(), np.conj(psi.to_vector()))
    return max(
        _fro(omega_a - la.partial_trace(dense, psi.dim_a, psi.dim_b, "a")),
        _fro(omega_b - la.partial_trace(dense, psi.dim_a, psi.dim_b, "b")),
    )


def teleport_factorization(tm, probe) -> float:
    """Factorized channel output against the dense projection oracle."""
    return _fro(tm.t @ probe - tp.teleport_oracle(tm.source_psi, tm.ancilla_phi, probe))


def teleport_bound_holds(tm, probes, bound) -> float:
    """Excess of the largest squared output norm over the success bound, on the normalized probe rows."""
    v = probes / np.linalg.norm(probes, axis=1, keepdims=True)
    worst = float(np.linalg.norm(v @ tm.t.T, axis=1).max(initial=0.0)) ** 2
    return max(0.0, worst - bound)


def teleport_trace_fidelity(tnf) -> float:
    """Trace norm of the channel matrix against the fidelity of the reductions."""
    return abs(tnf.trace_norm - tnf.fidelity)


def luders_decoupling(ch, probe) -> float:
    """Dense (P ⊗ 1_c)(probe ⊗ phi) against sum_k psi_k ⊗ t_k probe."""
    dense = tp.luders_project(ch, probe)
    factored = np.zeros_like(dense)
    for psi_k, t_k in zip(ch.psis, ch.maps):
        factored += la.kron(psi_k.to_vector(), t_k @ probe)
    return _fro(dense - factored)


def luders_op_bound(ch, bounds) -> float:
    """Excess of the operator bound over the squared ancilla norm, and its gap to the trace bound."""
    return max(max(0.0, bounds.op_bound - ch.ancilla_norm_sq), abs(bounds.op_bound - bounds.trace_bound))


def chain_factorization(stages, t, probe) -> float:
    """Folded chain matrix against the dense chain oracle."""
    return _fro(t @ probe - tp.chain_oracle(probe, stages))


def twisted_action(prod, eta, xi) -> float:
    """(eta ⊗̃ xi)(e_i ⊗ e_j) = (eta e_j) ⊗ (xi e_i) on all basis vectors at once.

    Column (i, j) of the operator applied to the identity is its action on
    e_i ⊗ e_j; the right-hand sides are the columns of kron(eta, xi) with the
    two column indices swapped.  Basis vectors are real, so either parity
    acts on them by its plain matrix.
    """
    eta_mat = eta.mat if isinstance(eta, al.AntilinearMap) else eta
    xi_mat = xi.mat if isinstance(xi, al.AntilinearMap) else xi
    da, db = prod.dim_a, prod.dim_b
    n = da * db
    want = la.kron(eta_mat, xi_mat).reshape(n, db, da).transpose(0, 2, 1).reshape(n, n)
    return float(np.linalg.norm(prod.mat @ np.eye(n) - want, axis=0).max(initial=0.0))


def modular_defining(triple, phi, psi) -> float:
    """S (E_ij ⊗ 1) psi = (E_ij* ⊗ 1) phi on every matrix unit."""
    d = psi.dim_a
    worst = 0.0
    for i in range(d):
        for j in range(d):
            e_ij = np.zeros((d, d), dtype=np.complex128)
            e_ij[i, j] = 1.0
            lhs = triple.s((e_ij @ psi.coeff).reshape(-1))
            rhs = (e_ij.conj().T @ phi.coeff).reshape(-1)
            worst = max(worst, _fro(lhs - rhs))
    return worst


def modular_reconstruction(triple) -> float:
    """S = J Delta^(1/2)."""
    return _fro(triple.s.mat - triple.j.mat @ np.conj(la.psd_sqrt(triple.delta, "Delta")))


def modular_phase_match(triple, j_twisted) -> float:
    """The polar phase of S, from its dense SVD with the package rank rule, against the twisted phase lift."""
    f = la.svd(triple.s.mat)
    return _fro(f.u[:, : f.rank] @ f.v[:, : f.rank].conj().T - j_twisted.mat)


def modular_intertwine(triple, j_twisted, phi, psi) -> float:
    """S (1 ⊗ omega_b(psi)^(1/2)) = J~ (omega_a(phi)^(1/2) ⊗ 1)."""
    d = psi.dim_a
    sq_b_psi = la.psd_sqrt(bp.reduced(psi, "b"), "omega_b(psi)")
    sq_a_phi = la.psd_sqrt(bp.reduced(phi, "a"), "omega_a(phi)")
    lhs = triple.s.mat @ np.conj(la.kron(np.eye(d), sq_b_psi))
    rhs = j_twisted.mat @ np.conj(la.kron(sq_a_phi, np.eye(d)))
    return _fro(lhs - rhs)


def matcore_suite(table: ResidualTable, seed: int, dims, trials: Iterable[int]):
    sizes = sorted(set(list(dims) + [16]))
    for t in trials:
        rng = rng_for(seed, 5, t)
        d = sizes[t % len(sizes)]
        m = complex_normal(rng, d, d)
        table.record("matcore.svd_reconstruct", _fro(la.svd(m).reconstruct() - m))

        h = random_psd(rng, d)
        s = la.psd_sqrt(h)
        table.record("matcore.psd_sqrt", _fro(s @ s - h))

        rho, omega = random_psd(rng, d), random_psd(rng, d)
        table.record(
            "matcore.fidelity_symmetry", abs(la.fidelity(rho, omega) - la.fidelity(omega, rho))
        )

        da, db = _dim_pairs(dims)[t % len(_dim_pairs(dims))]
        big = random_psd(rng, da * db)
        u = la.kron(random_unitary(rng, da), np.eye(db))
        table.record(
            "matcore.partial_trace_invariance",
            _fro(
                la.partial_trace(u @ big @ u.conj().T, da, db, "b")
                - la.partial_trace(big, da, db, "b")
            ),
        )


def epr_suite(table: ResidualTable, seed: int, dims, trials: Iterable[int]):
    pairs = _dim_pairs(dims)
    for t in trials:
        da, db = pairs[t % len(pairs)]
        rng = rng_for(seed, 10, t)
        psi = state_from_rng(rng, da, db)
        pair = bp.epr_maps(psi)
        omega_a, omega_b = bp.reduced(psi, "a"), bp.reduced(psi, "b")
        phi_a = random_unit_vector(rng, da)
        phi_b = complex_normal(rng, db)
        table.record("epr.projection", epr_projection(psi, pair, omega_a, phi_a))
        table.record("epr.pairing", epr_pairing(psi, pair, phi_a, phi_b))
        table.record("epr.inner_trace", epr_inner_trace(psi, pair, state_from_rng(rng, da, db)))

        table.record(
            "epr.reconstruct",
            _fro(bp.reconstruct(pair.s_ba, np.eye(da)).coeff - psi.coeff),
        )
        a_psd = random_psd(rng, da)
        table.record(
            "epr.reconstruct",
            _fro(bp.reconstruct(pair.s_ba, a_psd).coeff - a_psd @ psi.coeff),
        )

        table.record("epr.reduction", epr_reduction(psi, omega_a, omega_b))

        a_op = complex_normal(rng, da, da)
        b_op = complex_normal(rng, db, db)
        moved = bp.local_transform(psi, a_op, b_op)
        via_maps_ba = al.compose_mixed(b_op, al.compose_mixed(a_op.conj().T, pair.s_ba, "right"), "left")
        via_maps_ab = al.compose_mixed(a_op, al.compose_mixed(b_op.conj().T, pair.s_ab, "right"), "left")
        table.record(
            "epr.local_transform",
            max(
                _fro(bp.epr_maps(moved).s_ba.mat - via_maps_ba.mat),
                _fro(bp.epr_maps(moved).s_ab.mat - via_maps_ab.mat),
            ),
        )


def antilinear_suite(table: ResidualTable, seed: int, dims, trials: Iterable[int]):
    pairs = _dim_pairs(dims)
    for t in trials:
        da, db = pairs[t % len(pairs)]
        rng = rng_for(seed, 20, t)
        t1 = al.AntilinearMap(complex_normal(rng, db, da))
        t2 = al.AntilinearMap(complex_normal(rng, da, db))
        x = complex_normal(rng, da)
        y = complex_normal(rng, db)

        table.record(
            "anti.adjoint_pairing",
            abs(_vdot(y, al.apply(t1, x)) - _vdot(x, al.apply(al.adjoint(t1), y))),
        )
        table.record("anti.involution", _fro(al.adjoint(al.adjoint(t1)).mat - t1.mat))
        table.record(
            "anti.compose_adjoint",
            _fro(al.compose_aa(t1, t2).conj().T - al.compose_aa(al.adjoint(t2), al.adjoint(t1))),
        )
        lin_cod = complex_normal(rng, db, db)
        lin_dom = complex_normal(rng, da, da)
        table.record(
            "anti.mixed_compose",
            max(
                _fro(lin_cod @ al.apply(t1, x) - al.apply(al.compose_mixed(lin_cod, t1, "left"), x)),
                _fro(al.apply(t1, lin_dom @ x) - al.apply(al.compose_mixed(lin_dom, t1, "right"), x)),
            ),
        )
        table.record(
            "anti.trace_conjugation",
            abs(al.trace_product(t1, t2) - np.conj(al.trace_product(t2, t1))),
        )


def _maybe_deficient(rng, da, db, t) -> bp.BipartiteVector:
    """Random unit state; every third trial has one coefficient row zeroed."""
    c = complex_normal(rng, da, db)
    if t % 3 == 2 and da > 1:
        c[int(rng.integers(da))] = 0.0
    return bp.BipartiteVector(c / np.linalg.norm(c))


def polar_suite(table: ResidualTable, seed: int, dims, trials: Iterable[int]):
    pairs = _dim_pairs(dims)
    for t in trials:
        da, db = pairs[t % len(pairs)]
        rng = rng_for(seed, 30, t)
        psi = _maybe_deficient(rng, da, db, t)
        pair = bp.epr_maps(psi)
        parts = al.polar(pair.s_ba)
        parts_ab = al.polar(pair.s_ab)

        table.record(
            "polar.factorizations",
            max(
                _fro(pair.s_ba.mat - parts.positive @ parts.phase.mat),
                _fro(pair.s_ba.mat - parts.phase.mat @ np.conj(parts.positive_dom)),
                _fro(pair.s_ab.mat - parts_ab.positive @ parts_ab.phase.mat),
                _fro(pair.s_ab.mat - parts_ab.phase.mat @ np.conj(parts_ab.positive_dom)),
                _fro(parts.positive - la.psd_sqrt(bp.reduced(psi, "b"))),
                _fro(parts.positive_dom - la.psd_sqrt(bp.reduced(psi, "a"))),
            ),
        )
        table.record(
            "polar.supports",
            max(
                _fro(al.compose_aa(al.adjoint(parts.phase), parts.phase) - parts.support_dom),
                _fro(al.compose_aa(parts.phase, al.adjoint(parts.phase)) - parts.support_cod),
                _fro(parts.support_dom - la.support_projection(bp.reduced(psi, "a"))),
                _fro(parts.support_cod - la.support_projection(bp.reduced(psi, "b"))),
            ),
        )
        conjugated = al.compose_aa(
            al.compose_mixed(bp.reduced(psi, "a"), parts.phase, "right"),
            al.adjoint(parts.phase),
        )
        table.record("polar.conjugate_reduction", _fro(conjugated - bp.reduced(psi, "b")))


def partner_suite(table: ResidualTable, seed: int, dims, trials: Iterable[int]):
    squares = _square_dims(dims)
    for t in trials:
        d = squares[t % len(squares)]
        rng = rng_for(seed, 40, t)
        psi = state_from_rng(rng, d, d, entangled=True)
        parts = bp.polar_of_state(psi)
        a_op = complex_normal(rng, d, d)
        b_op = bp.partner_operator(a_op, parts)
        table.record(
            "partner.trace",
            abs(np.trace(bp.reduced(psi, "a") @ a_op) - np.trace(bp.reduced(psi, "b") @ b_op)),
        )
        j = parts.phase.mat
        q_dom_conj = np.conj(parts.support_dom)
        table.record(
            "partner.intertwine",
            _fro((b_op.conj().T @ j - j @ np.conj(a_op)) @ q_dom_conj),
        )


def cloning_suite(table: ResidualTable, seed: int, dims, trials: Iterable[int]):
    squares = _square_dims(dims)
    for t in trials:
        d = squares[t % len(squares)]
        rng = rng_for(seed, 50, t)
        u_a = random_unitary(rng, d)
        u_b = random_unitary(rng, d)
        p = rng.random(d) + 0.05
        q = rng.random(d) + 0.05
        phi = bp.BipartiteVector(u_a @ np.diag(np.sqrt(p / p.sum())) @ u_b.conj().T)
        psi = bp.BipartiteVector(u_a @ np.diag(np.sqrt(q / q.sum())) @ u_b.conj().T)
        hermitian, commutator = bp.cloning_check(phi, psi)
        table.record("cloning.commutator", commutator if hermitian else 1.0)


def crossgram_suite(table: ResidualTable, seed: int, dims, trials: Iterable[int]):
    pairs = _dim_pairs(dims)
    for t in trials:
        da, db = pairs[t % len(pairs)]
        rng = rng_for(seed, 60, t)
        phi = state_from_rng(rng, da, db)
        psi = state_from_rng(rng, da, db)
        cross = bp.cross_gram(phi, psi)
        sv = np.linalg.svd(cross, compute_uv=False)
        oracle = np.linalg.svd(
            la.psd_sqrt(bp.reduced(phi, "a")) @ la.psd_sqrt(bp.reduced(psi, "a")),
            compute_uv=False,
        )
        n = max(sv.size, oracle.size)
        table.record(
            "crossgram.singulars",
            float(np.abs(np.pad(sv, (0, n - sv.size)) - np.pad(oracle, (0, n - oracle.size))).max()),
        )
        b_op = complex_normal(rng, db, db)
        lhs = complex(np.trace(cross @ b_op))
        rhs = _vdot(psi.coeff, phi.coeff @ b_op.T)
        table.record("crossgram.trace", abs(lhs - rhs))


def purification_suite(table: ResidualTable, seed: int, dims, trials: Iterable[int]):
    squares = _square_dims(dims)
    for t in trials:
        d = squares[t % len(squares)]
        rng = rng_for(seed, 70, t)
        omega = random_psd(rng, d)
        omega /= np.trace(omega).real
        w = al.AntilinearMap(random_unitary(rng, d))
        psi = bp.purification_from_isometry(omega, w)
        table.record("purification.roundtrip", _fro(bp.reduced(psi, "a") - omega))


def teleport_suite(table: ResidualTable, seed: int, dims, trials: Iterable[int], bound_probes: int = 100):
    small = [d for d in dims if d <= 4] or [2]
    triples = [(da, db, dc) for da in small for db in small for dc in small]
    for t in trials:
        da, db, dc = triples[t % len(triples)]
        rng = rng_for(seed, 80, t)
        psi = state_from_rng(rng, da, db)
        phi = state_from_rng(rng, db, dc)
        tm = tp.teleport_map(psi, phi)
        table.record("teleport.factorization", teleport_factorization(tm, random_unit_vector(rng, da)))
        bound = tp.success_bound(tm)
        probes = complex_normal_rows(rng, bound_probes, da)
        table.record("teleport.bound_holds", teleport_bound_holds(tm, probes, bound))
        top = float(np.linalg.svd(tm.t, compute_uv=False).max())
        table.record("teleport.bound_attained", abs(top**2 - bound))
        table.record("teleport.trace_fidelity", teleport_trace_fidelity(tp.trace_norm_fidelity(tm)))


def _orthonormal_states(rng, da: int, db: int, count: int) -> list[bp.BipartiteVector]:
    u = random_unitary(rng, da * db)
    return [bp.BipartiteVector.from_vector(u[:, k], da, db) for k in range(count)]


def luders_suite(table: ResidualTable, seed: int, dims, trials: Iterable[int]):
    small = [d for d in dims if d <= 3] or [2]
    pairs = [(da, db) for da in small for db in small]
    for t in trials:
        da, db = pairs[t % len(pairs)]
        rng = rng_for(seed, 90, t)
        dc = small[t % len(small)]
        phi = state_from_rng(rng, db, dc)
        rank = 1 + int(rng.integers(da * db))
        psis = _orthonormal_states(rng, da, db, rank)
        ch = tp.luders_channel(psis, phi)

        single = tp.luders_channel(psis[:1], phi)
        table.record("luders.rank1", _fro(single.maps[0] - tp.teleport_map(psis[0], phi).t))

        table.record("luders.decoupling", luders_decoupling(ch, random_unit_vector(rng, da)))

        mix = random_unitary(rng, rank)
        flat = np.stack([p.to_vector() for p in psis])
        psis2 = [bp.BipartiteVector.from_vector(v, da, db) for v in (mix.T @ flat)]
        ch2 = tp.luders_channel(psis2, phi)
        nu = random_psd(rng, da)
        table.record("luders.independence", _fro(tp.luders_apply(ch, nu) - tp.luders_apply(ch2, nu)))

        table.record("luders.op_bound", luders_op_bound(ch, tp.luders_bounds(ch)))
        norm_sq = ch.ancilla_norm_sq
        out_trace = float(np.trace(tp.luders_apply(ch, nu)).real)
        table.record("luders.trace_bound", max(0.0, out_trace - norm_sq * float(np.trace(nu).real)))

        if da * db <= 6:
            full = tp.luders_channel(_orthonormal_states(rng, da, db, da * db), phi)
            out = float(np.trace(tp.luders_apply(full, nu)).real)
            table.record("luders.completeness", abs(out - norm_sq * float(np.trace(nu).real)))


def chain_suite(table: ResidualTable, seed: int, dims, trials: Iterable[int]):
    for t in trials:
        rng = rng_for(seed, 100, t)
        stages = [state_from_rng(rng, 2, 2) for _ in range(4)]
        t_ea = tp.chain_teleport(stages)
        table.record("chain.factorization", chain_factorization(stages, t_ea, random_unit_vector(rng, 2)))


def twisted_suite(table: ResidualTable, seed: int, dims, trials: Iterable[int]):
    squares = _square_dims(dims)
    for t in trials:
        d = squares[t % len(squares)]
        rng = rng_for(seed, 110, t)

        eta = al.AntilinearMap(complex_normal(rng, d, d))
        xi = al.AntilinearMap(complex_normal(rng, d, d))
        prod = md.twisted_product(eta, xi)
        lin_eta = complex_normal(rng, d, d)
        lin_xi = complex_normal(rng, d, d)
        lin_prod = md.twisted_product(lin_eta, lin_xi)
        table.record(
            "twisted.action", max(twisted_action(prod, eta, xi), twisted_action(lin_prod, lin_eta, lin_xi))
        )

        table.record(
            "twisted.adjoint",
            max(
                _fro(md.twisted_adjoint(prod).mat - prod.mat.T),
                _fro(md.twisted_adjoint(lin_prod).mat - lin_prod.mat.conj().T),
            ),
        )

        eta2 = al.AntilinearMap(complex_normal(rng, d, d))
        xi2 = al.AntilinearMap(complex_normal(rng, d, d))
        prod2 = md.twisted_product(eta2, xi2)
        table.record(
            "twisted.compose",
            _fro(
                md.twisted_compose(prod, prod2)
                - la.kron(al.compose_aa(eta, xi2), al.compose_aa(xi, eta2))
            ),
        )

        phi = state_from_rng(rng, d, d)
        psi = state_from_rng(rng, d, d)
        fwd = md.lift_operators(phi, psi)
        bwd = md.lift_operators(psi, phi)
        # Adjoints exchange the arguments; for the mixed lifts they also swap
        # the j-factor and s-factor roles, crossing s_tilde into f_tilde.
        table.record(
            "twisted.adjoint_exchange",
            max(
                _fro(fwd.delta_tilde.mat.T - bwd.delta_tilde.mat),
                _fro(fwd.s_tilde.mat.T - bwd.f_tilde.mat),
                _fro(fwd.f_tilde.mat.T - bwd.s_tilde.mat),
                _fro(fwd.j.mat.T - bwd.j.mat),
            ),
        )

        om_a_phi, om_b_phi = bp.reduced(phi, "a"), bp.reduced(phi, "b")
        om_a_psi, om_b_psi = bp.reduced(psi, "a"), bp.reduced(psi, "b")
        q_a_phi, q_b_phi = la.support_projection(om_a_phi), la.support_projection(om_b_phi)
        q_a_psi, q_b_psi = la.support_projection(om_a_psi), la.support_projection(om_b_psi)
        table.record(
            "twisted.reductions",
            max(
                _fro(md.twisted_compose(fwd.delta_tilde, bwd.delta_tilde) - la.kron(om_a_phi, om_b_psi)),
                _fro(md.twisted_compose(fwd.j, bwd.j) - la.kron(q_a_phi, q_b_psi)),
            ),
        )

        j_mat = fwd.j.mat
        table.record(
            "twisted.polar",
            max(
                _fro(fwd.delta_tilde.mat - la.psd_sqrt(la.kron(om_a_phi, om_b_psi)) @ j_mat),
                _fro(fwd.delta_tilde.mat - j_mat @ np.conj(la.psd_sqrt(la.kron(om_a_psi, om_b_phi)))),
                _fro(fwd.s_tilde.mat - la.kron(q_a_phi, la.psd_sqrt(om_b_psi)) @ j_mat),
                _fro(fwd.s_tilde.mat - j_mat @ np.conj(la.kron(la.psd_sqrt(om_a_psi), q_b_phi))),
                _fro(fwd.f_tilde.mat - la.kron(la.psd_sqrt(om_a_phi), q_b_psi) @ j_mat),
                _fro(fwd.f_tilde.mat - j_mat @ np.conj(la.kron(q_a_psi, la.psd_sqrt(om_b_phi)))),
            ),
        )


def modular_suite(table: ResidualTable, seed: int, dims, trials: Iterable[int]):
    squares = [d for d in _square_dims(dims) if d >= 2] or [2]
    for t in trials:
        d = squares[t % len(squares)]
        rng = rng_for(seed, 120, t)
        psi = state_from_rng(rng, d, d, entangled=True)
        phi = state_from_rng(rng, d, d)
        triple = md.tomita_S(phi, psi)
        table.record("modular.defining", modular_defining(triple, phi, psi))

        # Delta carries an inverse, so its norm is unbounded over random states;
        # this dual-route residual is measured relative to it.
        delta_from_s = al.compose_aa(al.adjoint(triple.s), triple.s)
        scale = 1.0 + _fro(triple.delta)
        table.record("modular.delta", _fro(delta_from_s - triple.delta) / scale)
        eigs = np.linalg.eigvalsh((triple.delta + triple.delta.conj().T) / 2)
        table.record("modular.delta", max(0.0, -float(eigs.min())) / scale)

        table.record("modular.reconstruction", modular_reconstruction(triple))
        j_twisted = md.lift_operators(psi, phi).j
        table.record("modular.phase_match", modular_phase_match(triple, j_twisted))
        table.record("modular.intertwine", modular_intertwine(triple, j_twisted, phi, psi))

        fixed = md.tomita_S(psi, psi)
        vec = psi.to_vector()
        table.record(
            "modular.fixed_point",
            max(_fro(fixed.s(vec) - vec), _fro(fixed.j(vec) - vec)),
        )


SUITES = (
    matcore_suite,
    epr_suite,
    antilinear_suite,
    polar_suite,
    partner_suite,
    cloning_suite,
    crossgram_suite,
    purification_suite,
    teleport_suite,
    luders_suite,
    chain_suite,
    twisted_suite,
    modular_suite,
)


def run_all(
    seed: int = 42,
    dims=(2, 3, 4),
    trials: int = 100,
    tolerance: float | None = None,
) -> list[IdentityResult]:
    """Run every suite; returns one result per identity, worst residual over trials."""
    dims = [int(d) for d in dims]
    table = ResidualTable()
    for suite in SUITES:
        suite(table, seed, dims, range(trials))
    return table.results(tolerance)


def check_all(results: list[IdentityResult]):
    """Raise ToleranceExceeded naming the worst failing identity, if any."""
    failing = [r for r in results if not r.passed]
    if failing:
        worst = max(failing, key=lambda r: r.residual / r.tolerance)
        raise ToleranceExceeded(
            f"{len(failing)} identities out of tolerance; worst is "
            f"{worst.name} with residual {worst.residual:.3e} > {worst.tolerance:.0e}"
        )
