"""Residual suites: every analytic identity of the library re-checked on seeded random instances.

Each suite names its stream tag once and passes it, with its draw, to one
routine, _groups: trial t draws from its own sub-stream of (seed, suite
tag, t), so any reported residual is reproducible in isolation, with no
arithmetic and one generator call per run of normals; the trials are
grouped by dims and stacked in one pass, and entangled candidates are
checked for full rank on the stack and redrawn if rejected.  The suite
assembles each group with sampling's stacked assembly and evaluates each
identity once per group on value types that hold the whole stack: each
library function runs once per group, on the code path a single instance
takes.  Residuals are Frobenius norms of differences (absolute values for
scalars), one per trial; the table keeps their max and the trial that
attained it.  Tolerances are pinned per identity; passing a global
tolerance overrides all of them.

The identities the CLI subcommands check on their inputs are each computed
by one residual function below.  It takes already-built operands, single
or stacked, and returns one residual per member; the suites call it on
trial stacks and the CLI on its stack of probes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from typing import Iterable

import numpy as np

from . import antilinear as al
from . import bipartite as bp
from . import linalg as la
from . import modular as md
from . import teleport as tp
from .errors import ToleranceExceeded
from .sampling import coeff_normals, complex_from, haar, normal_count, rng_for, split_complex, trial_rngs, unit

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

BOUND_PROBES = 100  # random inputs per teleport trial that the success bound must dominate
ORACLE_DIM = 4  # modular_suite also runs the dense d²×d² oracles up to this d


@dataclass(frozen=True)
class IdentityResult:
    name: str
    residual: float
    tolerance: float
    worst: tuple | None = None  # (stream tag, trial, dims) of the residual, for suite runs

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def _rank(residual: float, origin: tuple | None = None) -> tuple:
    """Order of recorded residuals: NaN above every number, then the larger, then the one from the lower trial."""
    nan = residual != residual
    return nan, 0.0 if nan else residual, -origin[1] if origin is not None else -np.inf


class ResidualTable:
    """Running max residual per identity name, and where it was attained."""

    def __init__(self):
        self._max: dict[str, tuple[float, tuple | None]] = {}

    def record(self, name: str, values, origins=None):
        """Record one residual per member of `values`; origins holds each member's (stream tag, trial, dims).

        A NaN is kept over any number and, of equal residuals, the one from
        the lowest trial index, so the grouping of trials cannot change the max.
        """
        if name not in TOLERANCES:
            raise KeyError(f"unregistered identity {name!r}")
        v = np.atleast_1d(np.asarray(values, dtype=float))
        k = int(np.argmax(v))  # the first NaN, else the first of equal maxima; members come in trial order
        value, origin = float(v[k]), origins[k] if origins is not None else None
        if name in self._max and _rank(value, origin) <= _rank(*self._max[name]):
            return
        self._max[name] = (value, origin)

    def results(self, tolerance: float | None = None) -> list[IdentityResult]:
        return [
            IdentityResult(name, value, tolerance if tolerance is not None else TOLERANCES[name], origin)
            for name, (value, origin) in ((name, self._max[name]) for name in TOLERANCES if name in self._max)
        ]


_fro = la.fro_norm


def _dim_pairs(dims) -> list[tuple[int, int]]:
    return [(da, db) for da in dims for db in dims]


def _square_dims(dims) -> list[int]:
    return sorted(set(int(d) for d in dims))


def _vdot(x, y, axes: int = 1):
    """<x, y> over the last `axes` axes, member by member, with the bits of np.vdot."""
    x, y = np.asarray(x), np.asarray(y)
    fx = x.reshape(*x.shape[: x.ndim - axes], 1, -1)
    fy = y.reshape(*y.shape[: y.ndim - axes], -1, 1)
    return (np.conj(fx) @ fy)[..., 0, 0]


def _mv(m, v):
    """Matrix times vector, member by member."""
    return (m @ v[..., None])[..., 0]


def _outer(x, y):
    return x[..., :, None] * y[..., None, :]


def _trace(m):
    return np.trace(m, axis1=-2, axis2=-1)


def _max(*residuals):
    return reduce(np.maximum, residuals)


def _groups(table: ResidualTable, seed: int, stream: int, trials: Iterable[int], draw, entangled: bool = False):
    """One suite's trials, drawn, grouped by dims and stacked: yields (record, dims, stacks) per group.

    draw(rng, t) returns trial t's (dims, arrays) from the generator of
    (seed, stream, t).  Groups come in first-seen order, the trials of a
    group in trial order; record(name, values) enters one residual per
    member, with its (stream, trial, dims), into the table.  With entangled,
    array 0 is a first candidate coeff_normals(rng, d, d), dims (d,), checked
    by gns_check on its stack; a rejected row is overwritten by
    draw(rng_for(seed, stream, t), t, entangled=True), the checking loop on a
    fresh generator.  An accepted candidate leaves the generator where that
    loop would, so the bits are the loop's.
    """
    trials = list(trials)
    groups: dict = {}
    for t, rng in zip(trials, trial_rngs(seed, stream, trials=trials)):
        dims, arrays = draw(rng, t)
        groups.setdefault(dims, []).append((t, arrays))
    for dims, members in groups.items():
        ts, drawn = zip(*members)
        stacks = [np.array(x) for x in zip(*drawn)]
        if entangled:
            (d,) = dims
            for i in np.flatnonzero(~md.gns_check(unit(complex_from(stacks[0], d, d), 2))):
                for stack, a in zip(stacks, draw(rng_for(seed, stream, ts[i]), ts[i], entangled=True)[1], strict=True):
                    stack[i] = a
        yield partial(table.record, origins=[(stream, t, dims) for t in ts]), dims, stacks


def _complex_trials(table: ResidualTable, seed: int, stream: int, trials: Iterable[int], dims_list, shapes):
    """_groups for trials of normals only: dims_list[t % len] and one call for shapes(*dims); yields complex arrays."""
    counts = [normal_count(*shapes(*dims)) for dims in dims_list]

    def draw(rng, t):
        return dims_list[t % len(dims_list)], (rng.standard_normal(counts[t % len(dims_list)]),)

    for rec, dims, (x,) in _groups(table, seed, stream, trials, draw):
        yield rec, dims, split_complex(x, *shapes(*dims))


def epr_projection(psi, pair, omega_a, phi_a):
    """(|phi_a><phi_a| ⊗ 1) psi = phi_a ⊗ s_ba phi_a, with squared norm <phi_a, omega_a phi_a>."""
    projected = bp.project_rank1(psi, phi_a)
    return np.maximum(
        _fro(projected.coeff - _outer(phi_a, al.apply(pair.s_ba, phi_a))),
        np.abs(projected.norm() ** 2 - _vdot(phi_a, _mv(omega_a, phi_a)).real),
    )


def epr_pairing(psi, pair, phi_a, phi_b):
    """<phi_b, s_ba phi_a> = <phi_a, s_ab phi_b> = <phi_a ⊗ phi_b, psi>."""
    rhs = _vdot(la.kron(phi_a, phi_b, vectors=True), psi.to_vector())
    return np.maximum(
        np.abs(_vdot(phi_b, al.apply(pair.s_ba, phi_a)) - rhs),
        np.abs(_vdot(phi_a, al.apply(pair.s_ab, phi_b)) - rhs),
    )


def epr_inner_trace(psi, pair, chi):
    """<chi, psi> as a trace of induced maps, on either factor."""
    direct = _vdot(chi.coeff, psi.coeff, 2)
    trace_b = al.trace_product(pair.s_ba, bp.epr_maps(chi).s_ab)
    return np.maximum(np.abs(bp.inner_via_trace(chi, psi) - direct), np.abs(trace_b - direct))


def epr_reduction(psi, omega_a, omega_b):
    """The reductions against partial traces of the dense projector |psi><psi|, refused beyond DENSE_DIM_LIMIT."""
    la._check_dense(psi.dim_a * psi.dim_b, "dense oracle")
    vec = psi.to_vector()
    dense = _outer(vec, np.conj(vec))
    return np.maximum(
        _fro(omega_a - la.partial_trace(dense, psi.dim_a, psi.dim_b, "a")),
        _fro(omega_b - la.partial_trace(dense, psi.dim_a, psi.dim_b, "b")),
    )


def teleport_factorization(tm, probe):
    """Factorized channel output against the dense projection oracle."""
    return _fro(_mv(tm.t, probe) - tp.teleport_oracle(tm.source_psi, tm.ancilla_phi, probe), 1)


def teleport_bound_holds(tm, probes, bound):
    """Excess of the largest squared output norm over the success bound, on the normalized probe rows."""
    v = probes / np.linalg.norm(probes, axis=-1, keepdims=True)
    worst = np.linalg.norm(v @ tm.t.mT, axis=-1).max(axis=-1, initial=0.0) ** 2
    return np.maximum(0.0, worst - bound)


def teleport_trace_fidelity(tnf):
    """Trace norm of the channel matrix against the fidelity of the reductions."""
    return np.abs(tnf.trace_norm - tnf.fidelity)


def luders_decoupling(ch, probe):
    """Dense (P ⊗ 1_c)(probe ⊗ phi) against sum_k psi_k ⊗ t_k probe."""
    dense = tp.luders_project(ch, probe)
    factored = la.kron(ch.psis.to_vector(), _mv(ch.maps, probe[..., None, :]), vectors=True).sum(axis=-2)
    return _fro(dense - factored, 1)


def luders_op_bound(ch, bounds):
    """Excess of the operator bound over the squared ancilla norm, and its gap to the trace bound."""
    return np.maximum(
        np.maximum(0.0, bounds.op_bound - ch.ancilla_norm_sq), np.abs(bounds.op_bound - bounds.trace_bound)
    )


def chain_factorization(stages, t, probe):
    """Folded chain matrix against the dense chain oracle."""
    return _fro(_mv(t, probe) - tp.chain_oracle(probe, stages), 1)


def twisted_action(prod, eta, xi):
    """(eta ⊗̃ xi)(e_i ⊗ e_j) = (eta e_j) ⊗ (xi e_i) on all basis vectors at once.

    Column (i, j) of the operator applied to the identity is its action on
    e_i ⊗ e_j; the right-hand sides are the columns of kron(eta, xi) with the
    two column indices swapped.  Basis vectors are real, so either parity
    acts on them by its plain matrix.
    """
    eta_mat, xi_mat = (f.mat if isinstance(f, al.AntilinearMap) else f for f in (eta, xi))
    want = la.kron(eta_mat, xi_mat)
    want = want.reshape(*want.shape[:-1], prod.dim_b, prod.dim_a).swapaxes(-1, -2).reshape(want.shape)
    return np.linalg.norm(prod.mat - want, axis=-2).max(axis=-1, initial=0.0)


def twisted_reductions(fwd, bwd, phi, psi):
    """Lifts of (phi, psi) after those of (psi, phi): Delta~ Delta~' = omega_a(phi) ⊗ omega_b(psi), J J' = the supports.

    `fwd` and `bwd` are lift_operators(phi, psi) and lift_operators(psi,
    phi).  The supports are those of the states' polar parts, from the SVDs
    J's phases come from, so they share J's rank rule.
    """
    p_phi, p_psi = bp.polar_of_state(phi), bp.polar_of_state(psi)
    reductions = la.kron(bp.reduced(phi, "a"), bp.reduced(psi, "b"))
    return np.maximum(
        _fro(fwd.delta_tilde.mat @ np.conj(bwd.delta_tilde.mat) - reductions),
        _fro(fwd.j.mat @ np.conj(bwd.j.mat) - la.kron(p_phi.support_dom, p_psi.support_cod)),
    )


def twisted_polar(fwd, phi, psi):
    """The lifts of (phi, psi) are J times roots and supports of the reductions, on either side of J = fwd.j.

    Delta~ = (omega_a(phi) ⊗ omega_b(psi))^(1/2) J = J conj((omega_a(psi) ⊗
    omega_b(phi))^(1/2)), and S~ and F~ trade one root for a support.  The
    root of a Kronecker product is the Kronecker product of the roots, and
    roots and supports are the states' polar parts.
    """
    p_phi, p_psi = bp.polar_of_state(phi), bp.polar_of_state(psi)
    j = fwd.j.mat
    return _max(
        _fro(fwd.delta_tilde.mat - la.kron(p_phi.positive_dom, p_psi.positive) @ j),
        _fro(fwd.delta_tilde.mat - j @ np.conj(la.kron(p_psi.positive_dom, p_phi.positive))),
        _fro(fwd.s_tilde.mat - la.kron(p_phi.support_dom, p_psi.positive) @ j),
        _fro(fwd.s_tilde.mat - j @ np.conj(la.kron(p_psi.positive_dom, p_phi.support_cod))),
        _fro(fwd.f_tilde.mat - la.kron(p_phi.positive_dom, p_psi.support_cod) @ j),
        _fro(fwd.f_tilde.mat - j @ np.conj(la.kron(p_psi.support_dom, p_phi.positive))),
    )


def _r(*cols):
    """The 2×2 R factor of the matrix whose columns are the two vectors `cols` (last axis), member by member.

    With L = Q_L R_L and R = Q_R R_R, ||L Rᵀ||_F = ||R_L R_Rᵀ||_F, so the norm
    of a sum of two outer products comes without summing squared norms, and
    a cancellation between the two terms costs no more than rounding.
    """
    return np.linalg.qr(np.stack(cols, -1), mode="r")


def _kron_gap(f1, f2):
    """||x1 ⊗ y1 - x2 ⊗ y2||_F of two factor pairs (x, y), in O(d²) from the factors.

    Two twisted products differ by the same column permutation of these
    Kronecker products, so this also measures their difference.  The
    rearrangement x ⊗ y -> vec(x) vec(y)ᵀ keeps the Frobenius norm (Van Loan
    and Pitsianis), and the difference rearranges to the rank-two
    vec(x1 - x2) vec(y1)ᵀ + vec(x2) vec(y1 - y2)ᵀ, whose terms are small when
    the factors nearly agree.
    """
    (x1, y1), (x2, y2) = f1, f2

    def flat(m):
        return m.reshape(*m.shape[:-2], -1)

    return _fro(_r(flat(x1 - x2), flat(x2)) @ _r(flat(y1), flat(y1 - y2)).mT)


def modular_roots(phi, psi):
    """omega_a(phi)^(1/2), omega_b(psi)^(1/2) and omega_b(psi)^(-1/2), from the SVDs of C_phi and C_psi^T.

    omega_a(phi)^(1/2) and omega_b(psi)^(1/2) are the positive polar parts
    of s_ab(phi) = C_phi and s_ba(psi) = C_psi^T, and with C_psi^T = U Σ V†,
    omega_b(psi)^(-1/2) = U Σ^(-1) U†: never a square root of Delta or of a
    reduction.  The SVD of C_phi is the checks' own; that of C_psi^T, cached
    on psi's map, is the one tomita_S builds S's eta, Delta's inverse factor
    and J's phase from, the bits a second SVD would give.
    """
    root_a, root_b = al.polar(bp.epr_maps(phi).s_ab), al.polar(bp.epr_maps(psi).s_ba)
    u_b, sigma_b = root_b.svd.u, root_b.svd.sigma
    return root_a.positive, root_b.positive, (u_b / sigma_b[..., None, :]) @ u_b.conj().mT


def modular_defining(triple, phi, psi):
    """S (E_ij ⊗ 1) psi = (E_ij* ⊗ 1) phi on all d² matrix units: the worst unit's residual, from the factors.

    S = eta ⊗̃ xi maps E_ij C_psi to g_j h_iᵀ, with g_j column j of
    G = eta C_psi† and h_i row i of xi^T, against e_j f_iᵀ, f_i row i of
    C_phi.  The residual (g_j - e_j) h_iᵀ + e_j (h_i - f_i)ᵀ has rank two,
    and its norm is that of the product of the R factors of [g_j - e_j, e_j]
    and [h_i, h_i - f_i]: O(d³) for G, O(d²) for all d² units.
    """
    eta, xi = triple.s.factors
    g = eta @ psi.coeff.conj().mT
    eye = np.broadcast_to(np.eye(g.shape[-1]), g.shape)
    r_j, r_i = _r((g - eye).mT, eye), _r(xi.mT, xi.mT - phi.coeff)
    return _fro(r_j[..., None, :, :, :] @ r_i[..., :, None, :, :].mT).max(axis=(-2, -1))


def modular_delta(triple):
    """S* ∘ S = Delta and Delta >= 0, relative to 1 + ||Delta||, from the factors.

    Delta carries an inverse, so its norm is unbounded over random states;
    this dual-route residual is measured relative to it.  For S = eta ⊗̃ xi,
    S* ∘ S = (xi^T conj(xi)) ⊗ (eta^T conj(eta)), a Kronecker product like
    Delta = a ⊗ b.  The eigenvalues of Delta are those of a times those of b,
    taken from their Hermitian parts; when a or b is not exactly Hermitian
    the Hermitian part of Delta differs from that product by the product of
    their skew parts, second order in rounding for the built factors.
    """
    eta, xi = triple.s.factors
    a, b = triple.delta.factors
    gap = _kron_gap((xi.mT @ np.conj(xi), eta.mT @ np.conj(eta)), (a, b))
    w_a, w_b = (np.linalg.eigvalsh((m + m.conj().mT) / 2) for m in (a, b))
    low = (w_a[..., :, None] * w_b[..., None, :]).min(axis=(-2, -1))
    return np.maximum(gap, np.maximum(0.0, -low)) / (1.0 + _fro(a) * _fro(b))


def modular_reconstruction(triple, roots):
    """S = J Delta^(1/2), with Delta^(1/2) = omega_a(phi)^(1/2) ⊗ omega_b(psi)^(-1/2), from the factors.

    J ∘ (P ⊗ Q) = (eta_J conj(Q)) ⊗̃ (xi_J conj(P)) for linear P, Q, so both
    sides are twisted products.  `roots` is modular_roots(phi, psi).
    """
    sqrt_a, _, inv_sqrt_b = roots
    eta_j, xi_j = triple.j.factors
    return _kron_gap(triple.s.factors, (eta_j @ np.conj(inv_sqrt_b), xi_j @ np.conj(sqrt_a)))


def modular_phase_match(triple):
    """The polar phase of S, phase(eta) ⊗̃ phase(xi), against the triple's J.

    The phase of a twisted product is the twisted product of the factor
    phases; the package rank rule applies to each factor, not to the
    singular values of S, which are products of theirs.
    """
    phases = tuple(al.polar(al.AntilinearMap(f)).phase.mat for f in triple.s.factors)
    return _kron_gap(phases, triple.j.factors)


def modular_intertwine(triple, roots):
    """S (1 ⊗ omega_b(psi)^(1/2)) = J (omega_a(phi)^(1/2) ⊗ 1), from the factors.

    The roots, modular_roots(phi, psi), are the polar parts of s_ba(psi) and
    s_ab(phi); both sides are twisted products, as in modular_reconstruction.
    """
    eta, xi = triple.s.factors
    eta_j, xi_j = triple.j.factors
    sqrt_a, sqrt_b, _ = roots
    return _kron_gap((eta @ np.conj(sqrt_b), xi), (eta_j, xi_j @ np.conj(sqrt_a)))


def modular_defining_oracle(triple, phi, psi):
    """Dense oracle of modular_defining: the dense S on all d² matrix units at once.

    Row (i, j) of the unit stack is (E_ij ⊗ 1) psi, whose coefficient matrix
    holds row j of C_psi in its row i; (E_ij* ⊗ 1) phi holds row i of C_phi
    in its row j.  S acts antilinearly, so on rows it is conj(x) @ S^T.
    """
    c_phi, c_psi = phi.coeff, psi.coeff
    d = psi.dim_b
    eye = np.eye(d)
    units = (eye[:, None, :, None] * c_psi[..., None, :, None, :]).reshape(*c_psi.shape[:-2], d * d, d * d)
    want = (eye[None, :, :, None] * c_phi[..., :, None, None, :]).reshape(units.shape)
    return np.linalg.norm(np.conj(units) @ triple.s.mat.mT - want, axis=-1).max(axis=-1)


def modular_delta_oracle(triple):
    """Dense oracle of modular_delta: the dense S* ∘ S against the dense Delta and its eigenvalues."""
    s, delta = triple.s.as_antilinear(), triple.delta.mat
    gap = _fro(al.compose_aa(al.adjoint(s), s) - delta)
    eigs = np.linalg.eigvalsh((delta + delta.conj().mT) / 2)
    return np.maximum(gap, np.maximum(0.0, -eigs.min(axis=-1))) / (1.0 + _fro(delta))


def modular_reconstruction_oracle(triple, roots):
    """Dense oracle of modular_reconstruction: S against J conj(Delta^(1/2)) as d²×d² matrices."""
    sqrt_a, _, inv_sqrt_b = roots
    return _fro(triple.s.mat - triple.j.mat @ np.conj(la.kron(sqrt_a, inv_sqrt_b)))


def modular_phase_match_oracle(triple):
    """Dense oracle of modular_phase_match: the phase of the dense SVD of S, with the package rank rule."""
    return _fro(al.polar(triple.s.as_antilinear()).phase.mat - triple.j.mat)


def modular_intertwine_oracle(triple, roots):
    """Dense oracle of modular_intertwine, on d²×d² matrices."""
    sqrt_a, sqrt_b, _ = roots
    eye = np.eye(sqrt_b.shape[-1])
    return _fro(triple.s.mat @ np.conj(la.kron(eye, sqrt_b)) - triple.j.mat @ np.conj(la.kron(sqrt_a, eye)))


def matcore_suite(table: ResidualTable, seed: int, dims, trials: Iterable[int]):
    sizes = sorted(set(list(dims) + [16]))
    pairs = _dim_pairs(dims)
    head = {d: normal_count(*[(d, d)] * 4) for d in sizes}  # each count once per dims, not per trial
    tail = {(da, db): normal_count((da * db, da * db), (da, da)) for da, db in pairs}
    groups = partial(_groups, table, seed, 5, list(trials))  # two passes over each trial's stream

    def draw_square(rng, t):
        d = sizes[t % len(sizes)]
        return (d,), (rng.standard_normal(head[d]),)

    def draw_pair(rng, t):  # the normals after the square's
        d, (da, db) = sizes[t % len(sizes)], pairs[t % len(pairs)]
        return (da, db), (rng.standard_normal(head[d] + tail[da, db])[head[d] :],)

    for rec, (d,), (x,) in groups(draw_square):
        m, *psd = split_complex(x, *[(d, d)] * 4)
        h, rho, omega = (z @ z.conj().mT for z in psd)
        rec("matcore.svd_reconstruct", _fro(la.svd(m).reconstruct() - m))
        s = la.psd_sqrt(h)
        rec("matcore.psd_sqrt", _fro(s @ s - h))
        r, o = la.psd_sqrt(rho), la.psd_sqrt(omega)  # the bits of fidelity(rho, omega) and fidelity(omega, rho)
        rec("matcore.fidelity_symmetry", np.abs(la._fidelity_of(r, o) - la._fidelity_of(o, r)))
    for rec, (da, db), (x,) in groups(draw_pair):
        big, u_a = split_complex(x, (da * db, da * db), (da, da))
        big, u = big @ big.conj().mT, la.kron(haar(u_a), np.eye(db))
        moved = la.partial_trace(u @ big @ u.conj().mT, da, db, "b")
        rec("matcore.partial_trace_invariance", _fro(moved - la.partial_trace(big, da, db, "b")))


def epr_suite(table: ResidualTable, seed: int, dims, trials: Iterable[int]):
    def shapes(da, db):
        return (da, db), (da,), (db,), (da, db), (da, da), (da, da), (db, db)

    for rec, (da, _), draws in _complex_trials(table, seed, 10, trials, _dim_pairs(dims), shapes):
        c, phi_a, phi_b, chi, a_psd, a_op, b_op = draws
        c, phi_a, chi, a_psd = unit(c, 2), unit(phi_a), unit(chi, 2), a_psd @ a_psd.conj().mT
        psi = bp.BipartiteVector(c)
        pair = bp.epr_maps(psi)
        omega_a, omega_b = bp.reduced(psi, "a"), bp.reduced(psi, "b")
        rec("epr.projection", epr_projection(psi, pair, omega_a, phi_a))
        rec("epr.pairing", epr_pairing(psi, pair, phi_a, phi_b))
        rec("epr.inner_trace", epr_inner_trace(psi, pair, bp.BipartiteVector(chi)))
        rec("epr.reconstruct", _fro(bp.reconstruct(pair.s_ba, np.eye(da)).coeff - c))
        rec("epr.reconstruct", _fro(bp.reconstruct(pair.s_ba, a_psd).coeff - a_psd @ c))
        rec("epr.reduction", epr_reduction(psi, omega_a, omega_b))
        moved = bp.epr_maps(bp.local_transform(psi, a_op, b_op))
        via_maps_ba = al.compose_mixed(b_op, al.compose_mixed(a_op.conj().mT, pair.s_ba, "right"), "left")
        via_maps_ab = al.compose_mixed(a_op, al.compose_mixed(b_op.conj().mT, pair.s_ab, "right"), "left")
        rec(
            "epr.local_transform",
            np.maximum(_fro(moved.s_ba.mat - via_maps_ba.mat), _fro(moved.s_ab.mat - via_maps_ab.mat)),
        )


def antilinear_suite(table: ResidualTable, seed: int, dims, trials: Iterable[int]):
    def shapes(da, db):
        return (db, da), (da, db), (da,), (db,), (db, db), (da, da)

    for rec, _, (m1, m2, x, y, lin_cod, lin_dom) in _complex_trials(table, seed, 20, trials, _dim_pairs(dims), shapes):
        t1, t2 = al.AntilinearMap(m1), al.AntilinearMap(m2)
        rec("anti.adjoint_pairing", np.abs(_vdot(y, al.apply(t1, x)) - _vdot(x, al.apply(al.adjoint(t1), y))))
        rec("anti.involution", _fro(al.adjoint(al.adjoint(t1)).mat - t1.mat))
        rec(
            "anti.compose_adjoint",
            _fro(al.compose_aa(t1, t2).conj().mT - al.compose_aa(al.adjoint(t2), al.adjoint(t1))),
        )
        rec(
            "anti.mixed_compose",
            np.maximum(
                _fro(_mv(lin_cod, al.apply(t1, x)) - al.apply(al.compose_mixed(lin_cod, t1, "left"), x), 1),
                _fro(al.apply(t1, _mv(lin_dom, x)) - al.apply(al.compose_mixed(lin_dom, t1, "right"), x), 1),
            ),
        )
        rec("anti.trace_conjugation", np.abs(al.trace_product(t1, t2) - np.conj(al.trace_product(t2, t1))))


def polar_suite(table: ResidualTable, seed: int, dims, trials: Iterable[int]):
    pairs = _dim_pairs(dims)

    def draw(rng, t):
        """Random unit coefficient matrix; every third trial has one row zeroed (row -1: none)."""
        da, db = pairs[t % len(pairs)]
        x = rng.standard_normal(normal_count((da, db)))
        return (da, db), (x, int(rng.integers(da)) if t % 3 == 2 and da > 1 else -1)

    for rec, (da, db), (x, row) in _groups(table, seed, 30, trials, draw):
        zeroed = np.arange(da)[:, None] == np.asarray(row)[..., None, None]
        psi = bp.BipartiteVector(unit(np.where(zeroed, 0.0, complex_from(x, da, db)), 2))
        pair = bp.epr_maps(psi)
        parts, parts_ab = al.polar(pair.s_ba), al.polar(pair.s_ab)
        omega_a, omega_b = bp.reduced(psi, "a"), bp.reduced(psi, "b")
        eig_a, eig_b = la.psd_eigh(omega_a), la.psd_eigh(omega_b)  # shared by the root and support oracles
        rec(
            "polar.factorizations",
            _max(
                _fro(pair.s_ba.mat - al.compose_mixed(parts.positive, parts.phase, "left").mat),
                _fro(pair.s_ba.mat - al.compose_mixed(parts.positive_dom, parts.phase, "right").mat),
                _fro(pair.s_ab.mat - al.compose_mixed(parts_ab.positive, parts_ab.phase, "left").mat),
                _fro(pair.s_ab.mat - al.compose_mixed(parts_ab.positive_dom, parts_ab.phase, "right").mat),
                _fro(parts.positive - la._sqrt_of(*eig_b)),
                _fro(parts.positive_dom - la._sqrt_of(*eig_a)),
            ),
        )
        rec(
            "polar.supports",
            _max(
                _fro(al.compose_aa(al.adjoint(parts.phase), parts.phase) - parts.support_dom),
                _fro(al.compose_aa(parts.phase, al.adjoint(parts.phase)) - parts.support_cod),
                _fro(parts.support_dom - la._support_of(*eig_a)),
                _fro(parts.support_cod - la._support_of(*eig_b)),
            ),
        )
        conjugated = al.compose_aa(al.compose_mixed(omega_a, parts.phase, "right"), al.adjoint(parts.phase))
        rec("polar.conjugate_reduction", _fro(conjugated - omega_b))


def partner_suite(table: ResidualTable, seed: int, dims, trials: Iterable[int]):
    squares = _square_dims(dims)

    def draw(rng, t, entangled=False):
        d = squares[t % len(squares)]
        return (d,), (coeff_normals(rng, d, d, entangled), rng.standard_normal(normal_count((d, d))))

    for rec, (d,), (x_psi, x_op) in _groups(table, seed, 40, trials, draw, entangled=True):
        psi, a_op = bp.BipartiteVector(unit(complex_from(x_psi, d, d), 2)), complex_from(x_op, d, d)
        parts = bp.polar_of_state(psi)
        b_op = bp.partner_operator(a_op, parts)
        rec("partner.trace", np.abs(_trace(bp.reduced(psi, "a") @ a_op) - _trace(bp.reduced(psi, "b") @ b_op)))
        j = parts.phase.mat
        rec("partner.intertwine", _fro((b_op.conj().mT @ j - j @ np.conj(a_op)) @ np.conj(parts.support_dom)))


def cloning_suite(table: ResidualTable, seed: int, dims, trials: Iterable[int]):
    squares = _square_dims(dims)

    def draw(rng, t):
        d = squares[t % len(squares)]
        return (d,), (rng.standard_normal(normal_count((d, d), (d, d))), rng.random(d), rng.random(d))

    for rec, (d,), (x, p, q) in _groups(table, seed, 50, trials, draw):
        u_a, u_b = (haar(z) for z in split_complex(x, (d, d), (d, d)))
        diags = (np.eye(d) * np.sqrt(w / w.sum(-1, keepdims=True))[..., None, :] for w in (p + 0.05, q + 0.05))
        phi, psi = (u_a @ diag @ u_b.conj().mT for diag in diags)
        hermitian, commutator = bp.cloning_check(bp.BipartiteVector(phi), bp.BipartiteVector(psi))
        rec("cloning.commutator", np.where(hermitian, commutator, 1.0))


def crossgram_suite(table: ResidualTable, seed: int, dims, trials: Iterable[int]):
    def shapes(da, db):
        return (da, db), (da, db), (db, db)

    for rec, (da, db), (c_phi, c_psi, b_op) in _complex_trials(table, seed, 60, trials, _dim_pairs(dims), shapes):
        c_phi, c_psi = unit(c_phi, 2), unit(c_psi, 2)
        phi, psi = bp.BipartiteVector(c_phi), bp.BipartiteVector(c_psi)
        cross = bp.cross_gram(phi, psi)
        sv = np.linalg.svd(cross, compute_uv=False)
        roots = bp.polar_of_state(phi).positive_dom @ bp.polar_of_state(psi).positive_dom
        oracle = np.linalg.svd(roots, compute_uv=False)
        n = max(da, db)
        pad = [(0, 0)] * (sv.ndim - 1)
        gap = np.pad(sv, pad + [(0, n - db)]) - np.pad(oracle, pad + [(0, n - da)])
        rec("crossgram.singulars", np.abs(gap).max(axis=-1))
        rec("crossgram.trace", np.abs(_trace(cross @ b_op) - _vdot(c_psi, c_phi @ b_op.mT, 2)))


def purification_suite(table: ResidualTable, seed: int, dims, trials: Iterable[int]):
    def shapes(d):
        return (d, d), (d, d)

    squares = [(d,) for d in _square_dims(dims)]
    for rec, _, (a, w) in _complex_trials(table, seed, 70, trials, squares, shapes):
        omega = a @ a.conj().mT
        omega = omega / np.asarray(_trace(omega).real)[..., None, None]
        psi = bp.purification_from_isometry(omega, al.AntilinearMap(haar(w)))
        rec("purification.roundtrip", _fro(bp.reduced(psi, "a") - omega))


def teleport_suite(table: ResidualTable, seed: int, dims, trials: Iterable[int]):
    small = [d for d in dims if d <= 4] or [2]
    triples = [(da, db, dc) for da in small for db in small for dc in small]
    counts = {k: (normal_count(k[:2], k[1:], k[:1]), normal_count((BOUND_PROBES, k[0]))) for k in triples}

    def draw(rng, t):
        """One normal call: two states, a probe, then BOUND_PROBES rows as complex_normal_rows draws them."""
        n, rows = counts[triples[t % len(triples)]]
        x = rng.standard_normal(n + rows)
        return triples[t % len(triples)], (x[:n], x[n:].reshape(BOUND_PROBES, -1))

    for rec, (da, db, dc), (x, rows) in _groups(table, seed, 80, trials, draw):
        c_psi, c_phi, probe = split_complex(x, (da, db), (db, dc), (da,))
        tm = tp.teleport_map(bp.BipartiteVector(unit(c_psi, 2)), bp.BipartiteVector(unit(c_phi, 2)))
        rec("teleport.factorization", teleport_factorization(tm, unit(probe)))
        bound = tp.success_bound(tm)
        rec("teleport.bound_holds", teleport_bound_holds(tm, complex_from(rows, da), bound))
        rec("teleport.bound_attained", np.abs(tm.norms.operator**2 - bound))
        rec("teleport.trace_fidelity", teleport_trace_fidelity(tp.trace_norm_fidelity(tm)))


def luders_suite(table: ResidualTable, seed: int, dims, trials: Iterable[int]):
    small = [d for d in dims if d <= 3] or [2]
    pairs = [(da, db) for da in small for db in small]

    def shapes(da, db, rank):
        """The Haar basis, probe, mixing unitary and operator, then a full basis when da·db <= 6."""
        n = da * db
        return ((n, n), (da,), (rank, rank), (da, da)) + (((n, n),) if n <= 6 else ())

    def draw(rng, t):
        (da, db), dc = pairs[t % len(pairs)], small[t % len(small)]
        x_phi = rng.standard_normal(normal_count((db, dc)))
        rank = 1 + int(rng.integers(da * db))
        return (da, db, dc, rank), (x_phi, rng.standard_normal(normal_count(*shapes(da, db, rank))))

    # Channels are grouped by rank as well, so each group stacks channels of one rank.
    for rec, (da, db, dc, rank), (x_phi, x) in _groups(table, seed, 90, trials, draw):
        basis, probe, mix, nu, *full = split_complex(x, *shapes(da, db, rank))
        mix, nu = haar(mix), nu @ nu.conj().mT
        phi = bp.BipartiteVector(unit(complex_from(x_phi, db, dc), 2))
        ch = tp.luders_channel(bp.BipartiteVector(haar(basis)[..., :rank].mT.reshape(-1, rank, da, db)), phi)
        first = bp.BipartiteVector(ch.psis.coeff[..., 0, :, :])
        rec("luders.rank1", _fro(tp.luders_channel([first], phi).maps[..., 0, :, :] - tp.teleport_map(first, phi).t))
        rec("luders.decoupling", luders_decoupling(ch, unit(probe)))
        mixed = bp.BipartiteVector((mix.mT @ ch.psis.to_vector()).reshape(ch.psis.coeff.shape))
        out = tp.luders_apply(ch, nu)
        rec("luders.independence", _fro(out - tp.luders_apply(tp.luders_channel(mixed, phi), nu)))
        rec("luders.op_bound", luders_op_bound(ch, tp.luders_bounds(ch)))
        norm_sq = ch.ancilla_norm_sq
        rec("luders.trace_bound", np.maximum(0.0, _trace(out).real - norm_sq * _trace(nu).real))
        if full:
            full_basis = bp.BipartiteVector(haar(full[0]).mT.reshape(-1, da * db, da, db))
            out_full = tp.luders_apply(tp.luders_channel(full_basis, phi), nu)
            rec("luders.completeness", np.abs(_trace(out_full).real - norm_sq * _trace(nu).real))


def chain_suite(table: ResidualTable, seed: int, dims, trials: Iterable[int]):
    def shapes(*_):
        return (2, 2), (2, 2), (2, 2), (2, 2), (2,)

    for rec, _, (*coeffs, probe) in _complex_trials(table, seed, 100, trials, [(2, 2, 2, 2, 2)], shapes):
        stages = [bp.BipartiteVector(unit(c, 2)) for c in coeffs]
        rec("chain.factorization", chain_factorization(stages, tp.chain_teleport(stages), unit(probe)))


def twisted_suite(table: ResidualTable, seed: int, dims, trials: Iterable[int]):
    def shapes(d):
        return ((d, d),) * 8

    squares = [(d,) for d in _square_dims(dims)]
    for rec, _, draws in _complex_trials(table, seed, 110, trials, squares, shapes):
        m_eta, m_xi, lin_eta, lin_xi, m_eta2, m_xi2, c_phi, c_psi = draws
        eta, xi, eta2, xi2 = (al.AntilinearMap(m) for m in (m_eta, m_xi, m_eta2, m_xi2))
        prod, prod2 = md.twisted_product(eta, xi), md.twisted_product(eta2, xi2)
        lin_prod = md.twisted_product(lin_eta, lin_xi)
        rec("twisted.action", np.maximum(twisted_action(prod, eta, xi), twisted_action(lin_prod, lin_eta, lin_xi)))
        rec(
            "twisted.adjoint",
            np.maximum(
                _fro(md.twisted_adjoint(prod).mat - prod.mat.mT),
                _fro(md.twisted_adjoint(lin_prod).mat - lin_prod.mat.conj().mT),
            ),
        )
        rec("twisted.compose", _fro(prod.mat @ np.conj(prod2.mat) - md.twisted_compose(prod, prod2).mat))

        phi, psi = bp.BipartiteVector(unit(c_phi, 2)), bp.BipartiteVector(unit(c_psi, 2))
        fwd, bwd = md.lift_operators(phi, psi), md.lift_operators(psi, phi)
        # Adjoints exchange the arguments; for the mixed lifts they also swap
        # the j-factor and s-factor roles, crossing s_tilde into f_tilde.
        rec(
            "twisted.adjoint_exchange",
            _max(
                _fro(fwd.delta_tilde.mat.mT - bwd.delta_tilde.mat),
                _fro(fwd.s_tilde.mat.mT - bwd.f_tilde.mat),
                _fro(fwd.f_tilde.mat.mT - bwd.s_tilde.mat),
                _fro(fwd.j.mat.mT - bwd.j.mat),
            ),
        )

        rec("twisted.reductions", twisted_reductions(fwd, bwd, phi, psi))
        rec("twisted.polar", twisted_polar(fwd, phi, psi))


def modular_suite(table: ResidualTable, seed: int, dims, trials: Iterable[int]):
    squares = [d for d in _square_dims(dims) if d >= 2] or [2]

    def draw(rng, t, entangled=False):
        d = squares[t % len(squares)]
        return (d,), (coeff_normals(rng, d, d, entangled), coeff_normals(rng, d, d))

    for rec, (d,), (x_psi, x_phi) in _groups(table, seed, 120, trials, draw, entangled=True):
        psi, phi = (bp.BipartiteVector(unit(complex_from(x, d, d), 2)) for x in (x_psi, x_phi))
        triple, roots = md.tomita_S(phi, psi), modular_roots(phi, psi)
        # Each identity is checked by its factor route and, up to ORACLE_DIM, by its dense oracle too.
        for name, route, oracle, args in (
            ("modular.defining", modular_defining, modular_defining_oracle, (triple, phi, psi)),
            ("modular.delta", modular_delta, modular_delta_oracle, (triple,)),
            ("modular.reconstruction", modular_reconstruction, modular_reconstruction_oracle, (triple, roots)),
            ("modular.phase_match", modular_phase_match, modular_phase_match_oracle, (triple,)),
            ("modular.intertwine", modular_intertwine, modular_intertwine_oracle, (triple, roots)),
        ):
            rec(name, route(*args))
            if d <= ORACLE_DIM:
                rec(name, oracle(*args))

        own = md.tomita_S(psi, psi)
        vec = psi.to_vector()
        rec("modular.fixed_point", np.maximum(_fro(own.s(vec) - vec, 1), _fro(own.j(vec) - vec, 1)))


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
    la._check_dense(max(dims) ** 2, f"dims {max(dims)}: the dense {max(dims)}·{max(dims)} pair operator")
    table = ResidualTable()
    for suite in SUITES:
        suite(table, seed, dims, range(trials))
    return table.results(tolerance)


def check_all(results: list[IdentityResult]):
    """Raise ToleranceExceeded naming the worst failing identity, if any."""
    failing = [r for r in results if not r.passed]
    if failing:
        worst = max(failing, key=lambda r: _rank(r.residual / r.tolerance))
        raise ToleranceExceeded(
            f"{len(failing)} identities out of tolerance; worst is "
            f"{worst.name} with residual {worst.residual:.3e} > {worst.tolerance:.0e}"
        )
