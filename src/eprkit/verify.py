"""Residual suites: every analytic identity of the library re-checked on seeded random instances.

Each suite draws through one routine, _groups: trial t, at the dims
dims_list[t % len(dims_list)], draws one run of normal_count(*shapes(*dims))
standard normals from the sub-stream (seed, suite tag, t), the tags in
STREAMS, so (seed, tag, t, dims) and the suite's shapes alone redraw any
reported residual; the run's table seeds all 14 streams in one pass.  The
trials are grouped by dims and stacked in one pass; the six suites whose
identities hold exactly on zero-bordered operands (epr, antilinear, polar,
crossgram, teleport, luders) pad every trial within PAD_DIM into one stack,
luders splitting it by rank only for the identities whose arrays carry the
rank axis.  A suite that needs a
completely entangled state leaves the check to tomita_S, which raises
NotSeparating naming the member.  Each identity is evaluated once per
group on value types that hold the whole stack, on the code path a single
instance takes.  Residuals are Frobenius norms of differences (absolute
values for scalars, a few relative to an operand's norm where they say so),
one per trial; the table keeps their max and the trial that attained it.
Tolerances are pinned per identity; a global tolerance overrides them all.

Each CLI subcommand that checks identities on its input (epr, teleport,
luders, chain, modular) has one routine below, <family>_checks(rec, ...).
It takes the operands the subcommand reads, single or stacked, and probes,
builds each derived operand once, records each identity through rec(name,
residuals), one residual per member (the interface _groups yields), and
returns what the report needs.  The suite calls it on trial stacks with its
group's rec, the subcommand once via cli._checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from . import antilinear as al
from . import bipartite as bp
from . import linalg as la
from . import modular as md
from . import teleport as tp
from .errors import ParseError, ToleranceExceeded
from .sampling import haar, normal_count, split_complex, trial_rngs, unit

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
PAD_DIM = 4  # a padded suite stacks its trials with every d up to this one, zero-padded, as one group
# Each suite's stream tag, and matcore's pair identity's: trial t draws from the sub-stream (seed, tag, t).
STREAMS = dict(matcore=5, matcore_pair=6, epr=10, antilinear=20, polar=30, partner=40, cloning=50, crossgram=60,
               purification=70, teleport=80, luders=90, chain=100, twisted=110, modular=120)


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
    """Running max residual per identity name, and where it was attained; the run's trial generators."""

    def __init__(self):
        self._max: dict[str, tuple[float, tuple | None]] = {}
        self._rngs: tuple = (None, {})  # ((seed, trials), {stream: generators not yet handed out})

    def record(self, name: str, values, origins=None):
        """Record one residual per member of `values`; origins holds each member's (stream tag, trial, dims).

        A NaN is kept over any number and, of equal residuals, the one from
        the lowest trial index, so the grouping of trials cannot change the max.
        """
        if name not in TOLERANCES:
            raise KeyError(f"unregistered identity {name!r}")
        v = np.asarray(values, float).reshape(-1)
        k = int(v.argmax())  # the first NaN, else the first of equal maxima; members come in trial order
        value, origin = float(v[k]), origins[k] if origins is not None else None
        if name in self._max and _rank(value, origin) <= _rank(*self._max[name]):
            return
        self._max[name] = (value, origin)

    def rngs(self, seed: int, stream: int, trials) -> Iterator[np.random.Generator]:
        """rng_for(seed, stream, t) per t, built as reached; unless they wait unclaimed, seeds STREAMS in one pass."""
        if self._rngs[0] != (key := (seed, tuple(trials))) or stream not in self._rngs[1]:
            self._rngs = key, trial_rngs(seed, dict.fromkeys([*STREAMS.values(), stream]), key[1])
        return self._rngs[1].pop(stream)

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


def _outer(x, y):
    return x[..., :, None] * y[..., None, :]


def _trace(m):
    return m.trace(axis1=-2, axis2=-1)


def _max(*residuals):
    return reduce(np.maximum, residuals)


class Record(NamedTuple):
    """A group's rec: rec(name, values) enters one residual per member, with that member's origin, into the table."""
    table: ResidualTable
    origins: list  # (stream tag, trial, dims) per member, in trial order

    def __call__(self, name: str, values):
        self.table.record(name, values, self.origins)


class Pad(NamedTuple):
    dims: list  # the dims a padded suite draws, [] for none: those within PAD_DIM pad to the largest on each axis
    shapes: Callable  # shapes(*dims): the shape of each array split returns, per trial
    split: Callable  # split(dims, stacks): the stacked runs of the trials at dims as the arrays the suite reads


def _groups(table: ResidualTable, seed: int, stream: int, trials: Iterable[int], dims_list, shapes,
            padded: bool = False, pad: Pad | None = None):
    """One suite's trials, drawn, grouped and stacked: yields (rec, dims, stacks) per group.

    Trial t, at dims = dims_list[t % len(dims_list)], draws one run of
    normal_count(*shapes(*dims)) standard normals from the generator of
    (seed, stream, t), built by table.rngs.  Trials group by dims; a group's
    stacks are pad.split of its runs, by default the complex arrays of
    shapes(*dims) in order.  With padded, or a pad whose dims are the dims the
    suite draws, every trial whose dims are all within PAD_DIM joins one group
    whose dims, the target, are the largest such on each axis: a function of
    the suite's dims argument alone, so a trial replayed alone pads the same.
    Each dims' split arrays are zero-padded to pad.shapes(*target) and
    scattered, in trial order, into one C-contiguous stack per array.
    Groups come in first-seen order, the trials of a group in trial order;
    rec, a Record, holds each member's (stream, trial, real dims) as
    rec.origins and enters one residual per member into the table.
    """
    trials, members = list(trials), []
    for t, rng in zip(trials, table.rngs(seed, stream, trials)):
        dims = dims_list[t % len(dims_list)]
        members.append((t, dims, (rng.standard_normal(normal_count(*shapes(*dims))),)))
    pad = pad or Pad(dims_list if padded else [], shapes, lambda dims, x: split_complex(x[0], *shapes(*dims)))
    yield from _stack(table, stream, members, pad)


def _stack(table: ResidualTable, stream: int, members, pad: Pad):
    """_groups' grouping and stacking of drawn members (t, dims, arrays), given in trial order."""
    small = [d for d in pad.dims if max(d) <= PAD_DIM]
    groups, target = {}, tuple(map(max, zip(*small))) if small else None
    for t, dims, arrays in members:
        groups.setdefault(target if target and max(dims) <= PAD_DIM else dims, []).append((t, dims, arrays))
    for key, members in groups.items():
        stacks, origins = None, [(stream, t, dims) for t, dims, _ in members]
        for dims in dict.fromkeys(o[2] for o in origins):
            at = [i for i, o in enumerate(origins) if o[2] == dims]
            parts = pad.split(dims, [np.array(x) for x in zip(*(members[i][2] for i in at))])
            if dims == key and len(at) == len(members):  # nothing to pad
                stacks = parts
            else:
                stacks = stacks or [np.zeros((len(members), *s), p.dtype) for s, p in zip(pad.shapes(*key), parts)]
                for out, p in zip(stacks, parts):
                    out[(at, *map(slice, p.shape[1:]))] = p
        yield Record(table, origins), key, stacks


def epr_checks(rec, state, phi_a, phi_b, chi):
    """The epr subcommand's identities on state, probes phi_a and phi_b and coefficients chi; returns the reductions.

    projection: (|phi_a><phi_a| ⊗ 1) state = phi_a ⊗ s_ba phi_a, with squared
    norm <phi_a, omega_a phi_a>; pairing: <phi_b, s_ba phi_a> = <phi_a, s_ab
    phi_b> = <phi_a ⊗ phi_b, state>; inner_trace: <chi, state> as a trace of
    induced maps, on either factor; reduction: the reductions against partial
    traces of the dense projector |state><state|, refused beyond DENSE_DIM_LIMIT.
    """
    omega_a, omega_b = bp.reduced(state, "a", "state"), bp.reduced(state, "b", "state")
    projected = bp.project_rank1(state, phi_a)
    shape = _fro(projected.coeff - _outer(phi_a, al.apply(state.s_ba, phi_a)))
    norm_sq = np.abs(projected.norm() ** 2 - np.vecdot(phi_a, np.matvec(omega_a, phi_a)).real)
    rec("epr.projection", np.maximum(shape, norm_sq))
    vec = state.to_vector()
    rhs = np.vecdot(la.kron(phi_a, phi_b, vectors=True), vec)
    via_ba, via_ab = np.vecdot(phi_b, al.apply(state.s_ba, phi_a)), np.vecdot(phi_a, al.apply(state.s_ab, phi_b))
    rec("epr.pairing", np.maximum(np.abs(via_ba - rhs), np.abs(via_ab - rhs)))
    chi = bp.BipartiteVector(chi)
    direct = np.vecdot(chi.to_vector(), vec)
    trace_b = al.trace_product(state.s_ba, chi.s_ab)
    rec("epr.inner_trace", np.maximum(np.abs(bp.inner_via_trace(chi, state) - direct), np.abs(trace_b - direct)))
    la._check_dense(state.dim_a * state.dim_b, "dense oracle")
    dense = _outer(vec, np.conj(vec))
    on_a, on_b = (la.partial_trace(dense, state.dim_a, state.dim_b, side) for side in "ab")
    rec("epr.reduction", np.maximum(_fro(omega_a - on_a), _fro(omega_b - on_b)))
    return omega_a, omega_b


def teleport_checks(rec, psi_ab, phi_bc, probe):
    """The teleport subcommand's identities on tm = teleport_map(psi_ab, phi_bc) and a probe.

    factorization: the factorized output against the dense projection
    oracle; trace_fidelity: the trace norm of tm.t against the fidelity of
    the reductions.  Returns tm, success_bound(tm) and trace_norm_fidelity(tm).
    """
    tm = tp.teleport_map(psi_ab, phi_bc)
    bound = tp.success_bound(tm)  # first, so a non-unit psi_ab is named psi_ab, not "measured vector stages[0]"
    rec("teleport.factorization", _fro(np.matvec(tm.t, probe) - tp.teleport_oracle(psi_ab, phi_bc, probe), 1))
    tnf = tp.trace_norm_fidelity(tm)
    rec("teleport.trace_fidelity", np.abs(tnf.trace_norm - tnf.fidelity))
    return tm, bound, tnf


def teleport_bound_holds(tm, probes, bound):
    """Excess of the largest squared output norm over the success bound, on the normalized probe rows."""
    out = (probes / np.linalg.norm(probes, axis=-1, keepdims=True)) @ tm.t.mT
    return np.maximum(0.0, np.linalg.norm(out, axis=-1).max(axis=-1, initial=0.0) ** 2 - bound)


def luders_checks(rec, psis, phi_bc, probe):
    """The luders subcommand's identities on ch = luders_channel(psis, phi_bc) and a probe; returns ch and its bounds.

    decoupling: dense (P ⊗ 1_c)(probe ⊗ phi) against sum_k psi_k ⊗ t_k probe;
    op_bound: excess of the operator bound over the squared ancilla norm, and
    its gap to the trace bound.
    """
    ch = tp.luders_channel(psis, phi_bc)
    bounds = tp.luders_bounds(ch)
    dense = tp.luders_project(ch, probe)
    factored = la.kron(ch.psis.to_vector(), np.matvec(ch.maps, probe[..., None, :]), vectors=True).sum(axis=-2)
    rec("luders.decoupling", _fro(dense - factored, 1))
    excess = np.maximum(0.0, bounds.op_bound - ch.ancilla_norm_sq)
    rec("luders.op_bound", np.maximum(excess, np.abs(bounds.op_bound - bounds.trace_bound)))
    return ch, bounds


def chain_checks(rec, stages, probe):
    """The chain subcommand's identity: t = chain_teleport(stages) on probe against the dense oracle; returns t."""
    t = tp.chain_teleport(stages)
    rec("chain.factorization", _fro(np.matvec(t, probe) - tp.chain_oracle(probe, stages), 1))
    return t


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

    with np.errstate(over="ignore", invalid="ignore"):  # factors past float64's range give inf or NaN, as in fro_norm
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
    root_a, root_b = al.polar(phi.s_ab), al.polar(psi.s_ba)
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


def _relative(residual, *norms):
    """residual / (1 + the product of the norms), NaN where that scale overflows: no residual could show over it."""
    with np.errstate(over="ignore", invalid="ignore"):
        scale = 1.0 + reduce(np.multiply, norms)
        return np.where(np.isfinite(scale), residual / scale, np.nan)


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
    with np.errstate(over="ignore", invalid="ignore"):
        w_a, w_b = (np.linalg.eigvalsh((m + m.conj().mT) / 2) for m in (a, b))
    low = (w_a[..., :, None] * w_b[..., None, :]).min(axis=(-2, -1))
    return _relative(np.maximum(gap, np.maximum(0.0, -low)), _fro(a), _fro(b))


def modular_reconstruction(triple, roots):
    """S = J Delta^(1/2), with Delta^(1/2) = omega_a(phi)^(1/2) ⊗ omega_b(psi)^(-1/2), relative to 1 + ||S||_F.

    J ∘ (P ⊗ Q) = (eta_J conj(Q)) ⊗̃ (xi_J conj(P)) for linear P, Q, so both
    sides are twisted products; storing S in float64 alone errs by about
    u·||S||_F = u·||eta||_F ||xi||_F.  `roots` is modular_roots(phi, psi).
    """
    sqrt_a, _, inv_sqrt_b = roots
    (eta, xi), (eta_j, xi_j) = triple.s.factors, triple.j.factors
    return _relative(_kron_gap((eta, xi), (eta_j @ np.conj(inv_sqrt_b), xi_j @ np.conj(sqrt_a))), _fro(eta), _fro(xi))


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


def modular_checks(rec, phi, psi):
    """The identities of the modular subcommand: the factor routes above; returns tomita_S(phi, psi) and its roots."""
    triple, roots = md.tomita_S(phi, psi), modular_roots(phi, psi)
    rec("modular.defining", modular_defining(triple, phi, psi))
    rec("modular.delta", modular_delta(triple))
    rec("modular.reconstruction", modular_reconstruction(triple, roots))
    rec("modular.phase_match", modular_phase_match(triple))
    rec("modular.intertwine", modular_intertwine(triple, roots))
    return triple, roots


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
    return _relative(np.maximum(gap, np.maximum(0.0, -eigs.min(axis=-1))), _fro(delta))


def modular_reconstruction_oracle(triple, roots):
    """Dense oracle of modular_reconstruction: S against J conj(Delta^(1/2)) as d²×d² matrices, relative alike."""
    sqrt_a, _, inv_sqrt_b = roots
    return _relative(_fro(triple.s.mat - triple.j.mat @ np.conj(la.kron(sqrt_a, inv_sqrt_b))), _fro(triple.s.mat))


def modular_phase_match_oracle(triple):
    """Dense oracle of modular_phase_match: the phase of the dense SVD of S, with the package rank rule."""
    return _fro(al.polar(triple.s.as_antilinear()).phase.mat - triple.j.mat)


def modular_intertwine_oracle(triple, roots):
    """Dense oracle of modular_intertwine, on d²×d² matrices."""
    sqrt_a, sqrt_b, _ = roots
    eye = np.eye(sqrt_b.shape[-1])
    return _fro(triple.s.mat @ np.conj(la.kron(eye, sqrt_b)) - triple.j.mat @ np.conj(la.kron(sqrt_a, eye)))


def matcore_suite(table: ResidualTable, seed: int, dims, trials: Iterable[int]):
    trials, squares = list(trials), [(d,) for d in sorted(set(list(dims) + [16]))]
    for rec, _, (m, *psd) in _groups(table, seed, STREAMS["matcore"], trials, squares, lambda d: ((d, d),) * 4):
        h, rho, omega = (z @ z.conj().mT for z in psd)
        rec("matcore.svd_reconstruct", _fro(la.svd(m).reconstruct() - m))
        s = la.psd_sqrt(h)
        rec("matcore.psd_sqrt", _fro(s @ s - h))
        r, o = la.psd_sqrt(rho), la.psd_sqrt(omega)  # the bits of fidelity(rho, omega) and fidelity(omega, rho)
        rec("matcore.fidelity_symmetry", np.abs(la._fidelity_of(r, o) - la._fidelity_of(o, r)))
    pairs, shapes = _dim_pairs(dims), lambda da, db: ((da * db, da * db), (da, da))
    for rec, (da, db), (big, u_a) in _groups(table, seed, STREAMS["matcore_pair"], trials, pairs, shapes):
        big, u = big @ big.conj().mT, la.kron(haar(u_a), np.eye(db))
        moved = la.partial_trace(u @ big @ u.conj().mT, da, db, "b")
        # relative to the Gram matrix: the rounding of u @ big @ u† grows with ||big||_F, ~n^1.5 at n = d_a·d_b
        rec("matcore.partial_trace_invariance", _fro(moved - la.partial_trace(big, da, db, "b")) / _fro(big))


def epr_suite(table: ResidualTable, seed: int, dims, trials: Iterable[int]):
    def shapes(da, db):
        return (da, db), (da,), (db,), (da, db), (da, da), (da, da), (db, db)

    groups = _groups(table, seed, STREAMS["epr"], trials, _dim_pairs(dims), shapes, padded=True)
    for rec, (da, _), draws in groups:
        c, phi_a, phi_b, chi, a_psd, a_op, b_op = draws
        c, phi_a, chi, a_psd = unit(c, 2), unit(phi_a), unit(chi, 2), a_psd @ a_psd.conj().mT
        psi = bp.BipartiteVector(c)
        epr_checks(rec, psi, phi_a, phi_b, chi)
        rec("epr.reconstruct", _fro(bp.reconstruct(psi.s_ba, np.eye(da)).coeff - c))
        rec("epr.reconstruct", _fro(bp.reconstruct(psi.s_ba, a_psd).coeff - a_psd @ c))
        moved = bp.local_transform(psi, a_op, b_op)
        via_maps_ba = al.compose_mixed(b_op, al.compose_mixed(a_op.conj().mT, psi.s_ba, "right"), "left")
        via_maps_ab = al.compose_mixed(a_op, al.compose_mixed(b_op.conj().mT, psi.s_ab, "right"), "left")
        rec(
            "epr.local_transform",
            np.maximum(_fro(moved.s_ba.mat - via_maps_ba.mat), _fro(moved.s_ab.mat - via_maps_ab.mat)),
        )


def antilinear_suite(table: ResidualTable, seed: int, dims, trials: Iterable[int]):
    def shapes(da, db):
        return (db, da), (da, db), (da,), (db,), (db, db), (da, da)

    draws = _groups(table, seed, STREAMS["antilinear"], trials, _dim_pairs(dims), shapes, padded=True)
    for rec, _, (m1, m2, x, y, lin_cod, lin_dom) in draws:
        t1, t2 = al.AntilinearMap(m1), al.AntilinearMap(m2)
        rec("anti.adjoint_pairing", np.abs(np.vecdot(y, al.apply(t1, x)) - np.vecdot(x, al.apply(al.adjoint(t1), y))))
        rec("anti.involution", _fro(al.adjoint(al.adjoint(t1)).mat - t1.mat))  # 0.0: two transposes are exact
        # 0.0 at the default dims, padded to d = 4: both sides form the same entry products, conjugate to
        # each other, and at that size numpy's OpenBLAS 0.3.31 sums them in one order; d_b < 4 reads ~1e-15
        rec(
            "anti.compose_adjoint",
            _fro(al.compose_aa(t1, t2).conj().mT - al.compose_aa(al.adjoint(t2), al.adjoint(t1))),
        )
        rec(
            "anti.mixed_compose",
            np.maximum(
                _fro(np.matvec(lin_cod, al.apply(t1, x)) - al.apply(al.compose_mixed(lin_cod, t1, "left"), x), 1),
                _fro(al.apply(t1, np.matvec(lin_dom, x)) - al.apply(al.compose_mixed(lin_dom, t1, "right"), x), 1),
            ),
        )
        rec("anti.trace_conjugation", np.abs(al.trace_product(t1, t2) - np.conj(al.trace_product(t2, t1))))


def polar_suite(table: ResidualTable, seed: int, dims, trials: Iterable[int]):
    groups = _groups(table, seed, STREAMS["polar"], trials, _dim_pairs(dims), lambda da, db: ((da, db),), padded=True)
    for rec, (da, _), (c,) in groups:
        # a random unit coefficient matrix; trial t = 2 mod 3 with d_a > 1 zeroes its row t // 3 mod d_a (-1: none)
        rows = [t // 3 % a if t % 3 == 2 and a > 1 else -1 for _, t, (a, _) in rec.origins]
        zeroed = np.arange(da)[:, None] == np.reshape(rows, np.shape(c)[:-2])[..., None, None]
        psi = bp.BipartiteVector(unit(np.where(zeroed, 0.0, c), 2))
        parts, parts_ab = al.polar(psi.s_ba), al.polar(psi.s_ab)
        omega_a, omega_b = bp.reduced(psi, "a"), bp.reduced(psi, "b")
        eig_a, eig_b = la.psd_eigh(omega_a), la.psd_eigh(omega_b)  # shared by the root and support oracles
        rec(
            "polar.factorizations",
            _max(
                _fro(psi.s_ba.mat - al.compose_mixed(parts.positive, parts.phase, "left").mat),
                _fro(psi.s_ba.mat - al.compose_mixed(parts.positive_dom, parts.phase, "right").mat),
                _fro(psi.s_ab.mat - al.compose_mixed(parts_ab.positive, parts_ab.phase, "left").mat),
                _fro(psi.s_ab.mat - al.compose_mixed(parts_ab.positive_dom, parts_ab.phase, "right").mat),
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
    squares, shapes = [(d,) for d in _square_dims(dims)], lambda d: ((d, d), (d, d))
    for rec, _, (c_psi, a_op) in _groups(table, seed, STREAMS["partner"], trials, squares, shapes):
        psi = bp.BipartiteVector(unit(c_psi, 2))
        parts = bp.polar_of_state(psi)
        b_op = bp.partner_operator(a_op, parts)
        rec("partner.trace", np.abs(_trace(bp.reduced(psi, "a") @ a_op) - _trace(bp.reduced(psi, "b") @ b_op)))
        j = parts.phase.mat
        rec("partner.intertwine", _fro((b_op.conj().mT @ j - j @ np.conj(a_op)) @ np.conj(parts.support_dom)))


def cloning_suite(table: ResidualTable, seed: int, dims, trials: Iterable[int]):
    squares, shapes = [(d,) for d in _square_dims(dims)], lambda d: ((d, d), (d, d), (d,), (d,))
    for rec, (d,), (a, b, p, q) in _groups(table, seed, STREAMS["cloning"], trials, squares, shapes):
        u_a, u_b, weights = haar(a), haar(b), (np.abs(z) + 0.05 for z in (p, q))
        diags = (np.eye(d) * np.sqrt(w / w.sum(-1, keepdims=True))[..., None, :] for w in weights)
        phi, psi = (u_a @ diag @ u_b.conj().mT for diag in diags)
        hermitian, commutator = bp.cloning_check(bp.BipartiteVector(phi), bp.BipartiteVector(psi))
        rec("cloning.commutator", np.where(hermitian, commutator, 1.0))


def crossgram_suite(table: ResidualTable, seed: int, dims, trials: Iterable[int]):
    def shapes(da, db):
        return (da, db), (da, db), (db, db)

    draws = _groups(table, seed, STREAMS["crossgram"], trials, _dim_pairs(dims), shapes, padded=True)
    for rec, (da, db), (c_phi, c_psi, b_op) in draws:
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
        vec = psi.to_vector()
        rec("crossgram.trace", np.abs(_trace(cross @ b_op) - np.vecdot(vec, (c_phi @ b_op.mT).reshape(vec.shape))))


def purification_suite(table: ResidualTable, seed: int, dims, trials: Iterable[int]):
    squares, shapes = [(d,) for d in _square_dims(dims)], lambda d: ((d, d), (d, d))
    for rec, _, (a, w) in _groups(table, seed, STREAMS["purification"], trials, squares, shapes):
        omega = a @ a.conj().mT
        omega = omega / np.asarray(_trace(omega).real)[..., None, None]
        psi = bp.purification_from_isometry(omega, al.AntilinearMap(haar(w)))
        rec("purification.roundtrip", _fro(bp.reduced(psi, "a") - omega))


def teleport_suite(table: ResidualTable, seed: int, dims, trials: Iterable[int]):
    small = [d for d in dims if d <= 4] or [2]
    triples = [(da, db, dc) for da in small for db in small for dc in small]

    def shapes(da, db, dc):
        return (da, db), (db, dc), (da,), (BOUND_PROBES, da)

    groups = _groups(table, seed, STREAMS["teleport"], trials, triples, shapes, padded=True)
    for rec, _, (c_psi, c_phi, probe, rows) in groups:
        psi, phi = bp.BipartiteVector(unit(c_psi, 2)), bp.BipartiteVector(unit(c_phi, 2))
        tm, bound, _ = teleport_checks(rec, psi, phi, unit(probe))
        # 0.0 while the bound holds: the excess is one-sided, so only a bound cut below the probes' norms shows
        rec("teleport.bound_holds", teleport_bound_holds(tm, rows, bound))
        rec("teleport.bound_attained", np.abs(tm.norms.operator**2 - bound))


def luders_suite(table: ResidualTable, seed: int, dims, trials: Iterable[int]):
    small = [d for d in dims if d <= 3] or [2]
    combos = [(da, db, small[k % len(small)]) for k, (da, db) in enumerate(_dim_pairs(small))]

    def layout(da, db, dc):
        """One run: the ancilla, Haar basis, probe, mixing block and operator."""
        return (db, dc), (da * db, da * db), (da,), (da * db, da * db), (da, da)

    def shapes(da, db, dc):
        """Ancilla, basis, probe, mixing block, operator, completeness residual."""
        return (db, dc), (da * db, da, db), (da,), (da * db, da * db), (da, da), ()

    def split(k, stacks):
        """The arrays at the trial's dims, and completeness there: zero vectors would pad no basis on the rank axis."""
        da, db, _ = k
        c_phi, basis, probe, mix, nu = split_complex(stacks[0], *layout(*k))
        phi, psis = bp.BipartiteVector(unit(c_phi, 2)), haar(basis).mT.reshape(-1, da * db, da, db)
        nu = nu @ nu.conj().mT
        ch = tp.luders_channel(bp.BipartiteVector(psis), phi)
        complete = np.abs(_trace(tp.luders_apply(ch, nu)).real - phi.norm() ** 2 * _trace(nu).real)
        return phi.coeff, psis, unit(probe), mix, nu, complete

    # One padded group, split by rank where the rank axis enters; origins carry (da, db, dc, rank).
    groups = _groups(table, seed, STREAMS["luders"], trials, combos, layout, pad=Pad(combos, shapes, split))
    for rec, _, (c_phi, psis, probe, mix, nu, complete) in groups:
        # trial t's rank cycles through 1 ... d_a·d_b over the trials at its dims
        rank = np.reshape([1 + t // len(combos) % (d[0] * d[1]) for _, t, d in rec.origins], np.shape(complete))
        origins = [(s, t, (*d, int(r))) for (s, t, d), r in zip(rec.origins, np.ravel(rank))]
        table.record("luders.completeness", complete, origins)
        for r in sorted(set(np.ravel(rank).tolist())):
            sel = rank == r if rank.ndim else ...  # a single trial's arrays are taken whole
            rec = Record(table, [o for o in origins if o[2][3] == r])
            psis_r, phi = bp.BipartiteVector(psis[sel][..., :r, :, :]), bp.BipartiteVector(c_phi[sel])
            ch, _ = luders_checks(rec, psis_r, phi, probe[sel])
            mix_r, nu_r = haar(mix[sel][..., :r, :r]), nu[sel]
            mixed = bp.BipartiteVector((mix_r.mT @ ch.psis.to_vector()).reshape(ch.psis.coeff.shape))
            out = tp.luders_apply(ch, nu_r)
            rec("luders.independence", _fro(out - tp.luders_apply(tp.luders_channel(mixed, ch.ancilla_phi), nu_r)))
            rec("luders.trace_bound", np.maximum(0.0, _trace(out).real - ch.ancilla_norm_sq * _trace(nu_r).real))


def chain_suite(table: ResidualTable, seed: int, dims, trials: Iterable[int]):
    def shapes(*_):
        return (2, 2), (2, 2), (2, 2), (2, 2), (2,)

    for rec, _, (*coeffs, probe) in _groups(table, seed, STREAMS["chain"], trials, [(2, 2, 2, 2, 2)], shapes):
        stages = [bp.BipartiteVector(unit(c, 2)) for c in coeffs]
        chain_checks(rec, stages, unit(probe))


def twisted_suite(table: ResidualTable, seed: int, dims, trials: Iterable[int]):
    def shapes(d):
        return ((d, d),) * 8

    squares = [(d,) for d in _square_dims(dims)]
    for rec, _, draws in _groups(table, seed, STREAMS["twisted"], trials, squares, shapes):
        m_eta, m_xi, lin_eta, lin_xi, m_eta2, m_xi2, c_phi, c_psi = draws
        eta, xi, eta2, xi2 = (al.AntilinearMap(m) for m in (m_eta, m_xi, m_eta2, m_xi2))
        prod, prod2 = md.twisted_product(eta, xi), md.twisted_product(eta2, xi2)
        lin_prod = md.twisted_product(lin_eta, lin_xi)
        # 0.0: the action and prod.mat form the same entry products eta[i, q]·xi[k, p], exactly
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
    squares, shapes = [(d,) for d in _square_dims(dims) if d >= 2] or [(2,)], lambda d: ((d, d), (d, d))
    for rec, (d,), coeffs in _groups(table, seed, STREAMS["modular"], trials, squares, shapes):
        psi, phi = (bp.BipartiteVector(unit(c, 2)) for c in coeffs)
        triple, roots = modular_checks(rec, phi, psi)
        if d <= ORACLE_DIM:  # each factor route's dense oracle
            rec("modular.defining", modular_defining_oracle(triple, phi, psi))
            rec("modular.delta", modular_delta_oracle(triple))
            rec("modular.reconstruction", modular_reconstruction_oracle(triple, roots))
            rec("modular.phase_match", modular_phase_match_oracle(triple))
            rec("modular.intertwine", modular_intertwine_oracle(triple, roots))

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


def check_arguments(seed: int, dims, trials: int, tolerance: float | None):
    """Refuse with ParseError, in this order, what every eprkit subcommand and run_all refuse."""
    if trials < 1:
        raise ParseError(f"trials must be >= 1, got {trials}")
    if tolerance is not None and not 0 < tolerance < np.inf:  # Infinity is no strict JSON
        raise ParseError(f"tolerance must be positive and finite, got {tolerance}")
    if min(dims, default=0) < 1:  # no dims at all too
        raise ParseError("dimensions must be positive")
    if seed < 0:
        raise ParseError(f"seed must be non-negative, got {seed}")


def run_all(
    seed: int = 42,
    dims=(2, 3, 4),
    trials: int = 100,
    tolerance: float | None = None,
) -> list[IdentityResult]:
    """Run every suite; returns one result per identity, worst residual over trials."""
    dims = [int(d) for d in dims]
    check_arguments(seed, dims, trials, tolerance)
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
