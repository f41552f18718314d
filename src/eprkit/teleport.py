"""Imperfect teleportation channels and their dense-projection oracles.

A channel is specified by a measured vector psi in H_a ⊗ H_b and an ancilla
phi in H_b ⊗ H_c.  Conditioning on the rank-one measurement outcome maps an
input phi_a to t @ phi_a with the linear matrix

    t = s_phi_cb ∘ s_psi_ba

i.e. the composition of the two induced antilinear maps.  Outputs stay
subnormalized: the squared norm of t @ phi_a is the probability of the
conditioning event, and no renormalization happens anywhere in this module.

Every factorized computation here has a brute-force partner that builds the
full multipartite vector, applies the measurement projector to it on the
measured subsystems, and factors the result; the two routes agreeing is the
whole point.
"""

from __future__ import annotations

from functools import cached_property, partial, reduce
from typing import NamedTuple, Sequence

import numpy as np

from .antilinear import chain, polar
from .bipartite import BipartiteVector, _check_unit, epr_maps
from .errors import DimMismatch, FactorizationFailure, NonFinite, NotOrthonormal, NotProjection, OddParity
from .linalg import MatrixNorms, _adopt, _check_dense, _member, _out, as_matrix, as_square, as_vector, finite, fro_norm
from .linalg import herm_eigh, kron, norms, seal, value

ORTHO_TOL = 1e-10
FACTOR_TOL = 1e-8


@value
class TeleportMap:
    """Conditional input-output map of one rank-one-triggered channel (or a stack of them): its two states fix t."""

    source_psi: BipartiteVector    # measured vector in H_a ⊗ H_b
    ancilla_phi: BipartiteVector   # ancilla in H_b ⊗ H_c

    def __post_init__(self):
        psi_ab, phi_bc = self.source_psi, self.ancilla_phi
        _check_norms({"psi_ab": psi_ab, "phi_bc": phi_bc})
        if psi_ab.dim_b != phi_bc.dim_a:
            raise DimMismatch(f"shared b-dimension differs: psi_ab has {psi_ab.dim_b}, phi_bc has {phi_bc.dim_a}")

    @cached_property
    def t(self) -> np.ndarray:
        """The channel matrix s_phi_cb ∘ s_psi_ba, (..., dim_c, dim_a), built once and read-only."""
        return seal(self.ancilla_phi.coeff.mT @ np.conj(self.source_psi.coeff.mT))

    @cached_property
    def root_norms(self) -> MatrixNorms:
        """Norms of sqrt(rho) sqrt(omega), rho and omega the b-reductions of the measured vector and the ancilla.

        One SVD serves success_bound (operator norm squared) and
        trace_norm_fidelity (trace norm).  The square roots are the positive
        polar parts of the maps into H_b, from the SVDs of the coefficient
        matrices: eigh of rho would square their condition number and floor
        singular values up to 1e-6 times the largest.
        """
        _check_unit(self.source_psi.norm(), "psi_ab")
        _check_unit(self.ancilla_phi.norm(), "phi_bc")
        sqrt_rho = polar(epr_maps(self.source_psi).s_ba).positive
        sqrt_omega = polar(epr_maps(self.ancilla_phi).s_ab).positive
        return norms(sqrt_rho @ sqrt_omega)

    @cached_property
    def norms(self) -> MatrixNorms:
        """Norms of t from one SVD, shared by trace_norm_fidelity and the attained success bound."""
        return norms(self.t)


def _check_norms(states: dict[str, BipartiteVector]):
    """Raise NonFinite naming the first member of the first of {name: state} whose squared norm overflows float64."""
    for name, psi in states.items():
        if (bad := ~np.isfinite(np.asarray(psi.norm()))).any():
            raise NonFinite(f"squared norm of {_member(name, bad)[0]} is not finite")


def teleport_map(psi_ab: BipartiteVector, phi_bc: BipartiteVector) -> TeleportMap:
    """Factorized channel matrix t = s_phi_cb ∘ s_psi_ba; refuses a squared norm that overflows."""
    return TeleportMap(psi_ab, phi_bc)


def _project(full: np.ndarray, before: int, w: np.ndarray) -> np.ndarray:
    """(1 ⊗ W W† ⊗ 1) full: W's orthonormal columns act on the axes after the first `before` indices.

    Reshape and contraction instead of a D×D projector, so memory stays
    O(D); every oracle applies its measurement projectors through here.
    Stack axes of full and W broadcast.
    """
    t = full.reshape(*full.shape[:-1], before, w.shape[-2], -1)
    wh = np.conj(w).mT[..., None, :, :]
    out = w[..., None, :, :] @ (wh @ t)
    return out.reshape(*out.shape[:-3], -1)


def _factor_out(result: np.ndarray, measured: np.ndarray, dim_rest: int, what: str) -> np.ndarray:
    """Extract x from result = measured ⊗ x, checking every member's rank-one residual relative to max(1, ||result||).

    A result whose squares overflow gives a NaN or 0 ratio, which passes: the caller's identity reports the result.
    """
    r = result.reshape(*result.shape[:-1], measured.shape[-1], dim_rest)
    with np.errstate(over="ignore", invalid="ignore"):
        x = (np.conj(measured)[..., None, :] @ r)[..., 0, :]
        rank_one = fro_norm(r - measured[..., :, None] * x[..., None, :])
        residual = np.asarray(rank_one / np.maximum(1.0, fro_norm(result, 1)))
    if (residual > FACTOR_TOL).any():
        label, i = _member(what, residual > FACTOR_TOL)
        raise FactorizationFailure(f"{label}: residual {residual[i]:.3e} exceeds {FACTOR_TOL:.0e}")
    return x


def teleport_oracle(psi_ab: BipartiteVector, phi_bc: BipartiteVector, phi_a) -> np.ndarray:
    """Brute-force channel output: the one-hop case of chain_oracle.

    Builds the tripartite vector phi_a ⊗ phi_bc, applies |psi><psi| ⊗ 1_c
    by contracting psi against its a and b axes, factors the result as
    psi ⊗ phi_c, and returns phi_c.  Must agree with teleport_map; a
    factorization residual beyond tolerance means a bug.
    """
    return chain_oracle(phi_a, [psi_ab, phi_bc])


def success_bound(tm: TeleportMap):
    """Largest eigenvalue of sqrt(omega) rho sqrt(omega): the squared top singular value of sqrt(rho) sqrt(omega).

    The squared output norm of every unit input stays below this number, and
    the top right-singular vector of t attains it.
    """
    return tm.root_norms.operator ** 2


class TraceNormFidelity(NamedTuple):
    trace_norm: float
    fidelity: float


def trace_norm_fidelity(tm: TeleportMap) -> TraceNormFidelity:
    """Trace norm of t next to the fidelity of the two b-reductions.

    The two numbers are equal; they are computed along independent routes
    (singular values of t versus the trace norm of sqrt(rho) sqrt(omega)).
    """
    return TraceNormFidelity(trace_norm=tm.norms.trace, fidelity=tm.root_norms.trace)


@value
class LudersChannel:
    """Channel triggered by a projection of arbitrary rank.

    Holds an orthonormal rank-one decomposition of the projection and
    derives one factorized map per vector; the channel action and all bounds
    are invariant under the choice of decomposition.  Axis -3 of psis and
    maps is the rank axis; axes before it stack channels, one per member.
    """

    psis: BipartiteVector          # (..., rank, dim_a, dim_b)
    ancilla_phi: BipartiteVector   # (..., dim_b, dim_c)

    def __post_init__(self):
        psis, phi_bc = self.psis, self.ancilla_phi
        if psis.coeff.ndim < 3:
            raise DimMismatch(f"a stack of measured vectors needs a rank axis -3, got shape {psis.coeff.shape}")
        if psis.coeff.shape[-3] == 0:
            raise DimMismatch("need at least one measured vector")
        _check_norms({"psis": psis, "phi_bc": phi_bc})
        if psis.dim_b != phi_bc.dim_a:
            raise DimMismatch(f"shared b-dimension differs: psis have {psis.dim_b}, phi_bc has {phi_bc.dim_a}")
        flat = psis.to_vector()
        off = np.abs(flat @ flat.conj().mT - np.eye(flat.shape[-2])).max(axis=(-2, -1))
        if (off > ORTHO_TOL).any():
            raise NotOrthonormal(f"{_member('psis', off > ORTHO_TOL)[0]} are not orthonormal within 1e-10")

    @cached_property
    def maps(self) -> np.ndarray:
        """Each measured vector's t as teleport_map builds it, (..., rank, dim_c, dim_a); built once and read-only."""
        return seal(self.ancilla_phi.coeff[..., None, :, :].mT @ np.conj(self.psis.coeff.mT))

    @property
    def rank(self) -> int:
        return self.psis.coeff.shape[-3]

    @property
    def ancilla_norm_sq(self):
        return self.ancilla_phi.norm() ** 2


def luders_channel(psis: Sequence[BipartiteVector] | BipartiteVector, phi_bc: BipartiteVector) -> LudersChannel:
    """Build the channel from one ancilla and orthonormal measured vectors: a list, or a stack on axis -3."""
    if isinstance(psis, BipartiteVector):
        stack = psis.coeff
    else:
        psis = list(psis)
        for k, p in enumerate(psis):
            if (p.dim_a, p.dim_b) != (psis[0].dim_a, psis[0].dim_b):
                raise DimMismatch(f"psis[{k}] lives on {(p.dim_a, p.dim_b)}, psis[0] on {(psis[0].dim_a, psis[0].dim_b)}")
        stack = np.stack([p.coeff for p in psis], axis=-3) if psis else np.empty((0, 1, 1))  # refused on construction
    psis = _adopt(BipartiteVector, coeff=np.ascontiguousarray(stack))  # C order: each t_k has teleport_map's bits
    return LudersChannel(psis, phi_bc)


def projection_decomposition(p_op, dim_a: int, dim_b: int) -> BipartiteVector:
    """Orthonormal rank-one decomposition of a projection on H_a ⊗ H_b, stacked as (rank, dim_a, dim_b).

    Each eigenvalue must lie within ORTHO_TOL of 0 or 1; the eigenvectors of those
    above 0.5 span the range, and any orthonormal basis of it defines the same channel.
    """
    p = as_matrix(p_op, "P")
    n = dim_a * dim_b
    if p.shape != (n, n):
        raise DimMismatch(f"P must be {n} square for dims ({dim_a}, {dim_b}), got {p.shape}")
    w, v = herm_eigh(p, "P")
    if (off := np.minimum(np.abs(w), np.abs(w - 1.0))).max(initial=0.0) > ORTHO_TOL:
        raise NotProjection(f"P has eigenvalue {float(w[off.argmax()])!r}, farther than {ORTHO_TOL:.0e} from 0 and 1")
    return BipartiteVector(v[:, w > 0.5].T.reshape(-1, dim_a, dim_b))


def luders_apply(ch: LudersChannel, nu_a) -> np.ndarray:
    """Channel action on an operator: sum_k t_k nu t_k†."""
    nu = as_square(nu_a, ch.maps.shape[-1], "nu")
    return (ch.maps @ nu[..., None, :, :] @ ch.maps.conj().mT).sum(axis=-3)


class LudersBounds(NamedTuple):
    op_bound: float
    trace_bound: float


def luders_bounds(ch: LudersChannel) -> LudersBounds:
    """Norm bounds of the channel, both dominated by the squared ancilla norm.

    op_bound is the operator norm of K = sum_k t_k† t_k.  trace_bound is the
    supremum of Tr T(nu) over unit-trace PSD nu, evaluated by pushing the top
    eigenvector of K through the channel; the two routes agree.  The bound by
    ||phi||^2 (not ||phi||) is the one the norm estimate actually yields; see
    the README note on the first power.
    """
    w, v = herm_eigh((ch.maps.conj().mT @ ch.maps).sum(axis=-3), "K")
    top = np.take_along_axis(v, np.argmax(w, axis=-1)[..., None, None], axis=-1)
    trace_bound = luders_apply(ch, top @ top.conj().mT).trace(axis1=-2, axis2=-1).real
    return LudersBounds(op_bound=_out(np.maximum(w.max(axis=-1), 0.0)), trace_bound=_out(trace_bound))


def luders_project(ch: LudersChannel, phi_a) -> np.ndarray:
    """Dense (P ⊗ 1_c)(phi_a ⊗ phi_bc) for cross-checking the factorized maps.

    P is applied to the a and b axes of the tripartite vector by contraction
    with the measured vectors, through the helper and the DENSE_DIM_LIMIT
    guard of chain_oracle; phi_a may be a stack (..., dim_a) of inputs.  The
    factorized form of the same vector is sum_k psi_k ⊗ (t_k phi_a).
    """
    v_a = as_vector(phi_a, ch.psis.dim_a, "phi_a")
    _check_dense(ch.psis.dim_a * ch.psis.dim_b * ch.ancilla_phi.dim_b, "dense oracle")
    return _project(kron(v_a, ch.ancilla_phi.to_vector(), vectors=True), 1, ch.psis.to_vector().mT)


def _check_stages(stages: Sequence[BipartiteVector], dim_in: int | None = None) -> list[BipartiteVector]:
    """The stages as a list: one hop or more, an even count, each first dimension the second before it (or dim_in)."""
    stages = list(stages)
    if not stages:
        raise DimMismatch("stages holds no hop")
    if len(stages) % 2 == 1:
        raise OddParity(f"{len(stages)} stages give an antilinear composite")
    for k, (prev, s) in enumerate(zip(stages, stages[1:]), 1):
        if s.dim_a != prev.dim_b:
            raise DimMismatch(f"stages[{k}] has first dimension {s.dim_a}, stages[{k - 1}] second {prev.dim_b}")
    if dim_in is not None and stages[0].dim_a != dim_in:
        raise DimMismatch(f"stages[0] has first dimension {stages[0].dim_a}, phi_a has length {dim_in}")
    return stages


def chain_teleport(stages: Sequence[BipartiteVector]) -> np.ndarray:
    """Distributed multi-hop channel: fold the induced maps of all stages into one matrix.

    `stages` is the chain [psi_ab, phi_bc, psi_cd, phi_de, ...]: measured
    vectors at even positions, ancillae at odd ones.  An even number of
    antilinear factors gives a linear composite from the first subsystem to
    the last; an odd count (antilinear) or an overflowing squared norm is refused.
    """
    stages = _check_stages(stages)
    _check_norms({f"stages[{k}]": s for k, s in enumerate(stages)})
    return chain(epr_maps(s).s_ba for s in stages)


def chain_oracle(phi_a, stages: Sequence[BipartiteVector]) -> np.ndarray:
    """Dense (2N+1)-partite projection oracle for an N-hop chain.

    Builds the vector phi_a ⊗ phi_bc ⊗ phi_de ⊗ ..., applies each measurement
    projector |psi_k><psi_k| to its own two tensor axes by reshape and
    contraction, factors out psi_ab ⊗ psi_cd ⊗ ..., and returns the
    conditional output in the last subsystem.  It never uses the induced
    maps; memory stays O(D) in the total dimension D, which DENSE_DIM_LIMIT
    bounds.  `stages` is ordered as for chain_teleport.  phi_a may be a stack
    (..., d_1) of inputs and each stage a stacked BipartiteVector; stack axes
    broadcast.
    """
    v_a = finite(np.atleast_1d(np.asarray(phi_a, dtype=np.complex128)), "phi_a", axes=1)
    stages = _check_stages(stages, v_a.shape[-1])
    dims = [v_a.shape[-1]] + [s.dim_b for s in stages]
    _check_dense(int(np.prod(dims)), "dense oracle")
    for k, s in enumerate(stages[0::2]):
        _check_unit(s.norm(), f"measured vector stages[{2 * k}]")
    ws = [s.to_vector() for s in stages[0::2]]
    full = reduce(partial(kron, vectors=True), (s.to_vector() for s in stages[1::2]), v_a)
    for k, w in enumerate(ws):
        # axes of hop k: everything before, its two subsystems, everything after
        full = _project(full, int(np.prod(dims[: 2 * k])), w[..., :, None])
    return _factor_out(full, reduce(partial(kron, vectors=True), ws), dims[-1], "chain_oracle")
