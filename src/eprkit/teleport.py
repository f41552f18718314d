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

from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple, Sequence

import numpy as np

from .antilinear import chain, polar
from .bipartite import BipartiteVector, epr_maps, reduced
from .errors import (
    DimMismatch,
    DimTooLarge,
    FactorizationFailure,
    NotOrthonormal,
    NotUnit,
    OddParity,
)
from .linalg import as_matrix, frozen, herm_eigh, kron, psd_sqrt, trace_norm

UNIT_TOL = 1e-10
ORTHO_TOL = 1e-10
FACTOR_TOL = 1e-8
DENSE_DIM_LIMIT = 4096


@dataclass(frozen=True)
class TeleportMap:
    """Conditional input-output map of one rank-one-triggered channel."""

    t: np.ndarray                  # (dim_c, dim_a)
    source_psi: BipartiteVector    # measured vector in H_a ⊗ H_b
    ancilla_phi: BipartiteVector   # ancilla in H_b ⊗ H_c

    def __post_init__(self):
        object.__setattr__(self, "t", frozen(self.t))


def teleport_map(psi_ab: BipartiteVector, phi_bc: BipartiteVector) -> TeleportMap:
    """Factorized channel matrix t = s_phi_cb ∘ s_psi_ba."""
    if psi_ab.dim_b != phi_bc.dim_a:
        raise DimMismatch(
            f"shared b-dimension differs: psi has {psi_ab.dim_b}, ancilla has {phi_bc.dim_a}"
        )
    t = phi_bc.coeff.T @ np.conj(psi_ab.coeff.T)
    return TeleportMap(t=t, source_psi=psi_ab, ancilla_phi=phi_bc)


def _factor_out(result: np.ndarray, measured: np.ndarray, dim_rest: int, what: str) -> np.ndarray:
    """Extract x from result = measured ⊗ x, checking the rank-one residual."""
    r = result.reshape(measured.shape[0], dim_rest)
    x = np.conj(measured) @ r
    residual = float(np.linalg.norm(r - np.outer(measured, x)))
    if residual > FACTOR_TOL:
        raise FactorizationFailure(f"{what}: residual {residual:.3e} exceeds {FACTOR_TOL:.0e}")
    return x


def teleport_oracle(psi_ab: BipartiteVector, phi_bc: BipartiteVector, phi_a) -> np.ndarray:
    """Brute-force channel output: the one-hop case of chain_oracle.

    Builds the tripartite vector phi_a ⊗ phi_bc, applies |psi><psi| ⊗ 1_c
    by contracting psi against its a and b axes, factors the result as
    psi ⊗ phi_c, and returns phi_c.  Must agree with teleport_map; a
    factorization residual beyond tolerance means a bug.
    """
    return chain_oracle(phi_a, [psi_ab, phi_bc])


def _unit_state(psi: BipartiteVector, what: str):
    n = psi.norm()
    if abs(n - 1.0) > UNIT_TOL:
        raise NotUnit(f"{what} has norm {n!r}, expected 1")


def success_bound(tm: TeleportMap) -> float:
    """Largest eigenvalue of sqrt(omega) rho sqrt(omega) on the shared system.

    rho and omega are the b-reductions of the measured vector and of the
    ancilla.  The squared output norm of every unit input stays below this
    number, and the top right-singular vector of t attains it.
    """
    _unit_state(tm.source_psi, "measured vector")
    _unit_state(tm.ancilla_phi, "ancilla")
    rho = reduced(tm.source_psi, "b")
    omega = reduced(tm.ancilla_phi, "a")  # ancilla lives in H_b ⊗ H_c; first factor is b
    s = psd_sqrt(omega)
    w, _ = herm_eigh(s @ rho @ s)
    return float(max(w.max(), 0.0))


class TraceNormFidelity(NamedTuple):
    trace_norm: float
    fidelity: float


def trace_norm_fidelity(tm: TeleportMap) -> TraceNormFidelity:
    """Trace norm of t next to the fidelity of the two b-reductions.

    The two numbers are equal; they are computed along independent routes
    (singular values of t versus the reduction fidelity).  The square roots
    of the reductions rho = omega_b(psi) and omega = omega_b(phi) are the
    positive polar parts of the maps into H_b, i.e. they come from the SVDs
    of the coefficient matrices: eigh of rho would square their condition
    number and floor singular values up to 1e-6 times the largest.
    """
    _unit_state(tm.source_psi, "measured vector")
    _unit_state(tm.ancilla_phi, "ancilla")
    tn = float(np.linalg.svd(tm.t, compute_uv=False).sum())
    sqrt_rho = polar(epr_maps(tm.source_psi).s_ba).positive
    sqrt_omega = polar(epr_maps(tm.ancilla_phi).s_ab).positive
    return TraceNormFidelity(trace_norm=tn, fidelity=trace_norm(sqrt_rho @ sqrt_omega))


@dataclass(frozen=True)
class LudersChannel:
    """Channel triggered by a projection of arbitrary rank.

    Holds one factorized map per vector of an orthonormal rank-one
    decomposition of the projection; the channel action and all bounds are
    invariant under the choice of decomposition.
    """

    maps: tuple[np.ndarray, ...]
    psis: tuple[BipartiteVector, ...]
    ancilla_phi: BipartiteVector

    def __post_init__(self):
        object.__setattr__(self, "maps", tuple(frozen(t) for t in self.maps))

    @property
    def rank(self) -> int:
        return len(self.maps)

    @property
    def ancilla_norm_sq(self) -> float:
        return float(self.ancilla_phi.norm() ** 2)


def luders_channel(psis: Sequence[BipartiteVector], phi_bc: BipartiteVector) -> LudersChannel:
    """Build the channel from orthonormal measured vectors and one ancilla."""
    psis = tuple(psis)
    if not psis:
        raise DimMismatch("need at least one measured vector")
    da, db = psis[0].dim_a, psis[0].dim_b
    for p in psis:
        if (p.dim_a, p.dim_b) != (da, db):
            raise DimMismatch("measured vectors live on different spaces")
    if db != phi_bc.dim_a:
        raise DimMismatch(
            f"shared b-dimension differs: measured vectors have {db}, ancilla has {phi_bc.dim_a}"
        )
    flat = np.stack([p.to_vector() for p in psis])
    gram = flat @ flat.conj().T
    if np.abs(gram - np.eye(len(psis))).max() > ORTHO_TOL:
        raise NotOrthonormal("measured vectors are not orthonormal within 1e-10")
    maps = tuple(teleport_map(p, phi_bc).t for p in psis)
    return LudersChannel(maps=maps, psis=psis, ancilla_phi=phi_bc)


def projection_decomposition(p_op, dim_a: int, dim_b: int) -> list[BipartiteVector]:
    """Orthonormal rank-one decomposition of a projection on H_a ⊗ H_b.

    Eigenvectors with eigenvalue above 0.5 span the range; any orthonormal
    basis of it defines the same channel.
    """
    p = as_matrix(p_op, "P")
    n = dim_a * dim_b
    if p.shape != (n, n):
        raise DimMismatch(f"P must be {n} square for dims ({dim_a}, {dim_b}), got {p.shape}")
    w, v = herm_eigh(p, "P")
    return [
        BipartiteVector.from_vector(v[:, k], dim_a, dim_b)
        for k in range(n)
        if w[k] > 0.5
    ]


def luders_apply(ch: LudersChannel, nu_a) -> np.ndarray:
    """Channel action on an operator: sum_k t_k nu t_k†."""
    nu = as_matrix(nu_a, "nu")
    da = ch.maps[0].shape[1]
    if nu.shape != (da, da):
        raise DimMismatch(f"nu must be {da} square, got {nu.shape}")
    out = np.zeros((ch.maps[0].shape[0], ch.maps[0].shape[0]), dtype=np.complex128)
    for t in ch.maps:
        out += t @ nu @ t.conj().T
    return out


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
    da = ch.maps[0].shape[1]
    k = np.zeros((da, da), dtype=np.complex128)
    for t in ch.maps:
        k += t.conj().T @ t
    w, v = herm_eigh(k)
    op_bound = float(max(w.max(), 0.0))
    top = v[:, int(np.argmax(w))]
    trace_bound = float(np.trace(luders_apply(ch, np.outer(top, np.conj(top)))).real)
    return LudersBounds(op_bound=op_bound, trace_bound=trace_bound)


def luders_project(ch: LudersChannel, phi_a) -> np.ndarray:
    """Dense (P ⊗ 1_c)(phi_a ⊗ phi_bc) for cross-checking the factorized maps.

    The factorized form of the same vector is sum_k psi_k ⊗ (t_k phi_a).
    """
    v_a = np.asarray(phi_a, dtype=np.complex128).reshape(-1)
    da, db = ch.psis[0].dim_a, ch.psis[0].dim_b
    dc = ch.ancilla_phi.dim_b
    if v_a.shape[0] != da:
        raise DimMismatch(f"phi_a length {v_a.shape[0]} != dim_a {da}")
    full = kron(v_a, ch.ancilla_phi.to_vector())
    p = np.zeros((da * db, da * db), dtype=np.complex128)
    for psi in ch.psis:
        w = psi.to_vector()
        p += np.outer(w, np.conj(w))
    return kron(p, np.eye(dc)) @ full


def chain_teleport(stages: Sequence[BipartiteVector]) -> np.ndarray:
    """Distributed multi-hop channel: fold the induced maps of all stages into one matrix.

    `stages` is the chain [psi_ab, phi_bc, psi_cd, phi_de, ...]: measured
    vectors at even positions, ancillae at odd ones.  An even number of
    antilinear factors gives a linear composite from the first subsystem to
    the last; odd counts would be antilinear and are rejected.
    """
    stages = list(stages)
    if len(stages) % 2 == 1:
        raise OddParity(f"{len(stages)} stages give an antilinear composite")
    return chain(epr_maps(s).s_ba for s in stages)


def chain_oracle(phi_a, stages: Sequence[BipartiteVector]) -> np.ndarray:
    """Dense (2N+1)-partite projection oracle for an N-hop chain.

    Builds the vector phi_a ⊗ phi_bc ⊗ phi_de ⊗ ..., applies each measurement
    projector |psi_k><psi_k| to its own two tensor axes by reshape and
    contraction, factors out psi_ab ⊗ psi_cd ⊗ ..., and returns the
    conditional output in the last subsystem.  It never uses the induced
    maps; memory stays O(D) in the total dimension D, which DENSE_DIM_LIMIT
    bounds.  `stages` is ordered as for chain_teleport.
    """
    stages = list(stages)
    if not stages:
        raise DimMismatch("chain_oracle needs at least one hop")
    if len(stages) % 2 == 1:
        raise OddParity(f"{len(stages)} stages give an antilinear composite")
    measured, ancillae = stages[0::2], stages[1::2]
    v_a = np.asarray(phi_a, dtype=np.complex128).reshape(-1)
    dims = [v_a.shape[0]] + [s.dim_b for s in stages]
    for k, s in enumerate(stages):
        if s.dim_a != dims[k]:
            raise DimMismatch(f"stages[{k}] has first dimension {s.dim_a}, the chain has {dims[k]} there")
    total = int(np.prod(dims))
    if total > DENSE_DIM_LIMIT:
        raise DimTooLarge(f"dense chain oracle needs dimension {total} > {DENSE_DIM_LIMIT}")
    for k, m in enumerate(measured):
        _unit_state(m, f"measured vector stages[{2 * k}]")
    ws = [m.to_vector() for m in measured]
    full = reduce(kron, (p.to_vector() for p in ancillae), v_a)
    for k, w in enumerate(ws):
        # axes of hop k: everything before, its two subsystems, everything after
        t = full.reshape(int(np.prod(dims[: 2 * k])), w.shape[0], -1)
        full = (w[None, :, None] * (np.conj(w) @ t)[:, None, :]).reshape(-1)
    return _factor_out(full, reduce(kron, ws), dims[-1], "chain_oracle")
