"""Twisted direct products of maps and finite-dimensional modular operators.

The twisted product of eta: H_b -> H_a and xi: H_a -> H_b acts on product
vectors by crossing the factors,

    (eta ⊗̃ xi)(u ⊗ v) = (eta v) ⊗ (xi u),

extended linearly when both factors are linear and antilinearly when both are
antilinear; one of each is ill defined and rejected.  On the a-major Kronecker
basis its matrix is, for either parity, the broadcast product

    mat[(i, k), (p, q)] = eta[i, q] * xi[k, p],

so on a coefficient matrix X it acts as X -> eta X^T xi^T (linear) or
X -> eta X† xi^T (antilinear).

Applying this to the maps induced by two bipartite vectors lifts them to
operators on the full product space; the lifted family reproduces, in finite
dimensions, the modular operators S, Delta, J defined by
S (A ⊗ 1) psi = (A* ⊗ 1) phi for a completely entangled psi.  S and J are
built here as twisted products of d×d factors, never by solving on the
d²-dimensional space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .antilinear import AntilinearMap, adjoint
from .bipartite import BipartiteVector, _check_same_dims, epr_maps, polar_of_state, reduced
from .errors import DimMismatch, MixedParity, NotSeparating
from .linalg import _member, as_matrix, frozen, kron, numerical_rank, seal


@dataclass(frozen=True)
class TwistedOperator:
    """Operator on H_a ⊗ H_b built as a twisted product of two factor maps (or a stack of them).

    ``parity`` is the common parity of the factors; the matrix acts on the
    conjugated vector when antilinear.  ``factors`` records the two factor
    matrices (eta, xi) the operator came from.
    """

    mat: np.ndarray
    parity: str                               # "linear" | "antilinear"
    factors: tuple[np.ndarray, np.ndarray]    # (eta matrix, xi matrix)
    dim_a: int
    dim_b: int

    def __post_init__(self):
        object.__setattr__(self, "mat", frozen(self.mat))
        object.__setattr__(self, "factors", tuple(frozen(f) for f in self.factors))

    def __call__(self, v) -> np.ndarray:
        vec = np.asarray(v, dtype=np.complex128)
        if vec.ndim == 0 or vec.shape[-1] != self.mat.shape[-1]:
            raise DimMismatch(f"vector length {vec.shape[-1:]} != {self.mat.shape[-1]}")
        return (self.mat @ (np.conj(vec) if self.parity == "antilinear" else vec)[..., None])[..., 0]

    def as_antilinear(self) -> AntilinearMap:
        if self.parity != "antilinear":
            raise MixedParity("operator is linear, not antilinear")
        return AntilinearMap(self.mat)


def twisted_product(eta_ab, xi_ba) -> TwistedOperator:
    """Twisted product of eta: H_b -> H_a and xi: H_a -> H_b of equal parity.

    Pass both factors as AntilinearMap for the antilinear case or both as
    plain matrices for the linear case; stacked factors give a stack of
    operators.  The matrix is one broadcast product of the factors.
    """
    eta_anti = isinstance(eta_ab, AntilinearMap)
    xi_anti = isinstance(xi_ba, AntilinearMap)
    if eta_anti != xi_anti:
        raise MixedParity("twisted product of a linear and an antilinear factor is ill defined")
    eta = eta_ab.mat if eta_anti else as_matrix(eta_ab, "eta")
    xi = xi_ba.mat if xi_anti else as_matrix(xi_ba, "xi")
    dim_a, dim_b = eta.shape[-2:]
    if xi.shape[-2:] != (dim_b, dim_a):
        raise DimMismatch(f"xi must map H_a({dim_a}) into H_b({dim_b}), got shape {xi.shape}")
    eta, xi = np.ascontiguousarray(eta), np.ascontiguousarray(xi)  # so the product reshapes without a copy
    prod = eta[..., :, None, None, :] * xi[..., None, :, :, None]
    return TwistedOperator(
        mat=seal(prod.reshape(*prod.shape[:-4], dim_a * dim_b, dim_a * dim_b)),
        parity="antilinear" if eta_anti else "linear",
        factors=(eta, xi),
        dim_a=dim_a,
        dim_b=dim_b,
    )


def twisted_adjoint(p: TwistedOperator) -> TwistedOperator:
    """Hermitian adjoint: exchange and adjoin the factors, xi* ⊗̃ eta*."""
    eta, xi = p.factors
    if p.parity == "antilinear":
        return twisted_product(AntilinearMap(xi.mT), AntilinearMap(eta.mT))
    return twisted_product(xi.conj().mT, eta.conj().mT)


def twisted_compose(p1: TwistedOperator, p2: TwistedOperator) -> np.ndarray:
    """Composition of two twisted operators of equal parity, as a plain matrix.

    For antilinear factors the composite is the ordinary (untwisted) Kronecker
    product (eta1 ∘ xi2) ⊗ (xi1 ∘ eta2) of linear maps.
    """
    if p1.parity != p2.parity:
        raise MixedParity("cannot compose twisted operators of different parity")
    if (p1.dim_a, p1.dim_b) != (p2.dim_a, p2.dim_b):
        raise DimMismatch("twisted operators live on different product spaces")
    if p1.parity == "antilinear":
        return p1.mat @ np.conj(p2.mat)
    return p1.mat @ p2.mat


@dataclass(frozen=True)
class LiftedOperators:
    """The four twisted products of the maps induced by an ordered state pair."""

    s_tilde: TwistedOperator      # j_phi ⊗̃ s_psi
    f_tilde: TwistedOperator      # s_phi ⊗̃ j_psi
    delta_tilde: TwistedOperator  # s_phi ⊗̃ s_psi
    j: TwistedOperator            # j_phi ⊗̃ j_psi


def _phases(phi: BipartiteVector, psi: BipartiteVector) -> tuple[AntilinearMap, AntilinearMap]:
    """The phase maps j_phi_ab: H_b -> H_a (the adjoint of the phase of s_phi_ba) and j_psi_ba."""
    return adjoint(polar_of_state(phi).phase), polar_of_state(psi).phase


def lift_operators(phi: BipartiteVector, psi: BipartiteVector) -> LiftedOperators:
    """Lift the induced maps of (phi, psi) to the product space.

    The first argument supplies the H_b -> H_a factors (the maps written with
    superscript ab), the second the H_a -> H_b factors.  Hermitian adjoints
    exchange the two arguments.
    """
    _check_same_dims(phi, psi)
    j_phi_ab, j_psi_ba = _phases(phi, psi)
    s_phi_ab, s_psi_ba = epr_maps(phi).s_ab, epr_maps(psi).s_ba
    return LiftedOperators(
        s_tilde=twisted_product(j_phi_ab, s_psi_ba),
        f_tilde=twisted_product(s_phi_ab, j_psi_ba),
        delta_tilde=twisted_product(s_phi_ab, s_psi_ba),
        j=twisted_product(j_phi_ab, j_psi_ba),
    )


def gns_check(psi: BipartiteVector | np.ndarray):
    """Whether both reductions of psi (a BipartiteVector or its coefficient matrix) have full rank.

    True also certifies cyclicity: the vectors (E_ij ⊗ 1) psi then span the
    whole product space.  Requires square dimensions to be attainable at all.
    A stack gives one answer per member.
    """
    c = psi.coeff if isinstance(psi, BipartiteVector) else np.asarray(psi)
    if c.shape[-2] != c.shape[-1]:
        return False
    full = np.asarray(numerical_rank(np.linalg.svd(c, compute_uv=False)) == c.shape[-1])
    return bool(full) if full.ndim == 0 else full


@dataclass(frozen=True)
class ModularTriple:
    """Closed operators S = J Delta^(1/2) of the finite-dimensional modular setup.

    S is antilinear with S (A ⊗ 1) psi = (A* ⊗ 1) phi; Delta is the positive
    operator omega_a(phi) ⊗ inverse(omega_b(psi)); J is the antilinear phase
    of S, antiunitary whenever phi has full-rank reductions too.
    """

    s: AntilinearMap
    delta: np.ndarray
    j: AntilinearMap

    def __post_init__(self):
        object.__setattr__(self, "delta", frozen(self.delta))


def tomita_S(phi: BipartiteVector, psi: BipartiteVector) -> ModularTriple:
    """Modular operators of the pair (phi, psi) with psi completely entangled.

    On coefficient matrices S acts as X -> C_psi^(-†) X† C_phi, which is the
    twisted product of C_psi^(-†) and C_phi^T; it follows from the defining
    relation with X = A C_psi.  J is the twisted product of the phase maps of
    (psi, phi), in that order, the same operator as lift_operators(psi, phi).j:
    the polar phase of S, taken factor by factor.  C_psi^(-†) = U Σ^(-1) V†
    comes from the SVD C_psi = U Σ V†, the factorization the checks take
    their square roots from, not from an LU solve.  Delta = omega_a(phi) ⊗
    inverse(omega_b(psi)), and since omega_b(psi) = conj(V) Σ² V^T the
    inverse is conj(V) Σ^(-2) V^T from the same SVD: an eigendecomposition of
    omega_b would square the condition number of C_psi.  Rank-deficient
    reductions of psi are rejected rather than pseudo-inverted.
    Stacked states give stacked operators.

    The factors cost O(d³) (three d×d SVDs)
    and the dense d²×d² matrices O(d⁴).  verify.modular_defining, which checks
    S on all d² matrix units (they span the space because psi is cyclic), is
    the brute-force oracle of S; verify.modular_phase_match compares J with
    the phase of the dense SVD of S.
    """
    _check_same_dims(phi, psi)
    entangled = np.asarray(gns_check(psi))
    if not entangled.all():
        label, _ = _member("psi", ~entangled)
        raise NotSeparating(f"{label} must be completely entangled (square, full-rank reductions)")
    # Each d²×d² operator is built right after its own factors.
    u, sigma, vh = np.linalg.svd(psi.coeff)
    s = twisted_product(AntilinearMap((u / sigma[..., None, :]) @ vh), AntilinearMap(phi.coeff.mT))
    delta = seal(kron(reduced(phi, "a"), (vh.mT / sigma[..., None, :] ** 2) @ vh.conj()))
    j = twisted_product(*_phases(psi, phi))
    return ModularTriple(s=s.as_antilinear(), delta=delta, j=j.as_antilinear())
