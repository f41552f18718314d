"""Twisted direct products of maps and finite-dimensional modular operators.

The twisted product of eta: H_b -> H_a and xi: H_a -> H_b acts on product
vectors by crossing the factors,

    (eta ⊗̃ xi)(u ⊗ v) = (eta v) ⊗ (xi u),

extended linearly when both factors are linear and antilinearly when both are
antilinear; one of each is ill defined and rejected.  On a coefficient matrix
X it acts as X -> eta X^T xi^T (linear) or X -> eta X† xi^T (antilinear), and
on the a-major Kronecker basis its matrix is, for either parity, the
broadcast product

    mat[(i, k), (p, q)] = eta[i, q] * xi[k, p].

Applying this to the maps induced by two bipartite vectors lifts them to
operators on the full product space; the lifted family reproduces, in finite
dimensions, the modular operators S, Delta, J defined by
S (A ⊗ 1) psi = (A* ⊗ 1) phi for a completely entangled psi.  S and J are
twisted products and Delta a Kronecker product of d×d factors, and every
operator here is held by its factors (Van Loan, "The ubiquitous Kronecker
product", 2000): the dense d²×d² matrix is built only when read, and refused
beyond DENSE_DIM_LIMIT.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .antilinear import AntilinearMap, adjoint
from .bipartite import BipartiteVector, _check_same_dims, epr_maps, polar_of_state, reduced
from .errors import DimMismatch, MixedParity, NotSeparating
from .linalg import _check_dense, _member, as_matrix, frozen, kron, numerical_rank, seal, svd


@dataclass(frozen=True)
class TwistedOperator:
    """Operator on H_a ⊗ H_b held as the twisted product of two factor maps (or a stack of them).

    ``factors`` holds the factor matrices (eta, xi), eta: H_b -> H_a and
    xi: H_a -> H_b, and ``parity`` their common parity; the dense matrix
    ``mat`` acts on the conjugated vector when antilinear.
    """

    factors: tuple[np.ndarray, np.ndarray]    # (eta matrix, xi matrix)
    parity: str                               # "linear" | "antilinear"

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(frozen(f) for f in self.factors))

    @property
    def dim_a(self) -> int:
        return self.factors[0].shape[-2]

    @property
    def dim_b(self) -> int:
        return self.factors[0].shape[-1]

    def __call__(self, v) -> np.ndarray:
        """Act on a vector (or a stack of them) through the factors, never the dense matrix."""
        vec = np.asarray(v, dtype=np.complex128)
        n = self.dim_a * self.dim_b
        if vec.ndim == 0 or vec.shape[-1] != n:
            raise DimMismatch(f"vector length {vec.shape[-1:]} != {n}")
        x = vec.reshape(*vec.shape[:-1], self.dim_a, self.dim_b)
        eta, xi = self.factors
        out = eta @ (np.conj(x) if self.parity == "antilinear" else x).mT @ xi.mT
        return out.reshape(*out.shape[:-2], n)

    @cached_property
    def mat(self) -> np.ndarray:
        """The dense d²×d² matrix, one broadcast product of the factors, built on first read."""
        n = self.dim_a * self.dim_b
        _check_dense(n, f"dense matrix of a {self.parity} twisted product")
        eta, xi = (np.ascontiguousarray(f) for f in self.factors)  # so the product reshapes without a copy
        prod = eta[..., :, None, None, :] * xi[..., None, :, :, None]
        return seal(prod.reshape(*prod.shape[:-4], n, n))

    def as_antilinear(self) -> AntilinearMap:
        if self.parity != "antilinear":
            raise MixedParity("operator is linear, not antilinear")
        return AntilinearMap(self.mat)


@dataclass(frozen=True)
class KroneckerProduct:
    """Linear operator a ⊗ b on H_a ⊗ H_b held by its factors (a, b), or stacks of them.

    On a coefficient matrix X it acts as X -> a X b^T; the dense matrix
    ``mat`` is built on first read.
    """

    factors: tuple[np.ndarray, np.ndarray]    # (a on H_a, b on H_b)

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(frozen(f) for f in self.factors))

    @property
    def dim_a(self) -> int:
        return self.factors[0].shape[-1]

    @property
    def dim_b(self) -> int:
        return self.factors[1].shape[-1]

    @cached_property
    def mat(self) -> np.ndarray:
        _check_dense(self.dim_a * self.dim_b, "dense matrix of a Kronecker product")
        return seal(kron(*self.factors))


def twisted_product(eta_ab, xi_ba) -> TwistedOperator:
    """Twisted product of eta: H_b -> H_a and xi: H_a -> H_b of equal parity.

    Pass both factors as AntilinearMap for the antilinear case or both as
    plain matrices for the linear case; stacked factors give a stack of
    operators.
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
    return TwistedOperator(factors=(eta, xi), parity="antilinear" if eta_anti else "linear")


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
    """Closed operators S = J Delta^(1/2) of the finite-dimensional modular setup, held by their factors.

    S is antilinear with S (A ⊗ 1) psi = (A* ⊗ 1) phi; Delta is the positive
    operator omega_a(phi) ⊗ inverse(omega_b(psi)); J is the antilinear phase
    of S, antiunitary whenever phi has full-rank reductions too.
    """

    s: TwistedOperator
    delta: KroneckerProduct
    j: TwistedOperator


def tomita_S(phi: BipartiteVector, psi: BipartiteVector) -> ModularTriple:
    """Modular operators of the pair (phi, psi) with psi completely entangled.

    On coefficient matrices S acts as X -> C_psi^(-†) X† C_phi, which is the
    twisted product of C_psi^(-†) and C_phi^T; it follows from the defining
    relation with X = A C_psi.  J is the twisted product of the phase maps of
    (psi, phi), in that order, the same operator as lift_operators(psi, phi).j:
    the polar phase of S, taken factor by factor.  One SVD C_psi = U Σ V†
    decides that psi is completely entangled (square, full numerical rank)
    and gives C_psi^(-†) = U Σ^(-1) V†, not an LU solve.  Delta = omega_a(phi)
    ⊗ inverse(omega_b(psi)), and since omega_b(psi) = conj(V) Σ² V^T the
    inverse is conj(V) Σ^(-2) V^T from the same SVD: an eigendecomposition of
    omega_b would square the condition number of C_psi.  Rank-deficient
    reductions of psi are rejected rather than pseudo-inverted.
    Stacked states give stacked operators.

    Everything costs O(d³) time and O(d²) memory (three d×d SVDs: C_psi's
    and the two polar phases of J); the
    dense d²×d² matrices are built only when read.  verify.modular_defining_oracle,
    which checks the dense S on all d² matrix units (they span the space
    because psi is cyclic), is the brute-force oracle of S, and
    verify.modular_phase_match_oracle compares J with the phase of the dense
    SVD of S.
    """
    _check_same_dims(phi, psi)
    res = svd(psi.coeff)
    entangled = np.asarray(psi.dim_a == psi.dim_b and res.rank == psi.dim_b)
    if not entangled.all():
        label, _ = _member("psi", ~entangled)
        raise NotSeparating(f"{label} must be completely entangled (square, full-rank reductions)")
    u, sigma, vh = res.u, res.sigma, res.v.conj().mT
    return ModularTriple(
        s=twisted_product(AntilinearMap((u / sigma[..., None, :]) @ vh), AntilinearMap(phi.coeff.mT)),
        delta=KroneckerProduct((reduced(phi, "a"), seal((vh.mT / sigma[..., None, :] ** 2) @ vh.conj()))),
        j=twisted_product(*_phases(psi, phi)),
    )
