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

from functools import cached_property

import numpy as np

from .antilinear import AntilinearMap
from .bipartite import BipartiteVector, _check_same_dims, epr_maps, gns_check, polar_of_state, reduced
from .errors import DimMismatch, MixedParity, NotSeparating
from .linalg import _adopt, _check_dense, _member, as_matrix, as_vector, finite, frozen, kron, seal, value


@value
class TwistedOperator:
    """Operator on H_a ⊗ H_b held as the twisted product of two factor maps (or a stack of them).

    ``factors`` holds the factor matrices (eta, xi), eta: H_b -> H_a and
    xi: H_a -> H_b, and ``parity`` their common parity; the dense matrix
    ``mat`` acts on the conjugated vector when antilinear.
    """

    factors: tuple[np.ndarray, np.ndarray]    # (eta matrix, xi matrix)
    parity: str                               # "linear" | "antilinear"

    def __post_init__(self):
        if self.parity not in ("linear", "antilinear"):
            raise MixedParity(f"parity must be 'linear' or 'antilinear', got {self.parity!r}")
        eta, xi = (frozen(as_matrix(f, name)) for f, name in zip(self.factors, ("eta", "xi")))
        if xi.shape[-2:] != eta.shape[:-3:-1]:
            raise DimMismatch(f"eta (..., dim_a, dim_b) needs xi (..., dim_b, dim_a), got {eta.shape} and {xi.shape}")
        object.__setattr__(self, "factors", (eta, xi))

    @property
    def dim_a(self) -> int:
        return self.factors[0].shape[-2]

    @property
    def dim_b(self) -> int:
        return self.factors[0].shape[-1]

    def __call__(self, v) -> np.ndarray:
        """Act on a vector (or a stack of them) through the factors, never the dense matrix."""
        n = self.dim_a * self.dim_b
        vec = as_vector(v, n, "v")
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


@value
class KroneckerProduct:
    """Linear operator a ⊗ b on H_a ⊗ H_b held by its factors (a, b), or stacks of them.

    On a coefficient matrix X it acts as X -> a X b^T; the dense matrix
    ``mat`` is built on first read.
    """

    factors: tuple[np.ndarray, np.ndarray]    # (a on H_a, b on H_b)

    def __post_init__(self):
        factors = tuple(frozen(as_matrix(f, name)) for f, name in zip(self.factors, ("a", "b")))
        if any(f.shape[-1] != f.shape[-2] for f in factors):
            raise DimMismatch(f"Kronecker factors must be square, got shapes {[f.shape for f in factors]}")
        object.__setattr__(self, "factors", factors)

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
    eta_anti, xi_anti = isinstance(eta_ab, AntilinearMap), isinstance(xi_ba, AntilinearMap)
    if eta_anti != xi_anti:
        raise MixedParity("twisted product of a linear and an antilinear factor is ill defined")
    factors = (eta_ab.mat, xi_ba.mat) if eta_anti else (eta_ab, xi_ba)
    return TwistedOperator(factors=factors, parity="antilinear" if eta_anti else "linear")


def twisted_adjoint(p: TwistedOperator) -> TwistedOperator:
    """Hermitian adjoint: exchange and adjoin the factors, xi* ⊗̃ eta*."""
    eta, xi = p.factors
    if p.parity == "antilinear":
        return _adopt(TwistedOperator, factors=(xi.mT, eta.mT), parity=p.parity)
    return _adopt(TwistedOperator, factors=(xi.conj().mT, eta.conj().mT), parity=p.parity)


def twisted_compose(p1: TwistedOperator, p2: TwistedOperator) -> KroneckerProduct:
    """Composition of two twisted operators of equal parity, held by its factors in O(d³).

    The composite is the ordinary (untwisted) Kronecker product
    (eta1 ∘ xi2) ⊗ (xi1 ∘ eta2) of linear maps; antilinear factors compose as eta1 conj(xi2).
    """
    if p1.parity != p2.parity:
        raise MixedParity("cannot compose twisted operators of different parity")
    if (p1.dim_a, p1.dim_b) != (p2.dim_a, p2.dim_b):
        raise DimMismatch("twisted operators live on different product spaces")
    (eta1, xi1), (eta2, xi2) = p1.factors, p2.factors
    if p1.parity == "antilinear":
        eta2, xi2 = np.conj(eta2), np.conj(xi2)
    return _adopt(KroneckerProduct, factors=(eta1 @ xi2, xi1 @ eta2))


@value
class LiftedOperators:
    """The four twisted products of the maps induced by an ordered state pair."""

    s_tilde: TwistedOperator      # j_phi ⊗̃ s_psi
    f_tilde: TwistedOperator      # s_phi ⊗̃ j_psi
    delta_tilde: TwistedOperator  # s_phi ⊗̃ s_psi
    j: TwistedOperator            # j_phi ⊗̃ j_psi


def _adopted(eta: np.ndarray, xi: np.ndarray) -> TwistedOperator:
    """The antilinear twisted product of factor matrices a builder owns, held without a copy (see linalg._adopt)."""
    return _adopt(TwistedOperator, factors=(eta, xi), parity="antilinear")


def _phases(phi: BipartiteVector, psi: BipartiteVector) -> tuple[np.ndarray, np.ndarray]:
    """The matrices of the phase maps j_phi_ab: H_b -> H_a (the adjoint of the phase of s_phi_ba) and j_psi_ba."""
    return polar_of_state(phi).phase.mat.mT, polar_of_state(psi).phase.mat


def lift_operators(phi: BipartiteVector, psi: BipartiteVector) -> LiftedOperators:
    """Lift the induced maps of (phi, psi) to the product space.

    The first argument supplies the H_b -> H_a factors (the maps written with
    superscript ab), the second the H_a -> H_b factors.  Hermitian adjoints
    exchange the two arguments.
    """
    _check_same_dims(phi, psi)
    j_phi_ab, j_psi_ba = _phases(phi, psi)
    s_phi_ab, s_psi_ba = epr_maps(phi).s_ab.mat, epr_maps(psi).s_ba.mat
    return LiftedOperators(
        s_tilde=_adopted(j_phi_ab, s_psi_ba),
        f_tilde=_adopted(s_phi_ab, j_psi_ba),
        delta_tilde=_adopted(s_phi_ab, s_psi_ba),
        j=_adopted(j_phi_ab, j_psi_ba),
    )


@value
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
    the polar phase of S, taken factor by factor.  One SVD C_psi^T = U Σ V†,
    J's (C_psi is its adjoint), decides (gns_check) that psi is completely
    entangled (square, full rank) and gives C_psi^(-†) = conj(V) Σ^(-1) U^T,
    not an LU solve.  Delta = omega_a(phi) ⊗ inverse(omega_b(psi)), and since
    omega_b(psi) = U Σ² U† the inverse is U Σ^(-2) U† from the same SVD: an
    eigendecomposition of omega_b would square the condition number of C_psi.
    Rank-deficient reductions of psi are rejected rather than pseudo-inverted.
    Stacked states give stacked operators.

    Everything costs O(d³) time and O(d²) memory (two d×d SVDs, of C_psi^T
    and C_phi^T, both cached on the states' maps: lift_operators(psi, phi)
    then takes none); a reduction, C_psi^(-†) or inverse that overflows
    raises NonFinite, omega_b(psi) judged by Σ² without building it.
    The dense d²×d² matrices are built only when read.  verify.modular_defining_oracle,
    which checks the dense S on all d² matrix units (they span the space
    because psi is cyclic), is the brute-force oracle of S, and
    verify.modular_phase_match_oracle compares J with the phase of the dense
    SVD of S.
    """
    _check_same_dims(phi, psi)
    entangled = np.asarray(gns_check(psi))
    if not entangled.all():
        label, _ = _member("psi", ~entangled)
        raise NotSeparating(f"{label} must be completely entangled (square, full-rank reductions)")
    res = polar_of_state(psi).svd
    u, sigma, vh = res.u, res.sigma[..., None, :], res.vh
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        sq = sigma**2  # the eigenvalues of omega_b(psi) = U Σ² U†
        eta, inv_b = (vh.mT / sigma) @ u.mT, (u / sq) @ u.conj().mT  # conj(V) = vh^T
    finite(sq, "omega_b of psi", "is not finite")
    finite(eta, "inverse of C_psi (S's eta) of psi", "is not finite")
    delta = (reduced(phi, "a", "phi"), finite(inv_b, "inverse of omega_b of psi", "is not finite"))
    return ModularTriple(
        s=_adopted(eta, phi.coeff.mT),
        delta=_adopt(KroneckerProduct, factors=delta),
        j=_adopted(*_phases(psi, phi)),
    )
