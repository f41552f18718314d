"""Bipartite state vectors, their induced antilinear maps, and the identities relating them.

A vector psi in H_a ⊗ H_b is stored by its coefficient matrix C, with
psi = sum_ij C[i, j] e_i ⊗ e_j (row index = a-system, column index = b-system).
The two canonical antilinear maps of psi are then

    s_ba : H_a -> H_b   with matrix C.T      (v -> C.T @ conj(v))
    s_ab : H_b -> H_a   with matrix C

so that s_ab is exactly the adjoint (transpose) of s_ba at the representation
level, and the reduced operators are the two compositions C @ C† and
C.T @ conj(C).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .antilinear import AntilinearMap, PolarParts, adjoint, compose_aa, compose_mixed, polar
from .errors import DimMismatch, NotIsometry, NotUnit
from .linalg import _adopt, _member, _out, _sqrt_of, _support_of, as_matrix, as_square, as_vector, finite, fro_norm
from .linalg import frozen, psd_eigh, seal, value

UNIT_TOL = 1e-10
HERMITICITY_TOL = 1e-9  # cloning_check's bound on max |X - X†|, times max |X_ij|
ISOMETRY_TOL = 1e-9


@value
class BipartiteVector:
    """Vector in H_a ⊗ H_b held as its (dim_a x dim_b) coefficient matrix.

    Unit norm is not required; subnormalized vectors carry event
    probabilities in their norm squared.  ``coeff`` may also be a stack
    (..., dim_a, dim_b), one vector per member; every function of this
    module then acts member by member, stack axes broadcasting.
    """

    coeff: np.ndarray

    def __post_init__(self):
        c = as_matrix(self.coeff, "coeff")
        if c.shape[-2] < 1 or c.shape[-1] < 1:
            raise DimMismatch(f"dimensions must be positive, got {c.shape[-2:]}")
        object.__setattr__(self, "coeff", frozen(c))

    @property
    def dim_a(self) -> int:
        return self.coeff.shape[-2]

    @property
    def dim_b(self) -> int:
        return self.coeff.shape[-1]

    def norm(self):
        return self._norm

    @cached_property
    def _norm(self):  # once per state, read-only for a stack, like _epr
        return _out(seal(np.asarray(fro_norm(self.coeff))))

    def to_vector(self) -> np.ndarray:
        """Flatten to the a-major Kronecker basis: index (i, j) -> i*dim_b + j."""
        return self.coeff.reshape(*self.coeff.shape[:-2], -1).copy()

    @classmethod
    def from_vector(cls, vec, dim_a: int, dim_b: int) -> "BipartiteVector":
        v = np.asarray(vec, dtype=np.complex128).reshape(-1)
        if v.shape[0] != dim_a * dim_b:
            raise DimMismatch(f"vector length {v.shape[0]} != {dim_a}*{dim_b}")
        return cls(v.reshape(dim_a, dim_b))

    @cached_property
    def _epr(self) -> EprPair:
        return EprPair(s_ba=_adopt(AntilinearMap, mat=self.coeff.mT), s_ab=_adopt(AntilinearMap, mat=self.coeff))


@value
class EprPair:
    """The two antilinear maps of one bipartite vector; s_ab = adjoint(s_ba) exactly."""

    s_ba: AntilinearMap  # H_a -> H_b
    s_ab: AntilinearMap  # H_b -> H_a


def epr_maps(psi: BipartiteVector) -> EprPair:
    """Both maps of psi, built once per state as read-only views of its coefficients; see the module docstring."""
    return psi._epr


def _check_same_dims(phi: BipartiteVector, psi: BipartiteVector):
    if (phi.dim_a, phi.dim_b) != (psi.dim_a, psi.dim_b):
        raise DimMismatch(f"bipartite dimensions differ: phi {(phi.dim_a, phi.dim_b)}, psi {(psi.dim_a, psi.dim_b)}")


def _check_unit(n, what: str):
    """Raise NotUnit naming the first member whose norm in `n` is not 1 within UNIT_TOL."""
    n = np.asarray(n)
    off = np.abs(n - 1.0) > UNIT_TOL
    if off.any():
        label, i = _member(what, off)
        raise NotUnit(f"{label} has norm {float(n[i])!r}, expected 1 within {UNIT_TOL:.0e}")


def project_rank1(psi: BipartiteVector, phi_a) -> BipartiteVector:
    """Apply (|phi_a><phi_a| ⊗ 1) to psi for a unit vector phi_a (or a stack of them).

    The result equals phi_a ⊗ (s_ba phi_a); this is the identity that makes
    the induced maps independent of how psi is decomposed into product terms.
    """
    v = as_vector(phi_a, psi.dim_a, "phi_a")
    _check_unit(np.linalg.norm(v, axis=-1), "phi_a")
    return BipartiteVector((v[..., :, None] * np.conj(v)[..., None, :]) @ psi.coeff)


def inner_via_trace(phi: BipartiteVector, psi: BipartiteVector) -> complex:
    """Scalar product <phi, psi> computed as Tr_a (s_psi_ab ∘ s_phi_ba); stacks give one per member."""
    _check_same_dims(phi, psi)
    return _out((psi.coeff @ np.conj(phi.coeff.mT)).trace(axis1=-2, axis2=-1))


def reconstruct(s_ba: AntilinearMap, a_op) -> BipartiteVector:
    """Return (A ⊗ 1) psi from the map s_ba of psi and a PSD operator A.

    Uses the spectral rank-one decomposition of A: with A = sum_k l_k |v_k><v_k|
    the result is sum_k phi_k ⊗ (s_ba phi_k) for phi_k = sqrt(l_k) v_k.
    With A = 1 this returns psi itself.
    """
    w, vecs = psd_eigh(as_square(a_op, s_ba.dim_domain, "A"), "A")
    phis = vecs * np.sqrt(w)[..., None, :]
    return BipartiteVector(phis @ (s_ba.mat @ np.conj(phis)).mT)


def reduced(psi: BipartiteVector, side: str, name: str = "psi") -> np.ndarray:
    """Reduced operator of psi on one factor, via the map compositions.

    side="a": C @ C†, side="b": C.T @ conj(C).  Both agree with the partial
    trace of |psi><psi| and share the trace ||psi||^2.  One that overflows
    raises NonFinite naming it and `name`, without a warning.
    """
    c = psi.coeff
    if side not in ("a", "b"):
        raise DimMismatch(f"side must be 'a' or 'b', got {side!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        om = c @ c.conj().mT if side == "a" else c.mT @ np.conj(c)
    return seal(finite(om, f"omega_{side} of {name}", "is not finite"))


def local_transform(psi: BipartiteVector, a_op, b_op) -> BipartiteVector:
    """Apply A ⊗ B; on coefficients this is A @ C @ B.T.

    The maps transform covariantly: the new s_ba is B ∘ s_ba ∘ A* and the new
    s_ab is A ∘ s_ab ∘ B*.
    """
    a, b = as_square(a_op, psi.dim_a, "A"), as_square(b_op, psi.dim_b, "B")
    return BipartiteVector(a @ psi.coeff @ b.mT)


def partner_operator(a_op, polar_of_psi: PolarParts) -> np.ndarray:
    """Transfer an operator A on H_a to its partner B on H_b across a state.

    B = (j_ba ∘ A ∘ j_ab)* with j the polar phase of s_ba.  B intertwines
    B* j_ba = j_ba A on the support of the a-reduction and reproduces the
    expectation: Tr omega_a A = Tr omega_b B.  Off the support of omega_b,
    B is zero.
    """
    j_ba = polar_of_psi.phase
    a = as_square(a_op, j_ba.dim_domain, "A")
    inner = compose_aa(j_ba, compose_mixed(a, adjoint(j_ba), "left"))
    return inner.conj().mT


def purification_from_isometry(omega_a, w: AntilinearMap) -> BipartiteVector:
    """Purify a PSD operator with a chosen antilinear isometry w: H_a -> H_b.

    The returned psi has s_ba = w ∘ sqrt(omega_a), hence a-reduction omega_a.
    w must be isometric on the support of omega_a (its behavior off the
    support never enters).
    """
    eig = psd_eigh(as_square(omega_a, w.dim_domain, "omega_a"), "omega_a")  # one eigh for the support and the root
    q = _support_of(*eig)
    gram = compose_aa(adjoint(w), w)
    off = np.abs(q @ gram @ q - q).max(axis=(-2, -1))
    if (off > ISOMETRY_TOL).any():
        raise NotIsometry(f"{_member('w', off > ISOMETRY_TOL)[0]} is not isometric on the support of omega_a")
    s_ba = compose_mixed(_sqrt_of(*eig), w, "right")
    return BipartiteVector(s_ba.mat.mT)


def cross_gram(phi: BipartiteVector, psi: BipartiteVector) -> np.ndarray:
    """The linear map s_phi_ba ∘ s_psi_ab on H_b.

    Its singular values coincide with the eigenvalues of
    (sqrt(rho_a) omega_a sqrt(rho_a))^(1/2) built from the two a-reductions,
    and Tr (s_phi_ba ∘ s_psi_ab) B = <psi, (1 ⊗ B) phi> for every B on H_b.
    """
    _check_same_dims(phi, psi)
    return phi.coeff.mT @ np.conj(psi.coeff)


def cloning_check(phi: BipartiteVector, psi: BipartiteVector) -> tuple[bool, float]:
    """Hermiticity of the two cross products, and the reduction commutator norm.

    Returns (hermitian, commutator_norm) where hermitian says whether both
    s_phi_ba ∘ s_psi_ab and s_phi_ab ∘ s_psi_ba are Hermitian, max |X - X†|
    within 1e-9 times max |X_ij| for each (a verdict on the value at any
    state norm, with no floor of 1), and commutator_norm is the Frobenius
    norm of [omega_psi_a, omega_phi_a].  Hermiticity forces the reductions to
    commute; the converse is not claimed.  Stacks give one pair of values
    per member.
    """
    hermitian = True
    for x in (cross_gram(phi, psi), phi.coeff @ np.conj(psi.coeff.mT)):
        hermitian &= np.abs(x - x.conj().mT).max(axis=(-2, -1)) <= HERMITICITY_TOL * np.abs(x).max(axis=(-2, -1))
    om_psi, om_phi = reduced(psi, "a"), reduced(phi, "a")
    commutator_norm = fro_norm(om_psi @ om_phi - om_phi @ om_psi)
    return _out(hermitian), commutator_norm


def polar_of_state(psi: BipartiteVector) -> PolarParts:
    """Polar parts of s_ba: positive factors are the square roots of the reductions."""
    return polar(epr_maps(psi).s_ba)


def gns_check(psi: BipartiteVector | np.ndarray):
    """Whether both reductions of psi (a BipartiteVector or its coefficient matrix) have full rank.

    True also certifies cyclicity: the vectors (E_ij ⊗ 1) psi then span the
    whole product space; it needs square dimensions.  The rank is that of the
    state's cached polar SVD, tomita_S's.  A stack gives one answer per member.
    """
    psi = psi if isinstance(psi, BipartiteVector) else BipartiteVector(psi)
    if psi.dim_a != psi.dim_b:
        return _out(np.zeros(psi.coeff.shape[:-2], dtype=bool))
    return _out(np.asarray(polar_of_state(psi).svd.rank == psi.dim_b))
