"""First-class antilinear maps between finite-dimensional Hilbert spaces.

An antilinear map t: H_x -> H_y satisfies t(au + bv) = conj(a) t(u) + conj(b) t(v).
In the fixed standard basis every such map is stored as a matrix M acting by

    t(v) = M @ conj(v)

This single convention drives the whole package, and it is worth spelling out
its consequences because each one is a classic source of sign-of-conjugation
bugs:

  * the Hermitian adjoint of t is the plain transpose of M (no conjugation),
  * composing two antilinear maps gives the linear map  M1 @ conj(M2),
  * composing with a linear operator L gives  L @ M  (L after t) and
    M @ conj(L)  (t after L).

Parity is encoded in the type: antilinear maps are AntilinearMap instances,
linear maps are bare ndarrays.  Sums and compositions across parities are
rejected; mixing them silently is how conjugations get lost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch
from .linalg import SvdResult, as_matrix, frozen, rank_mask, seal, svd


@dataclass(frozen=True)
class AntilinearMap:
    """Antilinear map represented by its matrix in the standard basis.

    ``mat`` has shape (dim_codomain, dim_domain) and the action is
    ``v -> mat @ conj(v)``.  It may also be a stack (..., dim_codomain,
    dim_domain) of such matrices, one map per member; every function of
    this module then acts member by member, stack axes broadcasting.
    """

    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", frozen(as_matrix(self.mat, "mat")))

    @property
    def dim_domain(self) -> int:
        return self.mat.shape[-1]

    @property
    def dim_codomain(self) -> int:
        return self.mat.shape[-2]

    def __call__(self, v) -> np.ndarray:
        return apply(self, v)


def apply(t: AntilinearMap, v) -> np.ndarray:
    """Apply t to a vector, or to a stack (..., dim_domain) of them: mat @ conj(v)."""
    vec = np.asarray(v, dtype=np.complex128)
    if vec.ndim == 0 or vec.shape[-1] != t.dim_domain:
        raise DimMismatch(f"vector length {vec.shape[-1:]} != domain dimension {t.dim_domain}")
    return (t.mat @ np.conj(vec)[..., None])[..., 0]


def adjoint(t: AntilinearMap) -> AntilinearMap:
    """Hermitian adjoint; under the matrix convention this is the transpose.

    The defining relation is <y, t x> = <x, t* y> (both sides antilinear in
    nothing: the pairing itself supplies the conjugations).  adjoint is an
    involution, exactly.
    """
    return AntilinearMap(t.mat.mT)


def compose_aa(t1: AntilinearMap, t2: AntilinearMap) -> np.ndarray:
    """Compose two antilinear maps; the result t1 ∘ t2 is linear: M1 @ conj(M2)."""
    if t1.dim_domain != t2.dim_codomain:
        raise DimMismatch(
            f"cannot compose: domain {t1.dim_domain} != codomain {t2.dim_codomain}"
        )
    return t1.mat @ np.conj(t2.mat)


def compose_mixed(linear, t: AntilinearMap, order: str) -> AntilinearMap:
    """Compose a linear matrix (or stack) with an antilinear map; the result stays antilinear.

    order="left"  : linear ∘ t, matrix  L @ M
    order="right" : t ∘ linear, matrix  M @ conj(L)
    """
    lin = as_matrix(linear, "linear factor")
    if order == "left":
        if lin.shape[-1] != t.dim_codomain:
            raise DimMismatch(f"linear factor wants {lin.shape[-1]}, map produces {t.dim_codomain}")
        return AntilinearMap(seal(lin @ t.mat))
    if order == "right":
        if t.dim_domain != lin.shape[-2]:
            raise DimMismatch(f"map wants {t.dim_domain}, linear factor produces {lin.shape[-2]}")
        return AntilinearMap(seal(t.mat @ np.conj(lin)))
    raise DimMismatch(f"order must be 'left' or 'right', got {order!r}")


def trace_product(t1: AntilinearMap, t2: AntilinearMap):
    """Trace of t1 ∘ t2 for maps composable both ways; one complex per member for stacks.

    Swapping the factors conjugates the value: Tr(t1 t2) = conj(Tr(t2 t1)).
    """
    if t1.dim_domain != t2.dim_codomain or t2.dim_domain != t1.dim_codomain:
        raise DimMismatch("trace_product needs maps composable in both orders")
    tr = np.trace(compose_aa(t1, t2), axis1=-2, axis2=-1)
    return complex(tr) if tr.ndim == 0 else tr


@dataclass(frozen=True)
class PolarParts:
    """Polar decomposition t = positive ∘ phase = phase ∘ positive_dom.

    ``positive`` lives on the codomain, ``positive_dom`` on the domain;
    ``phase`` is an antilinear partial isometry vanishing off the supports.
    The phase is unique only on the support: with degenerate singular values
    the off-support extension is a free choice, fixed here as zero.
    """

    positive: np.ndarray        # Hermitian PSD on the codomain
    phase: AntilinearMap
    support_dom: np.ndarray     # projection onto the domain-side support
    support_cod: np.ndarray     # projection onto the codomain-side support
    positive_dom: np.ndarray    # Hermitian PSD on the domain
    svd: SvdResult              # the SVD of the map's matrix that the parts come from


def polar(t: AntilinearMap) -> PolarParts:
    """Polar-decompose an antilinear map (or a stack of them) via the SVD of its matrix.

    With mat = U diag(s) V† and r the numerical rank:

        phase        = U_r V_r†          (antilinear partial isometry)
        positive     = U_r diag(s_r) U_r†
        positive_dom = conj(V_r) diag(s_r) V_r^T
        support_cod  = U_r U_r†
        support_dom  = conj(V_r) V_r^T

    phase* ∘ phase and phase ∘ phase* are the two support projections, and
    the adjoint of the phase is again its transpose, by construction.  The
    rank may differ across a stack: the singular vectors beyond each member's
    rank are masked to zero.  This is the package's one route from an SVD to
    phases and roots; the SVD itself comes from linalg.svd and is kept.
    """
    res = svd(t.mat)
    u, s, vh = res.u, res.sigma, res.v.conj().mT
    keep = rank_mask(s)
    ur, sr, vhr = u * keep[..., None, :], s * keep, vh * keep[..., :, None]
    vr = vhr.conj().mT
    positive = (ur * sr[..., None, :]) @ ur.conj().mT
    positive_dom = (np.conj(vr) * sr[..., None, :]) @ vr.mT
    return PolarParts(
        positive=seal((positive + positive.conj().mT) / 2),
        phase=AntilinearMap(seal(ur @ vhr)),
        support_dom=seal(np.conj(vr) @ vr.mT),
        support_cod=seal(ur @ ur.conj().mT),
        positive_dom=seal((positive_dom + positive_dom.conj().mT) / 2),
        svd=res,
    )


def chain(maps) -> AntilinearMap | np.ndarray:
    """Fold a sequence of antilinear maps t_n ∘ ... ∘ t_1 (first applied first).

    An even count yields a linear matrix, an odd count an AntilinearMap.  The
    fold starts at the last map, m_n @ conj(m_n-1) @ m_n-2 @ ..., so the
    product associates left to right.
    """
    ts = list(maps)
    if not ts:
        raise DimMismatch("chain needs at least one map")
    for inner, outer in zip(ts, ts[1:]):
        if outer.dim_domain != inner.dim_codomain:
            raise DimMismatch(f"chain break: map wants {outer.dim_domain}, has {inner.dim_codomain}")
    mat = ts[-1].mat
    for k, t in enumerate(reversed(ts[:-1])):
        mat = mat @ (np.conj(t.mat) if k % 2 == 0 else t.mat)
    return mat if len(ts) % 2 == 0 else AntilinearMap(mat)
