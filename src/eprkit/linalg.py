"""Dense complex linear algebra substrate: SVD, PSD square roots, norms, fidelity, partial trace.

Everything downstream (antilinear maps, teleportation channels, modular
operators) is built on the handful of primitives in this module, so the
numerical conventions are fixed here once: complex128 throughout, Hermiticity
checked entrywise at 1e-10 relative to max(1, max |H_ij|), rank decided
relative to the largest singular value at 1e-12.
The kernels also take stacks (..., m, n), member by member with the same
LAPACK and BLAS calls; every check runs on every member and names its index.
Every operand passes as_matrix, as_square or as_vector: complex128, the shape
it must have and no NaN or Inf; a refusal names the operand, the member and
the numbers.  A `value` type holds frozen(as_matrix(x, field)); a channel holds
its states alone.  Builders hand over arrays they computed through _adopt.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import DimMismatch, DimTooLarge, NonFinite, NotHermitian, NotPositive

HERMITIAN_TOL = 1e-10  # max-entry bound on (H - H†)/2, times max(1, max |H_ij|)
EIG_CLAMP = 1e-10      # eigenvalues in [-EIG_CLAMP, 0), times max(1, max |H_ij|), count as roundoff and clamp to 0
RANK_RTOL = 1e-12      # singular values below RANK_RTOL * sigma_max do not count toward rank
RANK_ATOL = 1e-14      # absolute fallback when sigma_max == 0
DENSE_DIM_LIMIT = 4096  # largest dimension of a dense operator or oracle state built on request


def _member(name: str, bad: np.ndarray) -> tuple[str, tuple]:
    """The operand's name and index of the first member flagged in `bad` (over the stack axes)."""
    if bad.ndim == 0:
        return name, ()
    idx = tuple(int(i) for i in np.unravel_index(int(np.argmax(bad)), bad.shape))
    return f"{name}[{', '.join(map(str, idx))}]", idx


def _check_dense(total: int, what: str) -> None:
    if total > DENSE_DIM_LIMIT:
        raise DimTooLarge(f"{what} needs dimension {total} > {DENSE_DIM_LIMIT}")


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite complex128 matrix or a stack (..., m, n) of them."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2:
        raise DimMismatch(f"{name} must be at least two-dimensional, got shape {a.shape}")
    return finite(a, name)


def as_square(m, dim: int, name: str) -> np.ndarray:
    """Coerce to a finite complex128 dim×dim matrix or a stack (..., dim, dim) of them."""
    a = as_matrix(m, name)
    if a.shape[-2:] != (dim, dim):
        raise DimMismatch(f"{name} must be {dim} square, got {a.shape}")
    return a


def as_vector(v, dim: int, name: str) -> np.ndarray:
    """Coerce to a finite complex128 vector of length dim or a stack (..., dim) of them."""
    a = np.asarray(v, dtype=np.complex128)
    if a.shape[-1:] != (dim,):
        raise DimMismatch(f"{name} must have length {dim}, got shape {a.shape}")
    return finite(a, name, axes=1)


def finite(a: np.ndarray, name: str, what: str = "contains NaN or Inf entries", axes: int = 2) -> np.ndarray:
    """a if every entry is finite; else NonFinite names the operand, the member (over the last `axes` axes), `what`."""
    if np.count_nonzero(np.isfinite(a)) != a.size:
        label, _ = _member(name, ~np.isfinite(a).all(axis=tuple(range(-axes, 0))))
        raise NonFinite(f"{label} {what}")
    return a


def frozen(a: np.ndarray) -> np.ndarray:
    """A read-only complex128 copy of `a` in its own memory order: how a public constructor holds what it is given.

    A value type copies every array a caller hands its constructor, a
    read-only one too, so nothing outside the value can change what it holds
    or what it caches.  Package builders instead hand over arrays they own
    through `_adopt`.  The order is numpy's default "K", so the copy keeps the
    layout and the bits of `a`.
    """
    b = np.array(a, dtype=np.complex128, copy=True)
    b.setflags(write=False)
    return b


def seal(a: np.ndarray) -> np.ndarray:
    """Mark an array the package returns, and every array it views, read-only, and return it.

    Only for arrays the caller has just allocated: a writable view held
    elsewhere would still alias the memory.
    """
    b = a
    b.setflags(write=False)
    while isinstance(b.base, np.ndarray):
        b = b.base
        b.setflags(write=False)
    return a


def value(cls):
    """A frozen dataclass equal only to itself, whose copies and unpickled values pass its checks: cls(*fields)."""
    cls = dataclass(frozen=True, eq=False)(cls)
    cls.__reduce__ = _reduce
    return cls


def _reduce(v):
    return type(v), tuple(getattr(v, f.name) for f in fields(v))


def _adopt(cls, **fields):
    """A value of the value type `cls` that holds a builder's arrays as given: no copy, check or finiteness scan.

    Each array, alone or in a tuple field, is sealed here and must be one the
    builder has just computed from checked values, or a read-only view of an
    array another value already holds, so no caller can write through it.
    Builders that adopt: BipartiteVector's EPR maps, antilinear.adjoint,
    PolarParts.phase, luders_channel's psis stack, tomita_S, lift_operators,
    twisted_adjoint, twisted_compose.
    """
    value = object.__new__(cls)
    for name, field in fields.items():
        if isinstance(field, np.ndarray):
            field = seal(field)
        elif isinstance(field, tuple):
            field = tuple(map(seal, field))
        object.__setattr__(value, name, field)
    return value


def kron(x: np.ndarray, y: np.ndarray, vectors: bool = False) -> np.ndarray:
    """Kronecker product of two matrices, or with vectors=True of two vectors, by one broadcast.

    Leading axes are stack axes and broadcast; two 1-D operands are vectors.
    Gives the same bits as np.kron, whose general n-dimensional route costs
    several times more per call on small operands.
    """
    x, y = np.asarray(x), np.asarray(y)
    if (vectors and x.ndim and y.ndim) or x.ndim == y.ndim == 1:
        prod = x[..., :, None] * y[..., None, :]
        return prod.reshape(*prod.shape[:-2], -1)
    if x.ndim >= 2 and y.ndim >= 2:
        batch = np.broadcast_shapes(x.shape[:-2], y.shape[:-2])
        return (x[..., :, None, :, None] * y[..., None, :, None, :]).reshape(
            *batch, x.shape[-2] * y.shape[-2], x.shape[-1] * y.shape[-1]
        )
    raise DimMismatch(f"kron takes two vectors or two matrices, got shapes {x.shape} and {y.shape}")


def _out(x: np.ndarray):
    """A Python scalar (float, complex, bool or int) for a single input's value, the array for a stack's."""
    return x.item() if x.ndim == 0 else x


def fro_norm(x, axes: int = 2):
    """Frobenius norm over the last `axes` axes, member by member; inf, without a warning, where the squares overflow.

    Equal to np.linalg.norm bit for bit, except in the last bit on a real stack with strided members (x[:, ::2]).
    """
    x = np.asarray(x)
    flat = x.reshape(*x.shape[: x.ndim - axes], -1)
    re, im = flat.real, flat.imag  # a real array's imag is zeros, which add nothing
    with np.errstate(over="ignore"):
        return _out(np.sqrt(np.vecdot(re, re) + np.vecdot(im, im)))


@value
class SvdResult:
    """Thin SVD with the rank decided by the package-wide threshold; every field stacks."""

    u: np.ndarray       # isometry columns
    sigma: np.ndarray   # nonincreasing, nonnegative
    vh: np.ndarray      # isometry rows, as LAPACK returns them; input = u @ diag(sigma) @ vh
    rank: int | np.ndarray

    def __post_init__(self):  # read-only however built: by _svd, by a copy or by pickle
        for a in (self.u, self.sigma, self.vh, np.asarray(self.rank)):
            seal(a)

    @property
    def v(self) -> np.ndarray:
        """The isometry columns vh†, read-only."""
        return seal(self.vh.conj().mT)

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.sigma[..., None, :]) @ self.vh


def rank_mask(sigma: np.ndarray) -> np.ndarray:
    """Which singular values count toward the rank; sigma is nonincreasing along its last axis."""
    top = sigma[..., :1]
    return sigma > np.where(top > 0, RANK_RTOL * top, RANK_ATOL)


def numerical_rank(sigma: np.ndarray) -> int | np.ndarray:
    """Count singular values above the relative threshold."""
    return _out(np.asarray(rank_mask(np.asarray(sigma)).sum(axis=-1)))


def svd(m) -> SvdResult:
    return _svd(as_matrix(m))


def _svd(a: np.ndarray) -> SvdResult:
    """svd of a complex128 matrix or stack that is already checked finite."""
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    return SvdResult(u=u, sigma=s, vh=vh, rank=numerical_rank(s))


def _scale(a: np.ndarray) -> np.ndarray:
    """max(1, max |a_ij|) per member: the input checks' bounds scale with it and are never finer than absolute."""
    return np.maximum(1.0, np.abs(a).max(axis=(-2, -1), initial=0.0))


def herm_eigh(h, name: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, symmetrized after the check.

    The check bounds the max entry of (H - H†)/2 relative to the input's
    scale, so rounding in a valid matrix of any norm passes; symmetrizing
    before eigh stabilizes downstream square roots.
    """
    a = as_matrix(h, name)
    if a.shape[-2] != a.shape[-1]:
        raise DimMismatch(f"{name} must be square, got shape {a.shape}")
    if a.size:
        skew = np.abs((a - a.conj().mT) / 2).max(axis=(-2, -1))
        bad = skew > HERMITIAN_TOL * _scale(a)
        if bad.any():
            label, i = _member(name, bad)
            raise NotHermitian(f"{label} deviates from Hermiticity by {skew[i]:.3e}")
    return np.linalg.eigh((a + a.conj().mT) / 2)


def psd_eigh(h, name: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Like herm_eigh but requires eigenvalues >= -EIG_CLAMP times the scale, and clamps roundoff to zero.

    Eigenvalues below RANK_RTOL times the largest are floored to exactly zero,
    so square roots of rank-deficient inputs do not pick up sqrt-of-roundoff
    noise.
    """
    w, v = herm_eigh(h, name)
    low, scale = w.min(axis=-1, initial=0.0), _scale(np.asarray(h))
    bad = low < -EIG_CLAMP * scale
    if bad.any():
        label, i = _member(name, bad)
        raise NotPositive(f"{label} has eigenvalue {low[i]:.3e} below {-EIG_CLAMP * scale[i]:.3e}")
    top = np.maximum(w.max(axis=-1, initial=0.0), 0.0)[..., None]
    return np.where(w < top * RANK_RTOL, 0.0, w), v


def psd_sqrt(h, name: str = "matrix") -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition; errors name the operand."""
    return _sqrt_of(*psd_eigh(h, name))


def _sqrt_of(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The root from psd_eigh's (w, v); like _support_of and _fidelity_of, it lets a caller decompose once."""
    s = (v * np.sqrt(w)[..., None, :]) @ v.conj().mT
    return (s + s.conj().mT) / 2


def support_projection(h, name: str = "matrix") -> np.ndarray:
    """Projection onto the range of a Hermitian PSD matrix; errors name the operand."""
    return _support_of(*psd_eigh(h, name))


def _support_of(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    vr = v * (w > 0)[..., None, :]
    return vr @ vr.conj().mT


class MatrixNorms(NamedTuple):
    operator: float
    trace: float
    hilbert_schmidt: float


def norms(m) -> MatrixNorms:
    """Operator, trace, and Hilbert-Schmidt norms from singular values; a stack's are read-only arrays."""
    s = np.linalg.svd(as_matrix(m), compute_uv=False)
    values = s.max(axis=-1, initial=0.0), s.sum(axis=-1), np.sqrt((s * s).sum(axis=-1))
    return MatrixNorms(*(_out(seal(np.asarray(v))) for v in values))


def trace_norm(m) -> float:
    return norms(m).trace


def fidelity(rho, omega) -> float:
    """Fidelity Tr (sqrt(omega) rho sqrt(omega))^(1/2) of two PSD matrices.

    Normalization is not required.  Computed as the trace norm of
    sqrt(rho) @ sqrt(omega), which is the same number but avoids taking
    eigenvalue square roots of a doubly-squared product, the accuracy killer
    near rank deficiency.
    """
    r, o = as_matrix(rho, "rho"), as_matrix(omega, "omega")
    if r.shape != o.shape:
        raise DimMismatch(f"fidelity operands differ in shape: {r.shape} vs {o.shape}")
    return _fidelity_of(psd_sqrt(r, "rho"), psd_sqrt(o, "omega"))


def _fidelity_of(root_rho: np.ndarray, root_omega: np.ndarray) -> float:
    return trace_norm(root_rho @ root_omega)


def partial_trace(m, dim_a: int, dim_b: int, keep: str) -> np.ndarray:
    """Partial trace of an operator on a two-factor product space.

    `m` must be (dim_a*dim_b) square in the a-major Kronecker basis;
    `keep` selects the surviving factor, "a" or "b".
    """
    a = as_square(m, dim_a * dim_b, "m")
    t = a.reshape(*a.shape[:-2], dim_a, dim_b, dim_a, dim_b)
    if keep == "a":
        return np.einsum("...ijkj->...ik", t)
    if keep == "b":
        return np.einsum("...ijil->...jl", t)
    raise DimMismatch(f"keep must be 'a' or 'b', got {keep!r}")
