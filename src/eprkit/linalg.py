"""Dense complex linear algebra substrate: SVD, PSD square roots, norms, fidelity, partial trace.

Everything downstream (antilinear maps, teleportation channels, modular
operators) is built on the handful of primitives in this module, so the
numerical conventions are fixed here once: complex128 throughout, Hermiticity
checked entrywise at 1e-10, rank decided relative to the largest singular
value at 1e-12.
The kernels also take stacks (..., m, n), member by member with the same
LAPACK and BLAS calls; every check runs on every member and names its index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimMismatch, DimTooLarge, NonFinite, NotHermitian, NotPositive

HERMITIAN_TOL = 1e-10  # max-entry bound on (H - H†)/2
EIG_CLAMP = 1e-10      # eigenvalues in [-EIG_CLAMP, 0) count as roundoff and clamp to 0
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
    if a.size and not np.isfinite(a).all():
        label, _ = _member(name, ~np.isfinite(a).all(axis=(-2, -1)))
        raise NonFinite(f"{label} contains NaN or Inf entries")
    return a


def frozen(a: np.ndarray) -> np.ndarray:
    """Return a read-only complex128 array; value types hold immutable arrays.

    An array that is already complex128 and read-only down to the array that
    owns its memory is returned as it is; builders mark what they have just
    allocated read-only so that their results are not copied again.  Anything
    else is copied.
    """
    if isinstance(a, np.ndarray) and a.dtype == np.complex128:
        b = a
        while isinstance(b, np.ndarray) and not b.flags.writeable:
            if b.base is None:
                return a
            b = b.base
    b = np.array(a, dtype=np.complex128, copy=True)
    b.setflags(write=False)
    return b


def seal(a: np.ndarray) -> np.ndarray:
    """Mark a freshly built array and every array it views read-only, so frozen keeps it uncopied.

    Only for arrays the caller has just allocated: a writable view held
    elsewhere would still alias the sealed memory.
    """
    b = a
    while isinstance(b, np.ndarray):
        b.setflags(write=False)
        b = b.base
    return a


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
    """A float for a single matrix's value, the array for a stack's."""
    return float(x) if x.ndim == 0 else x


def fro_norm(x, axes: int = 2):
    """Frobenius norm over the last `axes` axes, member by member, with the bits of np.linalg.norm."""
    x = np.asarray(x)
    flat = x.reshape(*x.shape[: x.ndim - axes], 1, -1)
    parts = (flat.real, flat.imag) if np.iscomplexobj(flat) else (flat,)
    return _out(np.sqrt(sum((p @ p.mT)[..., 0, 0] for p in parts)))


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD with the rank decided by the package-wide threshold; every field stacks."""

    u: np.ndarray       # isometry columns
    sigma: np.ndarray   # nonincreasing, nonnegative
    v: np.ndarray       # isometry columns; input = u @ diag(sigma) @ v†
    rank: int | np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.sigma[..., None, :]) @ self.v.conj().mT


def rank_mask(sigma: np.ndarray) -> np.ndarray:
    """Which singular values count toward the rank; sigma is nonincreasing along its last axis."""
    top = sigma[..., :1]
    return sigma > np.where(top > 0, RANK_RTOL * top, RANK_ATOL)


def numerical_rank(sigma: np.ndarray) -> int | np.ndarray:
    """Count singular values above the relative threshold."""
    r = np.asarray(np.count_nonzero(rank_mask(np.asarray(sigma)), axis=-1))
    return int(r) if r.ndim == 0 else r


def svd(m) -> SvdResult:
    u, s, vh = np.linalg.svd(as_matrix(m), full_matrices=False)
    return SvdResult(u=seal(u), sigma=seal(s), v=seal(vh.conj().mT), rank=numerical_rank(s))


def herm_eigh(h, name: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, symmetrized after the check.

    The check bounds the max entry of (H - H†)/2; symmetrizing before eigh
    stabilizes downstream square roots.
    """
    a = as_matrix(h, name)
    if a.shape[-2] != a.shape[-1]:
        raise DimMismatch(f"{name} must be square, got shape {a.shape}")
    if a.size:
        skew = np.abs((a - a.conj().mT) / 2).max(axis=(-2, -1))
        if (skew > HERMITIAN_TOL).any():
            label, i = _member(name, skew > HERMITIAN_TOL)
            raise NotHermitian(f"{label} deviates from Hermiticity by {skew[i]:.3e}")
    return np.linalg.eigh((a + a.conj().mT) / 2)


def psd_eigh(h, name: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Like herm_eigh but requires eigenvalues >= -EIG_CLAMP and clamps roundoff to zero.

    Eigenvalues below RANK_RTOL times the largest are floored to exactly zero,
    so square roots of rank-deficient inputs do not pick up sqrt-of-roundoff
    noise.
    """
    w, v = herm_eigh(h, name)
    low = w.min(axis=-1, initial=0.0)
    if (low < -EIG_CLAMP).any():
        label, i = _member(name, low < -EIG_CLAMP)
        raise NotPositive(f"{label} has eigenvalue {low[i]:.3e} below -{EIG_CLAMP:.0e}")
    top = np.maximum(w.max(axis=-1, initial=0.0), 0.0)[..., None]
    return np.where(w < top * RANK_RTOL, 0.0, w), v


def psd_sqrt(h, name: str = "matrix") -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition; errors name the operand."""
    w, v = psd_eigh(h, name)
    s = (v * np.sqrt(w)[..., None, :]) @ v.conj().mT
    return (s + s.conj().mT) / 2


def support_projection(h, name: str = "matrix") -> np.ndarray:
    """Projection onto the range of a Hermitian PSD matrix; errors name the operand."""
    w, v = psd_eigh(h, name)
    vr = v * (w > 0)[..., None, :]
    return vr @ vr.conj().mT


class MatrixNorms(NamedTuple):
    operator: float
    trace: float
    hilbert_schmidt: float


def norms(m) -> MatrixNorms:
    """Operator, trace, and Hilbert-Schmidt norms from singular values."""
    s = np.linalg.svd(as_matrix(m), compute_uv=False)
    return MatrixNorms(
        operator=_out(s.max(axis=-1, initial=0.0)),
        trace=_out(s.sum(axis=-1)),
        hilbert_schmidt=_out(np.sqrt((s * s).sum(axis=-1))),
    )


def trace_norm(m) -> float:
    return norms(m).trace


def fidelity(rho, omega) -> float:
    """Fidelity Tr (sqrt(omega) rho sqrt(omega))^(1/2) of two PSD matrices.

    Normalization is not required.  Computed as the trace norm of
    sqrt(rho) @ sqrt(omega), which is the same number but avoids taking
    eigenvalue square roots of a doubly-squared product, the accuracy killer
    near rank deficiency.
    """
    r = as_matrix(rho, "rho")
    o = as_matrix(omega, "omega")
    if r.shape != o.shape:
        raise DimMismatch(f"fidelity operands differ in shape: {r.shape} vs {o.shape}")
    return trace_norm(psd_sqrt(r, "rho") @ psd_sqrt(o, "omega"))


def partial_trace(m, dim_a: int, dim_b: int, keep: str) -> np.ndarray:
    """Partial trace of an operator on a two-factor product space.

    `m` must be (dim_a*dim_b) square in the a-major Kronecker basis;
    `keep` selects the surviving factor, "a" or "b".
    """
    a = as_matrix(m)
    n = dim_a * dim_b
    if a.shape[-2:] != (n, n):
        raise DimMismatch(f"expected shape {(n, n)} for dims ({dim_a}, {dim_b}), got {a.shape}")
    t = a.reshape(*a.shape[:-2], dim_a, dim_b, dim_a, dim_b)
    if keep == "a":
        return np.einsum("...ijkj->...ik", t)
    if keep == "b":
        return np.einsum("...ijil->...jl", t)
    raise DimMismatch(f"keep must be 'a' or 'b', got {keep!r}")
