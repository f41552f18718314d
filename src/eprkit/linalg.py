"""Dense complex linear algebra substrate: SVD, PSD square roots, norms, fidelity, partial trace.

Everything downstream (antilinear maps, teleportation channels, modular
operators) is built on the handful of primitives in this module, so the
numerical conventions are fixed here once: complex128 throughout, Hermiticity
checked entrywise at 1e-10, rank decided relative to the largest singular
value at 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimMismatch, NonFinite, NotHermitian, NotPositive

HERMITIAN_TOL = 1e-10  # max-entry bound on (H - H†)/2
EIG_CLAMP = 1e-10      # eigenvalues in [-EIG_CLAMP, 0) count as roundoff and clamp to 0
RANK_RTOL = 1e-12      # singular values below RANK_RTOL * sigma_max do not count toward rank
RANK_ATOL = 1e-14      # absolute fallback when sigma_max == 0


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite two-dimensional complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise DimMismatch(f"{name} must be two-dimensional, got shape {a.shape}")
    if a.size and not np.isfinite(a).all():
        raise NonFinite(f"{name} contains NaN or Inf entries")
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


def kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Kronecker product of two vectors or two matrices by one broadcast.

    Gives the same bits as np.kron, whose general n-dimensional route costs
    several times more per call on small operands.
    """
    x, y = np.asarray(x), np.asarray(y)
    if x.ndim == y.ndim == 1:
        return (x[:, None] * y[None, :]).reshape(-1)
    if x.ndim == y.ndim == 2:
        return (x[:, None, :, None] * y[None, :, None, :]).reshape(
            x.shape[0] * y.shape[0], x.shape[1] * y.shape[1]
        )
    raise DimMismatch(f"kron takes two vectors or two matrices, got shapes {x.shape} and {y.shape}")


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD with the rank decided by the package-wide threshold."""

    u: np.ndarray       # isometry columns
    sigma: np.ndarray   # nonincreasing, nonnegative
    v: np.ndarray       # isometry columns; input = u @ diag(sigma) @ v†
    rank: int

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.sigma) @ self.v.conj().T


def numerical_rank(sigma: np.ndarray) -> int:
    """Count singular values above the relative threshold."""
    if sigma.size == 0:
        return 0
    top = float(sigma[0])
    cut = RANK_RTOL * top if top > 0 else RANK_ATOL
    return int(np.count_nonzero(sigma > cut))


def svd(m) -> SvdResult:
    a = as_matrix(m)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    return SvdResult(u=frozen(u), sigma=s.copy(), v=frozen(vh.conj().T), rank=numerical_rank(s))


def herm_eigh(h, name: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, symmetrized after the check.

    The check bounds the max entry of (H - H†)/2; symmetrizing before eigh
    stabilizes downstream square roots.
    """
    a = as_matrix(h, name)
    if a.shape[0] != a.shape[1]:
        raise DimMismatch(f"{name} must be square, got shape {a.shape}")
    skew = (a - a.conj().T) / 2
    if skew.size and np.abs(skew).max() > HERMITIAN_TOL:
        raise NotHermitian(f"{name} deviates from Hermiticity by {np.abs(skew).max():.3e}")
    w, v = np.linalg.eigh((a + a.conj().T) / 2)
    return w, v


def psd_eigh(h, name: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Like herm_eigh but requires eigenvalues >= -EIG_CLAMP and clamps roundoff to zero.

    Eigenvalues below RANK_RTOL times the largest are floored to exactly zero,
    so square roots of rank-deficient inputs do not pick up sqrt-of-roundoff
    noise.
    """
    w, v = herm_eigh(h, name)
    if w.size and w.min() < -EIG_CLAMP:
        raise NotPositive(f"{name} has eigenvalue {w.min():.3e} below -{EIG_CLAMP:.0e}")
    w = np.where(w < max(w.max(initial=0.0), 0.0) * RANK_RTOL, 0.0, w)
    return w, v


def psd_sqrt(h, name: str = "matrix") -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition; errors name the operand."""
    w, v = psd_eigh(h, name)
    s = (v * np.sqrt(w)) @ v.conj().T
    return (s + s.conj().T) / 2


def support_projection(h, name: str = "matrix") -> np.ndarray:
    """Projection onto the range of a Hermitian PSD matrix; errors name the operand."""
    w, v = psd_eigh(h, name)
    keep = w > 0
    vr = v[:, keep]
    return vr @ vr.conj().T


class MatrixNorms(NamedTuple):
    operator: float
    trace: float
    hilbert_schmidt: float


def norms(m) -> MatrixNorms:
    """Operator, trace, and Hilbert-Schmidt norms from singular values."""
    a = as_matrix(m)
    s = np.linalg.svd(a, compute_uv=False)
    return MatrixNorms(
        operator=float(s.max(initial=0.0)),
        trace=float(s.sum()),
        hilbert_schmidt=float(np.sqrt((s * s).sum())),
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
    return trace_norm(psd_sqrt(r) @ psd_sqrt(o))


def partial_trace(m, dim_a: int, dim_b: int, keep: str) -> np.ndarray:
    """Partial trace of an operator on a two-factor product space.

    `m` must be (dim_a*dim_b) square in the a-major Kronecker basis;
    `keep` selects the surviving factor, "a" or "b".
    """
    a = as_matrix(m)
    n = dim_a * dim_b
    if a.shape != (n, n):
        raise DimMismatch(f"expected shape {(n, n)} for dims ({dim_a}, {dim_b}), got {a.shape}")
    t = a.reshape(dim_a, dim_b, dim_a, dim_b)
    if keep == "a":
        return np.einsum("ijkj->ik", t)
    if keep == "b":
        return np.einsum("ijil->jl", t)
    raise DimMismatch(f"keep must be 'a' or 'b', got {keep!r}")
