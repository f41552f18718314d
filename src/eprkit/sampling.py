"""Seeded random states and operators with reproducible sub-streams.

All randomness flows through numpy's PCG64 generator seeded from an integer
sequence (seed, *stream): distinct stream paths (for instance per trial index)
give independent, platform-stable draws, so any reported residual can be
reproduced from its seed alone.
"""

from __future__ import annotations

import numpy as np

from .bipartite import BipartiteVector
from .errors import DimMismatch
from .modular import gns_check


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Generator for the sub-stream identified by (seed, *stream)."""
    return np.random.default_rng([int(seed)] + [int(s) for s in stream])


def complex_normal(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """IID standard complex normal entries (unit total variance per entry)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def random_unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = complex_normal(rng, dim)
    return v / np.linalg.norm(v)


def complex_normal_rows(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """`count` draws of complex_normal(rng, dim) stacked as rows, in one call.

    Takes the same bits from rng as the sequential draws and leaves it in the
    same state.
    """
    x = rng.standard_normal((count, 2, dim))
    return (x[:, 0] + 1j * x[:, 1]) / np.sqrt(2.0)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via QR with the phase convention fixed."""
    q, r = np.linalg.qr(complex_normal(rng, dim, dim))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_psd(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = complex_normal(rng, dim, dim)
    return a @ a.conj().T


def state_from_rng(rng: np.random.Generator, dim_a: int, dim_b: int, entangled: bool = False) -> BipartiteVector:
    """Unit random state; with entangled=True, rejection-sample full-rank reductions."""
    return BipartiteVector(coeff_from_rng(rng, dim_a, dim_b, entangled))


def coeff_from_rng(rng: np.random.Generator, dim_a: int, dim_b: int, entangled: bool = False) -> np.ndarray:
    """The coefficient matrix of state_from_rng, drawn with the same bits."""
    if entangled and dim_a != dim_b:
        raise DimMismatch("completely entangled states need dim_a == dim_b")
    while True:
        c = complex_normal(rng, dim_a, dim_b)
        c = c / np.linalg.norm(c)
        if not entangled or gns_check(c):
            return c


def random_state(dims, seed: int, entangled: bool = False) -> BipartiteVector:
    """Deterministic unit random state for (seed, dims).

    Coefficients are IID standard complex normal, then normalized; the
    entangled flag rejection-samples until both reductions have full rank
    (termination is almost sure).
    """
    dim_a, dim_b = (int(d) for d in dims)
    if dim_a < 1 or dim_b < 1:
        raise DimMismatch(f"dimensions must be positive, got {(dim_a, dim_b)}")
    return state_from_rng(rng_for(seed, dim_a, dim_b), dim_a, dim_b, entangled=entangled)
