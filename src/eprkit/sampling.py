"""Seeded random states and operators with reproducible sub-streams.

All randomness flows through numpy's PCG64 generator seeded from an integer
sequence (seed, *stream): distinct stream paths (for instance per trial index)
give independent, platform-stable draws, so any reported residual can be
reproduced from its seed alone.  Draws are raw and assembly is stacked: a
sampler takes its standard normals in one call, real parts first, and
complex_from, unit and haar assemble them over any leading stack axes: the
per-call samplers run them on one draw, verify on a stack of per-trial draws.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from .bipartite import BipartiteVector
from .errors import DimMismatch
from .linalg import fro_norm
from .modular import gns_check


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Generator for the sub-stream identified by (seed, *stream)."""
    return np.random.default_rng([int(seed)] + [int(s) for s in stream])


def normal_count(*shapes) -> int:
    """How many standard normals the complex arrays of these shapes take."""
    return sum(2 * math.prod(shape) for shape in shapes)


def complex_from(x: np.ndarray, *shape: int) -> np.ndarray:
    """Standard complex normals of `shape` from raw normals x (..., normal_count(shape)), real parts first."""
    n = x.shape[-1] // 2
    return ((x[..., :n] + 1j * x[..., n:]) / np.sqrt(2.0)).reshape(*x.shape[:-1], *shape)


def split_complex(x: np.ndarray, *shapes) -> list[np.ndarray]:
    """Consecutive complex draws of the given shapes from raw normals x (..., normal_count(*shapes))."""
    ends = list(accumulate(normal_count(shape) for shape in shapes))
    return [complex_from(x[..., start:end], *shape) for shape, start, end in zip(shapes, [0] + ends, ends)]


def unit(z: np.ndarray, axes: int = 1) -> np.ndarray:
    """z divided by its Frobenius norm over the last `axes` axes, with the bits of z / np.linalg.norm(z)."""
    return z / np.asarray(fro_norm(z, axes))[(...,) + (None,) * axes]


def haar(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from complex normal matrices (..., d, d): QR with the phase convention fixed."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def complex_normal(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """IID standard complex normal entries (unit total variance per entry)."""
    return complex_from(rng.standard_normal(normal_count(shape)), *shape)


def random_unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    return unit(complex_normal(rng, dim))


def complex_normal_rows(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """`count` draws of complex_normal(rng, dim) stacked as rows, in one call, with their bits."""
    return complex_from(rng.standard_normal((count, normal_count((dim,)))), dim)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via QR with the phase convention fixed."""
    return haar(complex_normal(rng, dim, dim))


def random_psd(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = complex_normal(rng, dim, dim)
    return a @ a.conj().mT


def state_from_rng(rng: np.random.Generator, dim_a: int, dim_b: int, entangled: bool = False) -> BipartiteVector:
    """Unit random state; with entangled=True, rejection-sample full-rank reductions."""
    return BipartiteVector(coeff_from_rng(rng, dim_a, dim_b, entangled))


def coeff_normals(rng: np.random.Generator, dim_a: int, dim_b: int, entangled: bool = False) -> np.ndarray:
    """The raw normals of coeff_from_rng's accepted draw; unit(complex_from(x, dim_a, dim_b), 2) assembles them."""
    if entangled and dim_a != dim_b:
        raise DimMismatch("completely entangled states need dim_a == dim_b")
    while True:
        x = rng.standard_normal(normal_count((dim_a, dim_b)))
        if not entangled or gns_check(unit(complex_from(x, dim_a, dim_b), 2)):
            return x


def coeff_from_rng(rng: np.random.Generator, dim_a: int, dim_b: int, entangled: bool = False) -> np.ndarray:
    """The coefficient matrix of state_from_rng, drawn with the same bits."""
    return unit(complex_from(coeff_normals(rng, dim_a, dim_b, entangled), dim_a, dim_b), 2)


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
