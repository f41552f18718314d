"""Seeded random states and operators with reproducible sub-streams.

All randomness flows through numpy's PCG64 generator seeded from an integer
sequence (seed, *stream): distinct stream paths (for instance per trial index)
give independent, platform-stable draws, so any reported residual can be
reproduced from its seed alone; rng_for defines that generator, and
trial_rngs seeds those of many (seed, stream, t) in one vectorized pass, bit
for bit, each built as its trial is reached.  Draws are raw and assembly is
stacked: a sampler takes its standard normals in one call, real parts first,
and complex_from, unit and haar assemble them over any leading stack axes:
the per-call samplers run them on one draw, verify on a stack of per-trial draws.
"""

from __future__ import annotations

import functools
import math
from itertools import accumulate

import numpy as np

from .bipartite import BipartiteVector, gns_check
from .errors import DimMismatch
from .linalg import fro_norm


# numpy's SeedSequence (numpy.random.bit_generator): pool size, running-hash constants, mixing multipliers.
_POOL, _INIT_A, _MULT_A, _INIT_B, _MULT_B = 4, 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Generator for the sub-stream identified by (seed, *stream)."""
    return np.random.default_rng([int(seed)] + [int(s) for s in stream])


@functools.cache
def _precomputed_seed_sequence() -> type:
    """A seed sequence type that hands PCG64 the generate_state(4, uint64) words computed for it.

    Built on first use: subclassing ISeedSequence imports numpy.random, which importing eprkit does not.
    """

    class PrecomputedSeedSequence(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return PrecomputedSeedSequence


def _hash(v, const: int, mult: int, steps: int):
    """SeedSequence's running hash from `const`, step k on row k of v broadcast to (steps, n); and the next constant."""
    c = np.array(list(accumulate(range(steps), lambda c, _: c * mult & 0xFFFFFFFF, initial=const)), np.uint32)
    v = (v ^ c[:-1, None]) * c[1:, None]
    return v ^ v >> _SHIFT, int(c[-1])


def trial_rngs(seed: int, streams, trials) -> dict:
    """{stream: the generators rng_for(seed, stream, t) for t in trials}, bit for bit, seeded in one vectorized pass.

    numpy's SeedSequence steps run on uint32 rows with one column per
    (stream, trial): hash four entropy words (zero words past its end) into
    the pool, mix each pool word into the other three, then each remaining
    word into all four, and hash the pool out into the four uint64 words
    PCG64 takes.  Each generator is built when its trial is reached.  A
    negative value, which rng_for refuses, or a stream or trial from 2^32 on
    sends every column through rng_for.
    """
    seed, streams, trials = int(seed), [int(s) for s in streams], [int(t) for t in trials]
    if seed < 0 or not all(0 <= v < 1 << 32 for v in streams + trials):
        return {s: map(functools.partial(rng_for, seed, s), trials) for s in streams}
    words = [seed >> 32 * k & 0xFFFFFFFF for k in range(max(1, (seed.bit_length() + 31) // 32))]
    entropy = np.zeros((max(_POOL, len(words) + 2), len(streams) * len(trials)), np.uint32)
    entropy[: len(words)] = np.array(words, np.uint32)[:, None]
    entropy[len(words)], entropy[len(words) + 1] = np.repeat(streams, len(trials)), np.tile(trials, len(streams))
    pool, const = _hash(entropy[:_POOL], _INIT_A, _MULT_A, _POOL)
    for s in range(len(entropy)):
        dst = [d for d in range(_POOL) if d != s]
        h, const = _hash(pool[s] if s < _POOL else entropy[s], const, _MULT_A, len(dst))
        r = _MIX_L * pool[dst] - _MIX_R * h
        pool[dst] = r ^ r >> _SHIFT
    out, _ = _hash(pool[np.arange(2 * _POOL) % _POOL], _INIT_B, _MULT_B, 2 * _POOL)
    states = np.ascontiguousarray(out.T, dtype="<u4").view("<u8").astype(np.uint64)
    seq, states = _precomputed_seed_sequence(), states.reshape(len(streams), len(trials), 4)
    return {s: (np.random.Generator(np.random.PCG64(seq(w))) for w in rows) for s, rows in zip(streams, states)}


@functools.lru_cache(maxsize=256)
def normal_count(*shapes) -> int:
    """How many standard normals the complex arrays of these shapes take."""
    return sum(2 * math.prod(shape) for shape in shapes)


def complex_from(x: np.ndarray, *shape: int) -> np.ndarray:
    """Standard complex normals of `shape` from raw normals x (..., normal_count(shape)), real parts first."""
    # the bits of (re + 1j·im) / √2: numpy divides a complex array by a real scalar as a multiply by 1/√2
    n, y = x.shape[-1] // 2, x * (1.0 / math.sqrt(2.0))
    out = np.empty((*x.shape[:-1], n), complex)
    out.real, out.imag = y[..., :n], y[..., n:]
    return out.reshape(*x.shape[:-1], *shape)


def split_complex(x: np.ndarray, *shapes) -> list[np.ndarray]:
    """Consecutive complex draws of the given shapes from raw normals x (..., normal_count(*shapes))."""
    ends = list(accumulate(normal_count(shape) for shape in shapes))
    return [complex_from(x[..., start:end], *shape) for shape, start, end in zip(shapes, [0] + ends, ends)]


def unit(z: np.ndarray, axes: int = 1) -> np.ndarray:
    """z divided by fro_norm(z, axes): the bits of z / np.linalg.norm(z) wherever fro_norm has np.linalg.norm's."""
    return z / np.asarray(fro_norm(z, axes))[(...,) + (None,) * axes]


def haar(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from complex normal matrices (..., d, d): QR with the phase convention fixed."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def state_from_rng(rng: np.random.Generator, dim_a: int, dim_b: int, entangled: bool = False) -> BipartiteVector:
    """Unit random state; with entangled=True, rejection-sample full-rank reductions."""
    if entangled and dim_a != dim_b:
        raise DimMismatch("completely entangled states need dim_a == dim_b")
    while True:  # each candidate wrapped once: the state returned holds the SVD gns_check took
        psi = BipartiteVector(unit(complex_from(rng.standard_normal(normal_count((dim_a, dim_b))), dim_a, dim_b), 2))
        if not entangled or gns_check(psi):
            return psi


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
