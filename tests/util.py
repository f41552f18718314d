"""Shared helpers for the test suite: reference states, per-call samplers and a strict JSON reader."""

from __future__ import annotations

import json

import numpy as np

from eprkit import BipartiteVector
from eprkit.sampling import complex_from, haar, normal_count, rng_for, unit


def bell(d: int = 2) -> BipartiteVector:
    """Maximally entangled unit vector with coefficient matrix I/sqrt(d)."""
    return BipartiteVector(np.eye(d) / np.sqrt(d))


def basis_state(i: int, j: int, da: int, db: int) -> BipartiteVector:
    c = np.zeros((da, db), dtype=complex)
    c[i, j] = 1.0
    return BipartiteVector(c)


def complex_normal(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """IID standard complex normal entries (unit total variance per entry), from one generator call."""
    return complex_from(rng.standard_normal(normal_count(shape)), *shape)


def random_unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    return unit(complex_normal(rng, dim))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via QR with the phase convention fixed."""
    return haar(complex_normal(rng, dim, dim))


def random_psd(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = complex_normal(rng, dim, dim)
    return a @ a.conj().mT


def random_unit_state(rng: np.random.Generator, da: int, db: int) -> BipartiteVector:
    c = complex_normal(rng, da, db)
    return BipartiteVector(c / np.linalg.norm(c))


def seeded_rng(*stream: int) -> np.random.Generator:
    return rng_for(20260809, *stream)


def strict_json(text: str):
    """text parsed as RFC 8259 JSON: a NaN, Infinity or -Infinity token raises."""

    def refuse(token):
        raise ValueError(f"{token} in a report")

    return json.loads(text, parse_constant=refuse)
