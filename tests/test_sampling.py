"""Tests for seeded state and operator generation."""

import numpy as np
import pytest

from eprkit import errors
from eprkit.modular import gns_check
from eprkit.sampling import random_psd, random_state, random_unitary, rng_for


def test_random_state_deterministic():
    a = random_state((3, 2), seed=123)
    b = random_state((3, 2), seed=123)
    assert np.array_equal(a.coeff, b.coeff)


def test_random_state_unit_norm():
    psi = random_state((4, 4), seed=9)
    assert psi.norm() == pytest.approx(1.0, abs=1e-12)


def test_random_state_dims_enter_stream():
    a = random_state((2, 3), seed=5)
    b = random_state((3, 2), seed=5)
    assert a.coeff.shape != b.coeff.shape or not np.array_equal(a.coeff, b.coeff)


def test_entangled_flag():
    for seed in range(5):
        assert gns_check(random_state((2, 2), seed=seed, entangled=True))


def test_zero_dimension_rejected():
    with pytest.raises(errors.DimMismatch):
        random_state((0, 2), seed=0)


def test_entangled_needs_square_dims():
    with pytest.raises(errors.DimMismatch):
        random_state((2, 3), seed=0, entangled=True)


def test_substreams_are_independent():
    a = rng_for(1, 0).standard_normal(4)
    b = rng_for(1, 1).standard_normal(4)
    assert not np.allclose(a, b)


def test_random_unitary_is_unitary():
    u = random_unitary(rng_for(2), 5)
    assert np.linalg.norm(u @ u.conj().T - np.eye(5)) < 1e-12


def test_random_psd_is_psd():
    m = random_psd(rng_for(3), 4)
    assert np.linalg.eigvalsh(m).min() > -1e-12
