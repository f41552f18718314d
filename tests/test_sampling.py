"""Tests for seeded state and operator generation."""

import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from eprkit import errors
from eprkit import sampling
from eprkit.bipartite import BipartiteVector
from eprkit.modular import gns_check
from eprkit.sampling import (
    complex_from,
    haar,
    normal_count,
    random_state,
    rng_for,
    split_complex,
    state_from_rng,
    trial_rngs,
    unit,
)

from util import complex_normal, random_psd, random_unit_vector, random_unitary


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


# The samplers as they were defined before draws and assembly were split,
# one generator call per real or imaginary part and all arithmetic per call.
def sequential_complex_normal(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def sequential_unit(v):
    return v / np.linalg.norm(v)


def sequential_unitary(rng, dim):
    q, r = np.linalg.qr(sequential_complex_normal(rng, dim, dim))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def sequential_psd(rng, dim):
    a = sequential_complex_normal(rng, dim, dim)
    return a @ a.conj().T


def sequential_coeff(rng, dim_a, dim_b, entangled=False):
    while True:
        c = sequential_unit(sequential_complex_normal(rng, dim_a, dim_b))
        if not entangled or gns_check(BipartiteVector(c)):
            return c


PER_CALL = {
    "complex_normal": (complex_normal, sequential_complex_normal, (3, 2)),
    "random_unit_vector": (random_unit_vector, lambda rng, d: sequential_unit(sequential_complex_normal(rng, d)), (5,)),
    "random_unitary": (random_unitary, sequential_unitary, (4,)),
    "random_psd": (random_psd, sequential_psd, (3,)),
    "state_from_rng": (lambda rng, *dims: state_from_rng(rng, *dims).coeff, sequential_coeff, (2, 3)),
    "state_from_rng-entangled": (
        lambda rng, *dims: state_from_rng(rng, *dims, entangled=True).coeff,
        partial(sequential_coeff, entangled=True),
        (3, 3),
    ),
}


@pytest.mark.parametrize("name", PER_CALL)
def test_per_call_sampler_matches_the_sequential_draws(name):
    sampler, sequential, args = PER_CALL[name]
    for seed in range(5):
        rng, seq_rng = rng_for(seed, 9), rng_for(seed, 9)
        for _ in range(3):
            assert np.array_equal(sampler(rng, *args), sequential(seq_rng, *args))
        assert rng.bit_generator.state == seq_rng.bit_generator.state


@pytest.mark.parametrize("d", [2, 3, 4, 6, 9])
def test_stacked_assembly_matches_the_sequential_draws(d):
    """Raw normals per trial, one call each, assembled as one stack: the bits of per-call draws."""
    trials, shapes = 12, [(d, d), (d,), (d, d), (d, d), (d, 2)]
    raw, want = [], []
    for t in range(trials):
        rng, seq_rng = rng_for(3, d, t), rng_for(3, d, t)
        raw.append(rng.standard_normal(normal_count(*shapes)))
        want.append(
            (
                sequential_unitary(seq_rng, d),
                sequential_unit(sequential_complex_normal(seq_rng, d)),
                sequential_psd(seq_rng, d),
                sequential_complex_normal(seq_rng, d, d),
                sequential_coeff(seq_rng, d, 2),
            )
        )
        assert rng.bit_generator.state == seq_rng.bit_generator.state
    u, v, a, m, c = split_complex(np.stack(raw), *shapes)
    assert all(z.flags.c_contiguous for z in (u, v, a, m, c))  # complex_from's order: stacked products keep their bits
    got = (haar(u), unit(v), a @ a.conj().mT, m, unit(c, 2))
    for k, stack in enumerate(got):
        assert np.array_equal(stack, np.stack([w[k] for w in want])), k


def test_entangled_state_from_rng_redraws_until_gns_check_accepts(monkeypatch):
    calls = []

    def reject_twice(c):
        calls.append(c)
        return len(calls) > 2

    monkeypatch.setattr(sampling, "gns_check", reject_twice)
    rng, seq_rng = rng_for(4), rng_for(4)
    psi = state_from_rng(rng, 2, 2, entangled=True)
    for _ in range(3):
        want = sequential_coeff(seq_rng, 2, 2)
    assert len(calls) == 3 and np.array_equal(psi.coeff, want)
    assert rng.bit_generator.state == seq_rng.bit_generator.state

SRC = str(Path(sampling.__file__).resolve().parent.parent)


# Seeds of one to three uint32 words; zero to three stream tags per call, the last list past one word;
# trials up to the last one-word index.
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 10**20]
STREAMS = [(), (120,), (40, 7), (1, 2, 3), (5, 2**32 + 1)]
TRIALS = [0, 1, 99, 2**32 - 1]


def assert_rng_for_draws(rngs, seed, streams, trials):
    """rngs, trial_rngs(seed, streams, trials), against rng_for draw for draw: the same draws, then the same state."""
    assert list(rngs) == list(dict.fromkeys(streams))
    for s in streams:
        got = list(rngs[s])
        assert len(got) == len(trials)
        for t, rng in zip(trials, got):
            want = rng_for(seed, s, t)
            assert np.array_equal(rng.standard_normal(5), want.standard_normal(5))
            assert rng.bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize("stream", STREAMS, ids=str)
@pytest.mark.parametrize("seed", SEEDS)
def test_trial_rngs_equal_rng_for(seed, stream):
    """The vectorized seeding of every (stream, trial) column in one call against the one-call definition."""
    assert_rng_for_draws(trial_rngs(seed, stream, TRIALS), seed, stream, TRIALS)


def test_trial_rngs_outside_one_word_trials():
    assert_rng_for_draws(trial_rngs(3, [40, 90], [7, 2**32, 0]), 3, [40, 90], [7, 2**32, 0])
    assert [list(v) for v in trial_rngs(3, [40], []).values()] == [[]]
    assert trial_rngs(3, [], [0, 1]) == {}
    for seed, stream, trial in [(-1, 40, 0), (3, -40, 0), (3, 40, -1)]:
        with pytest.raises(ValueError, match="non-negative"):
            next(trial_rngs(seed, [stream], [trial])[stream])


def test_trial_rngs_build_each_generator_as_its_trial_is_reached(monkeypatch):
    built, plain = [], np.random.PCG64
    monkeypatch.setattr(np.random, "PCG64", lambda seq: built.append(seq) or plain(seq))
    rngs = trial_rngs(1, [5, 10], range(100))
    assert built == []
    first = next(rngs[10])
    assert len(built) == 1 and first.bit_generator.state == rng_for(1, 10, 0).bit_generator.state


def old_complex_from(x, *shape):
    """complex_from as it was: the two halves assembled as re + 1j·im, then divided by sqrt(2)."""
    n = x.shape[-1] // 2
    return ((x[..., :n] + 1j * x[..., n:]) / np.sqrt(2.0)).reshape(*x.shape[:-1], *shape)


def raw_stacks():
    """Random finite normals in C order, Fortran order, as a strided view, in 1-D, and empty; with their shapes."""
    rng = rng_for(7, 31)
    c = rng.standard_normal((6, 3, 18)) * np.exp(rng.uniform(-30, 30, (6, 3, 18)))
    yield "C", c, (3, 3)
    yield "Fortran", np.asfortranarray(c), (9,)
    yield "strided", rng.standard_normal((12, 5, 40))[::3, 1:4, 4::2], (3, 1, 3)
    yield "1-D", rng.standard_normal(32), (4, 4)
    yield "empty stack", np.zeros((0, 8)), (2, 2)
    yield "empty shape", np.zeros((4, 0)), (0,)


@pytest.mark.parametrize("case", [name for name, *_ in raw_stacks()])
def test_complex_from_has_the_bits_of_the_old_formula(case):
    (x, shape), = [(x, shape) for name, x, shape in raw_stacks() if name == case]
    got, want = complex_from(x, *shape), old_complex_from(x, *shape)
    assert got.dtype == np.complex128 and got.flags.c_contiguous and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_importing_eprkit_leaves_numpy_random_unimported():
    # trial_rngs builds its seed sequence type on first use, so the import time of eprkit stays as it was.
    code = "import sys, eprkit.cli; sys.exit('numpy.random' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC}, timeout=60).returncode == 0
