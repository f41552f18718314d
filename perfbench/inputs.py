"""Seeded benchmark inputs, built with numpy alone and written by our own JSON writer.

Nothing here imports eprkit: the generator and the writer must not change
when the package changes, so that a parent commit and a change receive
byte-identical inputs for the same workload seed.  Every op draws from its
own stream (seed, workload tag, op index), so an op's inputs do not depend
on how many ops a run makes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MODULAR_TAG, SESSION_TAG, SWEEP_TAG = 2, 3, 4

MODULAR_DIM = 24
CHANNEL_DIMS = (2, 3, 4, 6)
CHAIN_DIMS = (2, 3)
SESSION_MODULAR_DIMS = (4, 6, 8)
GRADED_EXPONENTS = (2, 4, 6)   # Schmidt spectra logspace(0, -k, d)
GRADED_EVERY = 4               # one session in four uses graded states


def rng_for(seed: int, tag: int, index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), tag, int(index)])


def complex_normal(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def unit(a: np.ndarray) -> np.ndarray:
    return a / np.linalg.norm(a)


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(complex_normal(rng, n, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def gaussian_state(rng, da: int, db: int) -> np.ndarray:
    """Unit coefficient matrix with IID complex normal entries."""
    return unit(complex_normal(rng, da, db))


def graded_state(rng, da: int, db: int, k: int) -> np.ndarray:
    """Unit coefficient matrix whose Schmidt coefficients are logspace(0, -k, min(da, db))."""
    m = min(da, db)
    sigma = unit(np.logspace(0, -k, m))
    u = haar_unitary(rng, da)[:, :m]
    v = haar_unitary(rng, db)[:, :m]
    return (u * sigma) @ v.conj().T


# --- JSON writer for the README formats -------------------------------------

def matrix_json(a) -> dict:
    a = np.asarray(a, dtype=np.complex128)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "data": [[float(z.real), float(z.imag)] for z in a.reshape(-1)],
    }


def state_json(c) -> dict:
    return {"dim_a": int(c.shape[0]), "dim_b": int(c.shape[1]), "coeff": matrix_json(c)}


def encode(obj) -> bytes:
    return (json.dumps(obj) + "\n").encode("utf-8")


# --- op lists ----------------------------------------------------------------

@dataclass
class CliOp:
    """One op of CLI commands run through eprkit.cli.main, each writing --out."""

    commands: list[tuple[str, list[str]]]   # (subcommand, argv without --out)
    input_bytes: int = 0


@dataclass
class ModularOp:
    phi: np.ndarray
    psi: np.ndarray
    probe_a: np.ndarray   # unit-Frobenius-norm operator A for the defining relation
    probe_v: np.ndarray   # unit vector for the J comparison


@dataclass
class OpList:
    ops: list
    digest: str
    files: dict[str, bytes] = field(default_factory=dict)

    def write(self, root: Path):
        for name, data in self.files.items():
            (root / name).write_bytes(data)


def verify_ops(seed: int, n: int) -> OpList:
    """`eprkit verify --seed s` at its defaults, s = workload seed + op index."""
    ops = [CliOp([("verify", ["verify", "--seed", str(seed + i)])]) for i in range(n)]
    h = hashlib.sha256()
    for op in ops:
        h.update(encode(op.commands))
    return OpList(ops, h.hexdigest())


def modular_ops(seed: int, n: int) -> OpList:
    """One (phi, psi) pair at d = MODULAR_DIM per op; psi has full-rank Gaussian coefficients."""
    d = MODULAR_DIM
    ops = []
    h = hashlib.sha256()
    for i in range(n):
        rng = rng_for(seed, MODULAR_TAG, i)
        op = ModularOp(
            phi=gaussian_state(rng, d, d),
            psi=gaussian_state(rng, d, d),
            probe_a=unit(complex_normal(rng, d, d)),
            probe_v=unit(complex_normal(rng, d * d)),
        )
        for a in (op.phi, op.psi, op.probe_a, op.probe_v):
            h.update(a.tobytes())
        ops.append(op)
    return OpList(ops, h.hexdigest())


def session_ops(seed: int, n: int) -> OpList:
    """Sessions of epr, teleport, luders --nu, chain and modular on seeded input files."""
    files: dict[str, bytes] = {}
    ops = []
    h = hashlib.sha256()
    for i in range(n):
        rng = rng_for(seed, SESSION_TAG, i)
        # The session mix is stratified by op index, so every run holds the same
        # share of graded sessions per exponent and of each modular dimension;
        # dimensions of the channels and all states are drawn from the seed.
        graded = i % GRADED_EVERY == GRADED_EVERY - 1
        k = GRADED_EXPONENTS[(i // GRADED_EVERY) % len(GRADED_EXPONENTS)] if graded else 0
        dm = SESSION_MODULAR_DIMS[i % len(SESSION_MODULAR_DIMS)]

        def state(da, db):
            return graded_state(rng, da, db, k) if k else gaussian_state(rng, da, db)

        da, db, dc = (int(x) for x in rng.choice(CHANNEL_DIMS, size=3))
        rank = 1 + int(rng.integers(da * db))
        basis = haar_unitary(rng, da * db)[:, :rank]
        nu = complex_normal(rng, da, da)
        nu = nu @ nu.conj().T
        chain_dims = [int(x) for x in rng.choice(CHAIN_DIMS, size=5)]
        content = {
            "epr": state_json(state(da, db)),
            "psi_ab": state_json(state(da, db)),
            "phi_bc": state_json(state(db, dc)),
            "luders": {
                "psis": [state_json(basis[:, j].reshape(da, db)) for j in range(rank)],
                "phi_bc": state_json(state(db, dc)),
            },
            "nu": matrix_json(nu / np.trace(nu).real),
            "chain": {
                "stages": [state_json(state(a, b)) for a, b in zip(chain_dims, chain_dims[1:])]
            },
            "mod_phi": state_json(state(dm, dm)),
            "mod_psi": state_json(state(dm, dm)),
        }
        path = {key: f"s{i}-{key}.json" for key in content}
        op_bytes = 0
        for key, obj in content.items():
            data = encode(obj)
            files[path[key]] = data
            h.update(data)
            op_bytes += len(data)
        ops.append(
            CliOp(
                commands=[
                    ("epr", ["epr", path["epr"]]),
                    ("teleport", ["teleport", path["psi_ab"], path["phi_bc"]]),
                    ("luders", ["luders", path["luders"], "--nu", path["nu"]]),
                    ("chain", ["chain", path["chain"]]),
                    ("modular", ["modular", path["mod_phi"], path["mod_psi"]]),
                ],
                input_bytes=op_bytes,
            )
        )
    return OpList(ops, h.hexdigest(), files)


def sweep_pair(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The (phi, psi) pair of the d-sweep; fixed, independent of the workload seed."""
    rng = rng_for(0, SWEEP_TAG, d)
    return gaussian_state(rng, d, d), gaussian_state(rng, d, d)
