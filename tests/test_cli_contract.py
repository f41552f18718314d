"""The exit-code contract of the five checking subcommands, as a derandomized property test.

Valid inputs, written with formats.bipartite_to_json and run through
cli.main in process, must exit 0 with exactly one summary line on stderr,
nothing on stdout and a report that parses as strict JSON.  The inputs:
dims 1-4; unit Gaussian states and graded Schmidt spectra logspace(0, -k, m),
k in {2, 4}; Lüders channels on 1 to d_a·d_b columns of a Haar basis;
two-hop chains; and for modular a full-rank square psi.  Four large-norm
inputs that still exit 3 are marked as expected failures of ROADMAP item 1.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprkit.bipartite import BipartiteVector
from eprkit.cli import main
from eprkit.formats import bipartite_to_json

from util import bell, complex_normal, random_unitary, strict_json

SUMMARY = {  # how each subcommand's summary line starts
    "epr": "state (",
    "teleport": "teleport map ",
    "luders": "channel of rank ",
    "chain": "chain map ",
    "modular": "modular triple on ",
}
DIMS = st.integers(1, 4)
SPECTRA = st.sampled_from([None, 2, 4])  # a unit Gaussian state, or the graded spectrum logspace(0, -k, m)
SEEDS = st.integers(0, 2**32 - 1)


def coeff(rng: np.random.Generator, da: int, db: int, k: int | None) -> np.ndarray:
    """A unit coefficient matrix: Gaussian, or Haar singular vectors around logspace(0, -k, min(da, db))."""
    if k is None:
        c = complex_normal(rng, da, db)
        return c / np.linalg.norm(c)
    m = min(da, db)
    s = np.logspace(0, -k, m)
    return (random_unitary(rng, da)[:, :m] * (s / np.linalg.norm(s))) @ random_unitary(rng, db)[:m, :]


@st.composite
def states(draw, da: int, db: int) -> dict:
    k, seed = draw(SPECTRA), draw(SEEDS)
    return bipartite_to_json(BipartiteVector(coeff(np.random.default_rng(seed), da, db, k)))


@st.composite
def inputs(draw, command: str) -> list[dict]:
    """The JSON objects of one valid invocation of `command`, one per input file."""
    da, db, dc = draw(DIMS), draw(DIMS), draw(DIMS)
    if command == "epr":
        return [draw(states(da, db))]
    if command == "teleport":
        return [draw(states(da, db)), draw(states(db, dc))]
    if command == "luders":
        rank, seed = draw(st.integers(1, da * db)), draw(SEEDS)
        basis = random_unitary(np.random.default_rng(seed), da * db)
        psis = [bipartite_to_json(BipartiteVector(col.reshape(da, db))) for col in basis.T[:rank]]
        return [{"psis": psis, "phi_bc": draw(states(db, dc))}]
    if command == "chain":
        d = [da, db, dc, draw(DIMS), draw(DIMS)]
        return [{"stages": [draw(states(d[k], d[k + 1])) for k in range(4)]}]
    full_rank = bipartite_to_json(BipartiteVector(coeff(np.random.default_rng(draw(SEEDS)), da, da, draw(SPECTRA))))
    return [draw(states(da, da)), full_rank]


def run(command: str, objs: list) -> tuple[int, str, str, str | None]:
    """main on the objects written to files: the exit code, stdout, stderr and the report text."""
    with tempfile.TemporaryDirectory() as work:
        paths = [Path(work, f"input{k}.json") for k in range(len(objs))]
        for path, obj in zip(paths, objs):
            path.write_text(json.dumps(obj))
        report, out, err = Path(work, "report.json"), io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, *map(str, paths), "--out", str(report)])
        return code, out.getvalue(), err.getvalue(), report.read_text() if report.exists() else None


def assert_contract(command: str, objs: list):
    code, out, err, report = run(command, objs)
    assert (code, out) == (0, ""), err
    assert err.startswith(SUMMARY[command]) and err.count("\n") == 1 and err.endswith("\n"), err
    assert isinstance(strict_json(report), dict)


@pytest.mark.parametrize("command", list(SUMMARY))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_valid_input_exits_0_with_one_summary_line_and_strict_json(command, data):
    assert_contract(command, data.draw(inputs(command)))


BELL = bipartite_to_json(bell(2))
BIG, ANCILLA = (bipartite_to_json(BipartiteVector(np.full((2, 2), x))) for x in (1e150, 1e100))
LARGE_NORMS = {
    "epr-1e150": ("epr", [BIG]),
    "modular-phi-1e150": ("modular", [BIG, BELL]),
    "luders-ancilla-1e100": ("luders", [{"psi_ab": BELL, "phi_bc": ANCILLA}]),
    "chain-ancilla-1e100": ("chain", [{"stages": [BELL, ANCILLA]}]),
}


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="ROADMAP item 1: residuals held to absolute bounds fail at large norms"
)
@pytest.mark.parametrize("name", list(LARGE_NORMS))
def test_large_norm_input_exits_0(name):
    assert_contract(*LARGE_NORMS[name])
