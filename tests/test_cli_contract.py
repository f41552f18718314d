"""The exit-code contract of the five checking subcommands, as a derandomized property test.

Valid inputs, written with formats.bipartite_to_json and run through
cli.main in process, must exit 0 with exactly one summary line on stderr,
nothing on stdout and a report that parses as strict JSON.  The inputs:
dims 1-6; unit Gaussian states and graded Schmidt spectra logspace(0, -k, m),
k in {2, 4}; Lüders channels on 1 to d_a·d_b columns of a Haar basis;
two-hop chains; and for modular a full-rank square psi.  Four large-norm
inputs that still exit 3 are marked as expected failures of ROADMAP item 1,
and a chain whose dense oracle passes its size limit as one of item 4.
Those four inputs and two tiny modular psi, all of which exit 3, must print
the summary line and then one "error:" line that names an identity.

Invalid inputs, the same valid inputs made wrong in one place (a state's
declared shape or one [re, im] pair, a NaN or Infinity token, a truncated
file, bytes that are not UTF-8, an odd-length chain, operands whose dims do
not fit together), must exit 2 with nothing on stdout, no report and one
"error:" line on stderr that names the file or the operand; a dims mismatch
names the operands on both sides.
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
from eprkit.verify import TOLERANCES

from util import bell, complex_normal, random_unitary, strict_json

SUMMARY = {  # how each subcommand's summary line starts
    "epr": "state (",
    "teleport": "teleport map ",
    "luders": "channel of rank ",
    "chain": "chain map ",
    "modular": "modular triple on ",
}
DIMS = st.integers(1, 6)
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


def encoded(objs: list) -> list[bytes]:
    return [json.dumps(obj).encode() for obj in objs]


def run(command: str, texts: list[bytes]) -> tuple[int, str, str, str | None]:
    """main on the texts written to files <dir>/input0.json, ...: the exit code, stdout, stderr and the report text."""
    with tempfile.TemporaryDirectory() as work:
        paths = [Path(work, f"input{k}.json") for k in range(len(texts))]
        for path, text in zip(paths, texts):
            path.write_bytes(text)
        report, out, err = Path(work, "report.json"), io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, *map(str, paths), "--out", str(report)])
        text = report.read_text() if report.exists() else None
        return code, out.getvalue(), err.getvalue().replace(work, "<dir>"), text


def assert_contract(command: str, objs: list):
    code, out, err, report = run(command, encoded(objs))
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


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="ROADMAP item 4: the chain oracle refuses total dimension 6^5 > 4096"
)
def test_chain_beyond_the_dense_oracle_limit_exits_0():
    assert_contract("chain", [{"stages": [bipartite_to_json(bell(6))] * 4}])


def small_psi(k: int) -> dict:
    """10^-k·G, with G the complex Gaussian 2×2 of numpy.random.default_rng(3): tiny, but completely entangled."""
    rng = np.random.default_rng(3)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return bipartite_to_json(BipartiteVector(10.0**-k * g))


EXIT_3 = {**LARGE_NORMS, "modular-psi-1e-90": ("modular", [BELL, small_psi(90)]),
          "modular-psi-1e-100": ("modular", [BELL, small_psi(100)])}


@pytest.mark.parametrize("name", list(EXIT_3))
def test_exit_3_prints_the_summary_then_names_an_identity(name):
    """Exit 3: one summary line, then one "error:" line naming an identity; a null residual makes the max nan."""
    command, objs = EXIT_3[name]
    code, out, err, report = run(command, encoded(objs))
    lines = err.splitlines()
    assert (code, out, len(lines)) == (3, "", 2) and err.endswith("\n"), err
    assert lines[0].startswith(SUMMARY[command]) and lines[1].startswith("error: "), err
    assert any(identity in lines[1] for identity in TOLERANCES), err
    if None in strict_json(report).get("residuals", {}).values():  # epr and modular report each identity's residual
        assert lines[0].endswith("max residual nan"), err


# Invalid inputs (ROADMAP item 15): each must exit 2 with one "error:" line naming the file or the operand.
def operands(command: str, objs: list) -> list[tuple[int, list, str]]:
    """Each state of a valid invocation as (file index, key path within the file's object, its name in messages)."""
    if command == "epr":
        return [(0, [], "state")]
    if command == "teleport":
        return [(0, [], "psi_ab"), (1, [], "phi_bc")]
    if command == "luders":
        return [(0, ["psis", k], f"psis[{k}]") for k in range(len(objs[0]["psis"]))] + [(0, ["phi_bc"], "phi_bc")]
    if command == "chain":
        return [(0, ["stages", k], f"stages[{k}]") for k in range(len(objs[0]["stages"]))]
    return [(0, [], "phi"), (1, [], "psi")]


def state_at(objs: list, where: tuple) -> dict:
    obj = objs[where[0]]
    for key in where[1]:
        obj = obj[key]
    return obj


@st.composite
def misshapen(draw, command: str) -> tuple[list, str]:
    """A valid invocation with one state's declared dims, row count or one [re, im] pair made wrong; its name."""
    objs = draw(inputs(command))
    where = draw(st.sampled_from(operands(command, objs)))
    state = state_at(objs, where)
    how = draw(st.sampled_from(["dim_a", "dim_b", "rows", "pair"]))
    if how == "rows":
        state["coeff"]["rows"] += draw(st.integers(1, 3))
    elif how == "pair":
        k = draw(st.integers(0, len(state["coeff"]["data"]) - 1))
        state["coeff"]["data"][k] = (state["coeff"]["data"][k] + [0.0])[: draw(st.sampled_from([1, 3]))]
    else:
        state[how] += draw(st.sampled_from([-1, 1, 2]))
    return objs, where[2]


@st.composite
def non_finite(draw, command: str) -> tuple[list, str]:
    """A valid invocation with one real or imaginary part of one state written as a NaN or Infinity token."""
    objs = draw(inputs(command))
    where = draw(st.sampled_from(operands(command, objs)))
    data = state_at(objs, where)["coeff"]["data"]
    k = draw(st.integers(0, len(data) - 1))
    data[k][draw(st.integers(0, 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return objs, where[2]


def assert_refused(command: str, texts: list[bytes], *named: str):
    """Exit 2, nothing on stdout, no report, and one stderr line, "error: ...", that holds every name in `named`."""
    code, out, err, report = run(command, texts)
    assert (code, out, report) == (2, "", None), err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    assert all(name in err for name in named), (named, err)


INVALID = settings(max_examples=15, deadline=None, derandomize=True, database=None)


@pytest.mark.parametrize("command", list(SUMMARY))
@INVALID
@given(data=st.data())
def test_misshapen_state_exits_2_naming_it(command, data):
    objs, name = data.draw(misshapen(command))
    assert_refused(command, encoded(objs), name)


@pytest.mark.parametrize("command", list(SUMMARY))
@INVALID
@given(data=st.data())
def test_nan_or_infinity_token_exits_2_naming_the_state(command, data):
    objs, name = data.draw(non_finite(command))
    texts = encoded(objs)
    assert any(token in text for text in texts for token in (b"NaN", b"Infinity"))
    assert_refused(command, texts, name)


@pytest.mark.parametrize("command", list(SUMMARY))
@INVALID
@given(data=st.data())
def test_truncated_json_exits_2_naming_the_file(command, data):
    texts = encoded(data.draw(inputs(command)))
    k = data.draw(st.integers(0, len(texts) - 1))
    texts[k] = texts[k][: data.draw(st.integers(0, len(texts[k]) - 1))]
    assert_refused(command, texts, f"<dir>/input{k}.json")


@pytest.mark.parametrize("command", list(SUMMARY))
@INVALID
@given(data=st.data())
def test_non_utf8_bytes_exit_2_naming_the_file(command, data):
    texts = encoded(data.draw(inputs(command)))
    k = data.draw(st.integers(0, len(texts) - 1))
    at = data.draw(st.integers(0, len(texts[k])))
    bad = data.draw(st.sampled_from([b"\xff", b"\xfe", b"\x80", b"\xc3(", b"\xed\xa0\x80"]))
    texts[k] = texts[k][:at] + bad + texts[k][at:]
    assert_refused(command, texts, f"<dir>/input{k}.json")


@INVALID
@given(data=st.data())
def test_odd_length_chain_exits_2_naming_the_stages(data):
    (spec,) = data.draw(inputs("chain"))
    spec["stages"] = spec["stages"][: data.draw(st.sampled_from([1, 3]))]
    assert_refused("chain", encoded([spec]), "stages")


MISMATCHED = {  # states of dims that each fit alone but not together, and the operands the refusal must name
    "teleport-psi-phi": ("teleport", [BELL, bipartite_to_json(bell(3))], ("psi_ab", "phi_bc")),
    "luders-psis": ("luders", [{"psis": [BELL, bipartite_to_json(BipartiteVector(np.eye(2, 3)))], "phi_bc": BELL}],
                    ("psis[1]", "psis[0]")),
    "luders-psis-phi": ("luders", [{"psis": [BELL], "phi_bc": bipartite_to_json(bell(3))}], ("psis", "phi_bc")),
    "chain-stages": ("chain", [{"stages": [BELL, bipartite_to_json(bell(3))]}], ("stages[1]", "stages[0]")),
    "modular-phi-psi": ("modular", [BELL, bipartite_to_json(bell(3))], ("phi", "psi")),
}


@pytest.mark.parametrize("name", list(MISMATCHED))
def test_mismatched_dims_exit_2_naming_the_operand(name):
    command, objs, named = MISMATCHED[name]
    assert_refused(command, encoded(objs), *named)
