"""Print the exit code and the SHA-256 of the report and of stderr for a fixed set of eprkit invocations.

The set is `eprkit verify --seed s` for s = 1..100, three verify runs beyond
the default dims (`--seed 1 --dims 16 --trials 8`, `--seed 2 --dims 1 5
--trials 9`, and `--seed 3 --dims 1 2 --trials 40`, whose Lüders groups mix
full-basis and rank-one channels at da·db = 1, 2 and 4), the 1765
commands of the seed-1 `cli-session` benchmark list
(`perfbench/inputs.session_ops(1, 353)`, read only) and ten hand-made edge
inputs: `modular` on a Bell φ and ψ = 10^-k·G for k = 50, 90, 100 and 160,
with G the complex Gaussian 2×2 of `numpy.random.default_rng(3)`, and `epr`
on, and `modular` with φ, the 2×2 state with every entry 1e150; two
large-ancilla inputs, `luders` with a Bell ψ and the 2×2 ancilla with every
entry 1e100, and `chain` on [Bell, that ancilla]; `modular` on a Bell φ
and the product ψ = e₀⊗e₀ (exit 2, not completely entangled); and `modular`
on φ with every entry 9e153 and ψ = 1.2e-154·Bell, whose finite factors
overflow in the factor routes.  These reach the overflow, NaN and refusal
paths.  Nine refusals (exit 2) digest the
`error:` lines that name operands: operands of dims that do not fit together
(`luders` with a 2×2 Bell `psis` and a 3×3 `phi_bc`, `chain` on [2×2 Bell,
3×3 Bell], `modular` on that pair), a `teleport` whose `psi_ab` is twice a
Bell state, a `luders` whose `psis` holds one Bell state twice, an empty
`psis` and an empty `stages`, and a `teleport` `phi_bc` and a `chain`
`stages[1]` with every entry 1e200, whose squared norms overflow.  Six
`random` runs digest the bits of `sampling.state_from_rng` and its
entanglement check: `--entangled` at dims 1 1 (seed 5), 2 2 (seed 7), 3 3
(seed 1) and 4 4 (seed 2), and dims 2 3 at seed 8 without it and with it
(exit 2).  1893 invocations in all.
Every invocation goes through `eprkit.cli.main` in process, with its input
files and reports in a temporary directory.  Run it once against each of
two source trees and diff the outputs: equal lines mean equal exit codes and
byte-identical reports and stderr.

    PYTHONPATH=src python3 tools/report_digests.py > digests.txt
    PYTHONPATH=/path/to/other/src python3 tools/report_digests.py > other.txt
    diff digests.txt other.txt

One line per invocation: the argv, the exit code (`raised <ExceptionType>`
when `main` raises instead of returning one), the report digest (`-` when
no report was written) and the digest of what `main` wrote to stderr (the
summary, or the `error:` line).  The eprkit tree in use is named on stderr.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
import json
import traceback
from pathlib import Path

import numpy as np

# Before the first eprkit or perfbench import: write no bytecode caches into the source tree under
# test or into perfbench/, since a stray cache changes the import time that perfbench's setup_s measures.
sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
SEEDS = 100      # eprkit verify --seed 1..SEEDS
SESSIONS = 353   # seed-1 cli-session ops, five commands each
EDGE_K = (50, 90, 100, 160)  # modular's psi = 10^-k G


def _state(coeff: np.ndarray) -> dict:
    """The bipartite vector JSON object of a 2-D coefficient matrix, built without eprkit."""
    rows, cols = coeff.shape
    data = [[float(z.real), float(z.imag)] for z in coeff.ravel()]
    return {"dim_a": rows, "dim_b": cols, "coeff": {"rows": rows, "cols": cols, "data": data}}


def _json(obj) -> bytes:
    return json.dumps(obj).encode()


def edge_inputs() -> tuple[list[list[str]], dict[str, bytes]]:
    """The hand-made edge invocations and their input files."""
    rng = np.random.default_rng(3)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    bell, ancilla = _state(np.eye(2) / np.sqrt(2)), _state(np.full((2, 2), 1e100))
    files = {f"edge-psi-{k}.json": _json(_state(10.0**-k * g)) for k in EDGE_K}
    files["edge-bell.json"] = _json(bell)
    files["edge-big.json"] = _json(_state(np.full((2, 2), 1e150)))
    files["edge-luders.json"] = _json({"psi_ab": bell, "phi_bc": ancilla})
    files["edge-chain.json"] = _json({"stages": [bell, ancilla]})
    files["edge-product.json"] = _json(_state(np.diag([1.0, 0.0])))
    argvs = [["modular", "edge-bell.json", f"edge-psi-{k}.json"] for k in EDGE_K] + [["epr", "edge-big.json"]]
    argvs += [["modular", "edge-big.json", "edge-bell.json"], ["modular", "edge-bell.json", "edge-product.json"]]
    argvs += [["luders", "edge-luders.json"], ["chain", "edge-chain.json"]]
    files["edge-9e153.json"] = _json(_state(np.full((2, 2), 9e153)))
    files["edge-small-bell.json"] = _json(_state(1.2e-154 * np.eye(2) / np.sqrt(2)))
    argvs += [["modular", "edge-9e153.json", "edge-small-bell.json"]]
    bell3, overflowing = _state(np.eye(3) / np.sqrt(3)), _state(np.full((2, 2), 1e200))
    refused = {
        "luders-mismatch": {"psis": [bell], "phi_bc": bell3},
        "chain-mismatch": {"stages": [bell, bell3]},
        "luders-not-orthonormal": {"psis": [bell, bell], "phi_bc": bell},
        "luders-empty": {"psis": [], "phi_bc": bell},
        "chain-empty": {"stages": []},
        "chain-overflowing": {"stages": [bell, overflowing]},
    }
    files.update({f"edge-{name}.json": _json(obj) for name, obj in refused.items()})
    files["edge-bell3.json"], files["edge-overflowing.json"] = _json(bell3), _json(overflowing)
    files["edge-double.json"] = _json(_state(2 * np.eye(2) / np.sqrt(2)))
    argvs += [[name.partition("-")[0], f"edge-{name}.json"] for name in refused]
    argvs += [["modular", "edge-bell.json", "edge-bell3.json"], ["teleport", "edge-double.json", "edge-bell.json"]]
    argvs += [["teleport", "edge-bell.json", "edge-overflowing.json"]]
    randoms = [("1 1", 5, True), ("2 2", 7, True), ("3 3", 1, True), ("4 4", 2, True)]
    randoms += [("2 3", 8, False), ("2 3", 8, True)]
    for dims, seed, entangled in randoms:
        argvs += [["random", "--dims", *dims.split(), "--seed", str(seed)] + ["--entangled"] * entangled]
    return argvs, files


def invocations() -> tuple[list[list[str]], dict[str, bytes]]:
    """The argv of every invocation, and the input files the session commands read."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs

    ops = inputs.session_ops(1, SESSIONS)
    argvs = [["verify", "--seed", str(s)] for s in range(1, SEEDS + 1)]
    argvs += [["verify", "--seed", "1", "--dims", "16", "--trials", "8"]]
    argvs += [["verify", "--seed", "2", "--dims", "1", "5", "--trials", "9"]]
    argvs += [["verify", "--seed", "3", "--dims", "1", "2", "--trials", "40"]]
    argvs += [argv for op in ops.ops for _, argv in op.commands]
    edge_argvs, edge_files = edge_inputs()
    return argvs + edge_argvs, {**ops.files, **edge_files}


def main() -> int:
    import eprkit
    from eprkit.cli import main as eprkit_main

    print(f"eprkit from {Path(eprkit.__file__).parent}", file=sys.stderr)
    argvs, files = invocations()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, data in files.items():
                Path(name).write_bytes(data)
            for cmd in argvs:
                out = Path("report.json")
                out.unlink(missing_ok=True)
                err = io.StringIO()
                try:
                    with contextlib.redirect_stderr(err):
                        code = eprkit_main(cmd + ["--out", str(out)])
                except (Exception, SystemExit) as exc:  # a crash shows as one differing line, not the end of the run
                    traceback.print_exc()
                    code = f"raised {type(exc).__name__}"
                digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else "-"
                err_digest = hashlib.sha256(err.getvalue().encode("utf-8")).hexdigest()
                print(f"{' '.join(cmd)}\t{code}\t{digest}\t{err_digest}")
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
