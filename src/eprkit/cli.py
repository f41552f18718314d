"""Command-line front end.

Subcommands: epr, teleport, luders, chain, modular, verify, random.  Each
returns a report, its identity results and a summary.  The five checking
subcommands (all but verify and random) only read their operands: the
family's verify.<family>_checks, run once through _checked (one ResidualTable,
the seeded probes, the residuals named without the family prefix), builds
and checks every operand derived from them.  main
alone writes the report as one line of compact, strict JSON (no timestamps:
byte-identical for the same invocation; a non-finite number is written as
null) on stdout or to --out, the summary on stderr, then checks.

Exit codes: 0 success, 2 invalid input, 3 residual beyond tolerance.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import formats as fm
from . import teleport as tp
from . import verify as vf
from .errors import EprkitError, FactorizationFailure, ParseError, ToleranceExceeded
from .sampling import normal_count, random_state, rng_for, split_complex, unit

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_TOLERANCE = 3

PROBE_COUNT = 8  # seeded probe vectors per residual check


def _fixed(x: float) -> str:
    """Six decimals, or from magnitude 1e6 on six in exponent form, not hundreds of digits."""
    return f"{x:.6e}" if abs(x) >= 1e6 else f"{x:.6f}"


def _probes(rng, *shapes) -> list[np.ndarray]:
    """One stack of PROBE_COUNT seeded unit probes per shape; row k of the one normal call holds probe k of each."""
    x = rng.standard_normal((PROBE_COUNT, normal_count(*shapes)))
    return [unit(z, len(shape)) for z, shape in zip(split_complex(x, *shapes), shapes)]


def _checked(args, stream: int | None, checks, operands, shapes=()) -> tuple:
    """One check run, checks(rec, *operands, *probes of shapes): its result, short-named residuals and results."""
    table = vf.ResidualTable()
    out = checks(table.record, *operands, *(_probes(rng_for(args.seed, stream), *shapes) if shapes else ()))
    results = table.results(args.tolerance)
    return out, {r.name.partition(".")[2]: r.residual for r in results}, results


def cmd_epr(args) -> tuple[dict, list[vf.IdentityResult], str]:
    psi = fm.bipartite_from_json(fm.load_json(args.state), "state")
    shapes = [(psi.dim_a,), (psi.dim_b,), (psi.dim_a, psi.dim_b)]
    (omega_a, omega_b), residuals, results = _checked(args, 1, vf.epr_checks, (psi,), shapes)
    report = {
        "s_ba": fm.antilinear_to_json(psi.s_ba),
        "s_ab": fm.antilinear_to_json(psi.s_ab),
        "omega_a": fm.matrix_to_json(omega_a),
        "omega_b": fm.matrix_to_json(omega_b),
        "norm_sq": psi.norm() ** 2,
        "residuals": residuals,
    }
    summary = f"state ({psi.dim_a}x{psi.dim_b}), max residual {max(residuals.values(), key=vf._rank):.3e}"
    return report, results, summary


def cmd_teleport(args) -> tuple[dict, list[vf.IdentityResult], str]:
    psi = fm.bipartite_from_json(fm.load_json(args.psi), "psi_ab")
    phi = fm.bipartite_from_json(fm.load_json(args.phi), "phi_bc")
    (tm, bound, tnf), residuals, results = _checked(args, 2, vf.teleport_checks, (psi, phi), [(psi.dim_a,)])
    report = {
        "t": fm.matrix_to_json(tm.t),
        "trace_norm": tnf.trace_norm,
        "fidelity": tnf.fidelity,
        "op_bound": bound,
        "oracle_residual": residuals["factorization"],
    }
    summary = (
        f"teleport map {tm.t.shape[0]}x{tm.t.shape[1]}: trace norm {_fixed(tnf.trace_norm)}, "
        f"fidelity {_fixed(tnf.fidelity)}, bound {_fixed(bound)}, oracle residual {residuals['factorization']:.3e}"
    )
    return report, results, summary


def cmd_luders(args) -> tuple[dict, list[vf.IdentityResult], str]:
    spec = fm.load_json(args.channel)
    if "psis" in spec:
        if not isinstance(spec["psis"], list) or not spec["psis"]:
            raise ParseError("channel spec 'psis' must be a non-empty list")
        psis = [fm.bipartite_from_json(p, f"psis[{k}]") for k, p in enumerate(spec["psis"])]
    elif "psi_ab" in spec:
        psis = [fm.bipartite_from_json(spec["psi_ab"], "psi_ab")]
    else:
        raise ParseError("channel spec needs 'psis' (list) or 'psi_ab'")
    if "phi_bc" not in spec:
        raise ParseError("channel spec needs 'phi_bc'")
    phi = fm.bipartite_from_json(spec["phi_bc"], "phi_bc")
    (ch, bounds), residuals, results = _checked(args, 3, vf.luders_checks, (psis, phi), [(psis[0].dim_a,)])
    decoupling = residuals["decoupling"]
    report = {
        "maps": [fm.matrix_to_json(t) for t in ch.maps],
        "rank": ch.rank,
        "ancilla_norm_sq": ch.ancilla_norm_sq,
        "op_bound": bounds.op_bound,
        "trace_bound": bounds.trace_bound,
        "decoupling_residual": decoupling,
    }
    if args.nu:
        nu = fm.matrix_from_json(fm.load_json(args.nu), "nu")
        report["output"] = fm.matrix_to_json(tp.luders_apply(ch, nu))
    summary = (
        f"channel of rank {ch.rank}: op bound {_fixed(bounds.op_bound)} "
        f"(ancilla norm sq {_fixed(ch.ancilla_norm_sq)}), decoupling residual {decoupling:.3e}"
    )
    return report, results, summary


def cmd_chain(args) -> tuple[dict, list[vf.IdentityResult], str]:
    raw = fm.load_json(args.chain).get("stages")
    if not isinstance(raw, list) or not raw:
        raise ParseError("chain spec needs a non-empty 'stages' list")
    stages = [fm.bipartite_from_json(s, f"stages[{k}]") for k, s in enumerate(raw)]
    t, residuals, results = _checked(args, 4, vf.chain_checks, (stages,), [(stages[0].dim_a,)])
    oracle_residual = residuals["factorization"]
    report = {"t": fm.matrix_to_json(t), "oracle_residual": oracle_residual}
    summary = f"chain map {t.shape[0]}x{t.shape[1]} over {len(stages) // 2} hops, oracle residual {oracle_residual:.3e}"
    return report, results, summary


def cmd_modular(args) -> tuple[dict, list[vf.IdentityResult], str]:
    phi, psi = (fm.bipartite_from_json(fm.load_json(f), what) for f, what in ((args.phi, "phi"), (args.psi, "psi")))
    (triple, _), residuals, results = _checked(args, None, vf.modular_checks, (phi, psi))
    report = {
        "S": fm.twisted_to_json(triple.s),
        "Delta": fm.kronecker_to_json(triple.delta),
        "J": fm.twisted_to_json(triple.j),
        "residuals": residuals,
    }
    summary = f"modular triple on {psi.dim_a}x{psi.dim_a}, max residual {max(residuals.values(), key=vf._rank):.3e}"
    return report, results, summary


def cmd_verify(args) -> tuple[dict, list[vf.IdentityResult], str]:
    results = vf.run_all(seed=args.seed, dims=args.dims, trials=args.trials, tolerance=args.tolerance)
    report = {
        "seed": args.seed,
        "dims": list(args.dims),
        "trials": args.trials,
        "results": [
            {
                "identity": r.name,
                "residual": r.residual,
                "tolerance": r.tolerance,
                "pass": r.passed,
                "worst": {"stream": r.worst[0], "trial": r.worst[1], "dims": list(r.worst[2])},
            }
            for r in results
        ],
        "pass": all(r.passed for r in results),
    }
    width = max(len(r.name) for r in results)
    lines = [
        f"{'ok  ' if r.passed else 'FAIL'} {r.name:<{width}}  {r.residual:.3e}  (tol {r.tolerance:.0e})"
        for r in results
    ]
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} identities within tolerance")
    return report, results, "\n".join(lines)


def cmd_random(args) -> tuple[dict, list[vf.IdentityResult], str]:
    if len(args.dims) != 2:
        raise ParseError("random needs exactly two dimensions, e.g. --dims 2 2")
    psi = random_state(args.dims, args.seed, entangled=args.entangled)
    return fm.bipartite_to_json(psi), [], f"random state ({psi.dim_a}x{psi.dim_b}), seed {args.seed}"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; main finds each subcommand's cmd_* function by name."""
    parser = argparse.ArgumentParser(
        prog="eprkit",
        description="Antilinear maps of bipartite states, teleportation channels, modular operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, checks=True):
        p.add_argument("--seed", type=int, default=42, help="seed for probe vectors (default 42)")
        if checks:
            p.add_argument(
                "--tolerance", type=float, help="one tolerance for every identity (default: each identity's own)"
            )
        p.add_argument("--out", default=None, help="write the JSON report to this file")

    p = sub.add_parser("epr", help="induced maps, reductions, and residuals of one state")
    p.add_argument("state", help="bipartite vector JSON file")
    common(p)

    p = sub.add_parser("teleport", help="channel matrix, norms, fidelity, oracle residual")
    p.add_argument("psi", help="measured vector psi_ab JSON file")
    p.add_argument("phi", help="ancilla phi_bc JSON file")
    common(p)

    p = sub.add_parser("luders", help="higher-rank measurement channel and its bounds")
    p.add_argument("channel", help="channel spec JSON file with 'psis' or 'psi_ab', and 'phi_bc'")
    p.add_argument("--nu", default=None, help="optional operator JSON file to push through the channel")
    common(p)

    p = sub.add_parser("chain", help="distributed multi-hop channel")
    p.add_argument("chain", help="chain spec JSON file with an even-length 'stages' list")
    common(p)

    p = sub.add_parser("modular", help="modular operators S, Delta, J of a state pair")
    p.add_argument("phi", help="target state phi JSON file")
    p.add_argument("psi", help="completely entangled state psi JSON file")
    common(p)

    p = sub.add_parser("verify", help="run every identity suite on seeded random instances")
    common(p)
    p.add_argument("--dims", type=int, nargs="+", default=(2, 3, 4), help="dimensions to sample")
    p.add_argument("--trials", type=int, default=100, help="trials per suite (default 100)")

    p = sub.add_parser("random", help="emit a seeded random bipartite vector")
    common(p, checks=False)
    p.add_argument("--dims", type=int, nargs="+", default=(2, 2), help="dim_a dim_b")
    p.add_argument("--entangled", action="store_true", help="rejection-sample until both reductions have full rank")

    return parser


def main(argv=None) -> int:
    """Run one subcommand; cmd_<command> is looked up at call time, so rebinding it takes effect."""
    args = build_parser().parse_args(argv)
    try:
        vf.check_arguments(
            args.seed, getattr(args, "dims", (1,)), getattr(args, "trials", 1), getattr(args, "tolerance", None)
        )
        report, results, summary = globals()[f"cmd_{args.command}"](args)
        try:
            text = json.dumps(report, allow_nan=False)
        except ValueError:  # a non-finite number: written as null, and only then is the report read back
            text = json.dumps(json.loads(json.dumps(report), parse_constant=lambda _: None))
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        print(summary, file=sys.stderr)
        vf.check_all(results)
        return EXIT_OK
    except (EprkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE if isinstance(exc, (ToleranceExceeded, FactorizationFailure)) else EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
