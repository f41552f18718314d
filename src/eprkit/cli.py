"""Command-line front end.

Subcommands: epr, teleport, luders, chain, modular, verify, random.  Each
returns a report, its identity results and a summary; main alone writes the
report as one line of compact JSON (no timestamps: byte-identical for the
same invocation) on stdout or to --out, the summary on stderr, then checks.

Exit codes: 0 success, 2 invalid input, 3 residual beyond tolerance.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import bipartite as bp
from . import formats as fm
from . import modular as md
from . import teleport as tp
from . import verify as vf
from .errors import EprkitError, FactorizationFailure, NonFinite, ParseError, ToleranceExceeded
from .sampling import normal_count, random_state, rng_for, split_complex, unit

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_TOLERANCE = 3

PROBE_COUNT = 8  # seeded probe vectors per residual check


def _emit(report: dict, out: str | None):
    text = json.dumps(report)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _say(msg: str):
    print(msg, file=sys.stderr)


def _state(obj, what: str, normed: bool = True) -> bp.BipartiteVector:
    """A state from its JSON object; if normed (teleport, luders, chain), refused when its squared norm overflows."""
    psi = fm.bipartite_from_json(obj, what)
    with np.errstate(over="ignore"):
        if normed and not np.isfinite(psi.norm()):
            raise NonFinite(f"squared norm of {what} is not finite")
    return psi


def _probes(rng, *shapes) -> list[np.ndarray]:
    """One stack of PROBE_COUNT seeded unit probes per shape; row k of the one normal call holds probe k of each."""
    x = rng.standard_normal((PROBE_COUNT, normal_count(*shapes)))
    return [unit(z, len(shape)) for z, shape in zip(split_complex(x, *shapes), shapes)]


def _residuals(table: vf.ResidualTable, prefix: str) -> dict:
    """Worst residual per identity, named without the subcommand's prefix."""
    return {r.name.removeprefix(prefix): r.residual for r in table.results()}


def cmd_epr(args) -> tuple[dict, list[vf.IdentityResult], str]:
    psi = _state(fm.load_json(args.state), "state", normed=False)  # epr names the overflowing reduction
    pair = bp.epr_maps(psi)
    omega_a = bp.reduced(psi, "a", "state")
    omega_b = bp.reduced(psi, "b", "state")

    phi_a, phi_b, chi = _probes(rng_for(args.seed, 1), (psi.dim_a,), (psi.dim_b,), (psi.dim_a, psi.dim_b))
    table = vf.ResidualTable()
    table.record("epr.projection", vf.epr_projection(psi, pair, omega_a, phi_a))
    table.record("epr.pairing", vf.epr_pairing(psi, pair, phi_a, phi_b))
    table.record("epr.inner_trace", vf.epr_inner_trace(psi, pair, bp.BipartiteVector(chi)))
    table.record("epr.reduction", vf.epr_reduction(psi, omega_a, omega_b))
    residuals = _residuals(table, "epr.")
    report = {
        "s_ba": fm.antilinear_to_json(pair.s_ba),
        "s_ab": fm.antilinear_to_json(pair.s_ab),
        "omega_a": fm.matrix_to_json(omega_a),
        "omega_b": fm.matrix_to_json(omega_b),
        "norm_sq": psi.norm() ** 2,
        "residuals": residuals,
    }
    summary = f"state ({psi.dim_a}x{psi.dim_b}), max residual {max(residuals.values()):.3e}"
    return report, table.results(args.tolerance), summary


def cmd_teleport(args) -> tuple[dict, list[vf.IdentityResult], str]:
    psi, phi = _state(fm.load_json(args.psi), "psi_ab"), _state(fm.load_json(args.phi), "phi_bc")
    tm = tp.teleport_map(psi, phi)
    tnf = tp.trace_norm_fidelity(tm)
    bound = tp.success_bound(tm)
    table = vf.ResidualTable()
    (probes,) = _probes(rng_for(args.seed, 2), (psi.dim_a,))
    table.record("teleport.factorization", vf.teleport_factorization(tm, probes))
    table.record("teleport.trace_fidelity", vf.teleport_trace_fidelity(tnf))
    oracle_residual = _residuals(table, "teleport.")["factorization"]
    report = {
        "t": fm.matrix_to_json(tm.t),
        "trace_norm": tnf.trace_norm,
        "fidelity": tnf.fidelity,
        "op_bound": bound,
        "oracle_residual": oracle_residual,
    }
    summary = (
        f"teleport map {tm.t.shape[0]}x{tm.t.shape[1]}: trace norm {tnf.trace_norm:.6f}, "
        f"fidelity {tnf.fidelity:.6f}, bound {bound:.6f}, oracle residual {oracle_residual:.3e}"
    )
    return report, table.results(args.tolerance), summary


def cmd_luders(args) -> tuple[dict, list[vf.IdentityResult], str]:
    spec = fm.load_json(args.channel)
    if "psis" in spec:
        if not isinstance(spec["psis"], list):
            raise ParseError("channel spec 'psis' must be a list")
        psis = [_state(p, f"psis[{k}]") for k, p in enumerate(spec["psis"])]
    elif "psi_ab" in spec:
        psis = [_state(spec["psi_ab"], "psi_ab")]
    else:
        raise ParseError("channel spec needs 'psis' (list) or 'psi_ab'")
    if "phi_bc" not in spec:
        raise ParseError("channel spec needs 'phi_bc'")
    phi = _state(spec["phi_bc"], "phi_bc")
    ch = tp.luders_channel(psis, phi)
    bounds = tp.luders_bounds(ch)

    (probes,) = _probes(rng_for(args.seed, 3), (ch.psis.dim_a,))
    table = vf.ResidualTable()
    table.record("luders.decoupling", vf.luders_decoupling(ch, probes))
    table.record("luders.op_bound", vf.luders_op_bound(ch, bounds))
    decoupling = _residuals(table, "luders.")["decoupling"]
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
        f"channel of rank {ch.rank}: op bound {bounds.op_bound:.6f} "
        f"(ancilla norm sq {ch.ancilla_norm_sq:.6f}), decoupling residual {decoupling:.3e}"
    )
    return report, table.results(args.tolerance), summary


def cmd_chain(args) -> tuple[dict, list[vf.IdentityResult], str]:
    spec = fm.load_json(args.chain)
    if "stages" not in spec or not isinstance(spec["stages"], list):
        raise ParseError("chain spec needs a 'stages' list")
    stages = [_state(s, f"stages[{k}]") for k, s in enumerate(spec["stages"])]
    t = tp.chain_teleport(stages)
    table = vf.ResidualTable()
    (probes,) = _probes(rng_for(args.seed, 4), (stages[0].dim_a,))
    table.record("chain.factorization", vf.chain_factorization(stages, t, probes))
    oracle_residual = _residuals(table, "chain.")["factorization"]
    report = {"t": fm.matrix_to_json(t), "oracle_residual": oracle_residual}
    summary = f"chain map {t.shape[0]}x{t.shape[1]} over {len(stages) // 2} hops, oracle residual {oracle_residual:.3e}"
    return report, table.results(args.tolerance), summary


def cmd_modular(args) -> tuple[dict, list[vf.IdentityResult], str]:
    phi = _state(fm.load_json(args.phi), "phi", normed=False)  # tomita_S names the overflowing reduction
    psi = _state(fm.load_json(args.psi), "psi", normed=False)
    triple, roots = md.tomita_S(phi, psi), vf.modular_roots(phi, psi)
    table = vf.ResidualTable()
    table.record("modular.defining", vf.modular_defining(triple, phi, psi))
    table.record("modular.delta", vf.modular_delta(triple))
    table.record("modular.reconstruction", vf.modular_reconstruction(triple, roots))
    table.record("modular.phase_match", vf.modular_phase_match(triple))
    table.record("modular.intertwine", vf.modular_intertwine(triple, roots))
    residuals = _residuals(table, "modular.")
    report = {
        "S": fm.twisted_to_json(triple.s),
        "Delta": fm.kronecker_to_json(triple.delta),
        "J": fm.twisted_to_json(triple.j),
        "residuals": residuals,
    }
    summary = f"modular triple on {psi.dim_a}x{psi.dim_a}, max residual {max(residuals.values()):.3e}"
    return report, table.results(args.tolerance), summary


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

    def common(p):
        p.add_argument("--seed", type=int, default=42, help="seed for probe vectors (default 42)")
        p.add_argument(
            "--tolerance",
            type=float,
            default=None,
            help="one residual tolerance for every identity (default: each identity's own)",
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
    common(p)
    p.add_argument("--dims", type=int, nargs="+", default=(2, 2), help="dim_a dim_b")
    p.add_argument("--entangled", action="store_true", help="rejection-sample until both reductions have full rank")

    return parser


def main(argv=None) -> int:
    """Run one subcommand; cmd_<command> is looked up at call time, so rebinding it takes effect."""
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "trials", 1) < 1:
            raise ParseError(f"trials must be >= 1, got {args.trials}")
        if args.tolerance is not None and not 0 < args.tolerance < np.inf:  # Infinity is no strict JSON
            raise ParseError(f"tolerance must be positive and finite, got {args.tolerance}")
        if any(d < 1 for d in getattr(args, "dims", [1])):
            raise ParseError("dimensions must be positive")
        if args.seed < 0:
            raise ParseError(f"seed must be non-negative, got {args.seed}")
        report, results, summary = globals()[f"cmd_{args.command}"](args)
        _emit(report, args.out)
        _say(summary)
        vf.check_all(results)
        return EXIT_OK
    except (EprkitError, OSError) as exc:
        _say(f"error: {exc}")
        return EXIT_TOLERANCE if isinstance(exc, (ToleranceExceeded, FactorizationFailure)) else EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
