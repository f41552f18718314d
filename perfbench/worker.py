"""Benchmark worker: runs one workload's seeded op list in this process and writes a result file.

Started by run.py with OpenBLAS and OpenMP pinned to one thread and with the
checkout's src/ on PYTHONPATH.  It reaches eprkit only through public entry
points: ``eprkit.cli.main(argv)`` and the builders the package exports.

Each op is timed in reference units: just before the op a fixed reference
kernel runs, and the op's wall time is divided by the kernel's.
Both slow down together when the host does, so the ratio stays put while
raw seconds drift with the host.

Usage (normally through run.py):
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --out RESULT.json
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
from spans import LAYERS, REPORT_ENCODE, Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

# Seconds one op takes on the reference host, reference kernel included.  The
# op count of a run is seconds / NOMINAL_OP_S, so a run replays a fixed op list
# for a given --seconds and outcomes repeat exactly.
NOMINAL_OP_S = {"verify-default": 1.36, "modular-dense": 0.85, "cli-session": 0.085}
# Reference kernel of the small-matrix workloads: Python loop iterations,
# svd/eigh/matmul repetitions, small-state trials, dense eigh calls, JSON
# round trips of an indented report.
SMALL_KERNEL_COUNTS = {"verify-default": (50000, 300, 180, 2, 0), "cli-session": (12500, 50, 0, 1, 1)}
SMALL_KERNEL_DENSE_N = 300
DENSE_KERNEL_N = 576

# Range of the run medians of bench.ref_s over the 25-26 runs per workload made
# while the benchmark was made steady (30 s runs; 2-core KVM host, Python
# 3.11.7, numpy 2.4.6, scipy-openblas 0.3.31, one BLAS thread).  A run outside
# it is flagged: only process-wide state such as thread settings can move the
# reference kernel, and that would void the ref units.
REF_S_RANGE = {
    "verify-default": (0.081, 0.107),
    "modular-dense": (0.309, 0.366),
    "cli-session": (0.0177, 0.0268),
}

SETUP_SAMPLES = 11
SETUP_CODE = "import time; t = time.perf_counter(); import eprkit.cli; print(time.perf_counter() - t)"
TAIL_BEYOND = 10   # the tail percentile is the highest with at least this many ops beyond it

SWEEP_DIMS = (8, 16, 24, 32)
SWEEP_BUILDERS = ("tomita_S", "lift_operators")

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ref", "ref"),
    ("op_tail_ref", "ref"),
    ("cpu_per_wall", "ratio"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)
HOT_FUNCTIONS = (
    "linalg.svd", "linalg.psd_sqrt", "linalg.fidelity", "linalg.herm_eigh",
    "teleport.teleport_map", "teleport.teleport_oracle", "teleport.luders_channel",
    "teleport.luders_project", "teleport.chain_oracle",
    "modular.twisted_product", "modular.lift_operators", "modular.tomita_S",
    "formats.matrix_to_json", "formats.matrix_from_json", "formats.load_json",
    REPORT_ENCODE,
)
SUITES = (
    "matcore_suite", "epr_suite", "antilinear_suite", "polar_suite", "partner_suite",
    "cloning_suite", "crossgram_suite", "purification_suite", "teleport_suite",
    "luders_suite", "chain_suite", "twisted_suite", "modular_suite",
)


def per_layer_units() -> list[tuple[str, str]]:
    out = []
    for name in LAYERS + HOT_FUNCTIONS:
        out += [(f"{name}.calls", "count"), (f"{name}.self_ref", "ref")]
    out += [("cli.report_bytes", "bytes"), ("cli.input_bytes", "bytes")]
    out += [(f"verify.{s}.self_ref", "ref") for s in SUITES]
    out += [(f"modular.{b}.d{d}_s", "s") for b in SWEEP_BUILDERS for d in SWEEP_DIMS]
    out += [("bench.ref_s", "s"), ("bench.op_p50_s", "s"), ("bench.trace_overhead", "ratio")]
    return out


# --- reference kernels -----------------------------------------------------------

class ReferenceKernel:
    """Fixed, seeded work timed just before each op.

    It uses numpy and the standard library only, never eprkit.  For the
    small-matrix workloads it mixes what their ops do: a pure-Python
    bookkeeping loop, a loop of small svd, eigh and matmul calls, dense eigh
    calls at n = 300 and, for verify-default, seeded draws of small states
    with kron, norm and square-root steps or, for cli-session, an indented
    JSON round trip.  On
    the reference host, medians of 21 verify ops divided by this mix spread
    1.5-2% between blocks of one long run, against 6% for the svd/eigh loop
    alone and 17% for raw seconds; for blocks of 400 sessions it was 3%
    against 19% raw.  For modular-dense it is one complex eigh and one solve
    at n = 576, the sizes that op works at.

    The primitives are checked once against their defining identities, and
    every call must return the first call's checksum bit for bit, which holds
    with one BLAS thread.
    """

    def __init__(self, workload: str):
        rng = np.random.default_rng(20040707)
        if workload == "modular-dense":
            n = DENSE_KERNEL_N
            a = inputs.complex_normal(rng, n, n)
            self.dense = [a, a + a.conj().T]
            self.body = self._dense
            checked = [a]
        else:
            self.loops, self.reps, self.trials, self.eighs, self.rounds = SMALL_KERNEL_COUNTS[workload]
            self.report = {"data": [[0.1 * i, -float(i)] for i in range(800)]}
            self.small = [inputs.complex_normal(rng, d, d) for d in (2, 3, 4)]
            self.herms = [m + m.conj().T for m in self.small]
            g = rng.standard_normal((SMALL_KERNEL_DENSE_N, SMALL_KERNEL_DENSE_N))
            self.sym = g + g.T
            self.body = self._mixed
            checked = self.small
        self._check_primitives(checked)
        self.checksum = self.body()

    def _mixed(self) -> float:
        table: dict[int, float] = {}
        for i in range(self.loops):
            table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
        acc = sum(table.values())
        for _ in range(self.reps):
            for m, h in zip(self.small, self.herms):
                _, s, _ = np.linalg.svd(m)
                w, _ = np.linalg.eigh(h)
                acc += s[0] + w[-1] + (m @ h)[0, 0].real
        for t in range(self.trials):
            rng = np.random.default_rng([7, t])
            d = 2 + t % 3
            c = inputs.unit(inputs.complex_normal(rng, d, d))
            _, s, _ = np.linalg.svd(c)
            h = c @ c.conj().T
            w, v = np.linalg.eigh((h + h.conj().T) / 2)
            k = np.kron(c, np.eye(d))
            r = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
            acc += float(np.linalg.norm(k @ k.conj().T)) + float(np.linalg.norm(r @ r - h)) + s[0]
        for _ in range(self.eighs):
            acc += np.linalg.eigh(self.sym)[0][-1]
        for _ in range(self.rounds):
            acc += len(json.loads(json.dumps(self.report, indent=2))["data"])
        return float(acc)

    def _dense(self) -> float:
        a, h = self.dense
        w, _ = np.linalg.eigh(h)
        x = np.linalg.solve(a, h)
        return float(w[-1] + x[0, 0].real)

    @staticmethod
    def _check_primitives(mats):
        for m in mats:
            h = m + m.conj().T
            u, s, vh = np.linalg.svd(m)
            w, v = np.linalg.eigh(h)
            x = np.linalg.solve(m, h)
            residuals = (
                np.linalg.norm((u * s) @ vh - m) / np.linalg.norm(m),
                np.linalg.norm((v * w) @ v.conj().T - h) / np.linalg.norm(h),
                np.linalg.norm(m @ x - h) / (np.linalg.norm(m) * np.linalg.norm(x)),
            )
            if max(residuals) > 1e-12 * m.shape[0]:
                raise RuntimeError(f"reference kernel primitives are inaccurate: {residuals}")

    def timed(self) -> float:
        t0 = time.perf_counter()
        value = self.body()
        elapsed = time.perf_counter() - t0
        if value != self.checksum:
            raise RuntimeError(f"reference kernel result changed: {value!r} != {self.checksum!r}")
        return elapsed


# --- ops ----------------------------------------------------------------------------

def last_line(text: str) -> str:
    lines = [line for line in text.strip().splitlines() if line.strip()]
    return lines[-1].strip() if lines else ""


@dataclass
class Outcome:
    ok: bool = True
    correct: bool = True
    report_bytes: int = 0
    failures: list[dict] = field(default_factory=list)

    def fail(self, command: str, kind: str, exit_code, message: str, correct: bool = True):
        self.ok = False
        self.correct = self.correct and correct
        self.failures.append(
            {"command": command, "kind": kind, "exit_code": exit_code, "message": last_line(message)}
        )


class CliRunner:
    """Runs each command of an op through eprkit.cli.main with --out, stderr captured."""

    def __init__(self, eprkit, workload: str):
        self.eprkit = eprkit
        self.verify = workload == "verify-default"

    def run(self, op: inputs.CliOp):
        results = []
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            for cmd, argv in op.commands:
                mark = stderr.tell()
                out = f"out-{cmd}.json"
                try:
                    code = self.eprkit.cli.main(argv + ["--out", out])
                except Exception:
                    code = None
                    traceback.print_exc(file=stderr)
                results.append((cmd, out, code, mark))
        return results, stderr.getvalue()

    def prepare(self, op):
        for cmd, _ in op.commands:
            Path(f"out-{cmd}.json").unlink(missing_ok=True)

    def check(self, op, raw) -> Outcome:
        results, err = raw
        outcome = Outcome()
        for k, (cmd, out, code, mark) in enumerate(results):
            end = results[k + 1][3] if k + 1 < len(results) else len(err)
            message = err[mark:end]
            if code is None:
                outcome.fail(cmd, "exception", None, message, correct=False)
                continue
            path = Path(out)
            report = None
            if path.exists():
                outcome.report_bytes += path.stat().st_size
                try:
                    report = json.loads(path.read_text(encoding="utf-8"))
                except ValueError as exc:
                    outcome.fail(cmd, "parse", code, f"report does not parse: {exc}", correct=False)
                    continue
            if code != 0:
                # Exit 2 (invalid input) and 3 (residual beyond tolerance) are the
                # program's documented refusals: the op failed, the output is honest.
                outcome.fail(cmd, "exit", code, message, correct=code in (2, 3))
                if self.verify and code == 3 and report is not None and report.get("pass") is not False:
                    outcome.fail(cmd, "check", code, "verify exited 3 but its report says pass", correct=False)
            elif report is None:
                outcome.fail(cmd, "parse", code, "exit 0 but no report written", correct=False)
            elif self.verify and report.get("pass") is not True:
                outcome.fail(cmd, "check", code, "verify exited 0 but its report does not say pass", correct=False)
        return outcome


class ModularRunner:
    """tomita_S(phi, psi) and lift_operators(psi, phi) at d = 24, checked on probes from outside."""

    def __init__(self, eprkit):
        from eprkit.verify import TOLERANCES as tol

        self.eprkit = eprkit
        self.tol_defining = tol["modular.defining"]
        self.tol_phase = tol["modular.phase_match"]

    def states(self, op: inputs.ModularOp):
        return self.eprkit.BipartiteVector(op.phi), self.eprkit.BipartiteVector(op.psi)

    def prepare(self, op):
        pass

    def run(self, op_states):
        phi, psi = op_states
        try:
            return self.eprkit.tomita_S(phi, psi), self.eprkit.lift_operators(psi, phi), None
        except Exception as exc:
            return None, None, exc

    def check(self, op: inputs.ModularOp, raw) -> Outcome:
        triple, lifted, error = raw
        outcome = Outcome()
        if error is not None:
            # An EprkitError is the package refusing the input; anything else is a crash.
            outcome.fail("tomita_S+lift_operators", "exception", None, f"{type(error).__name__}: {error}",
                         correct=isinstance(error, self.eprkit.errors.EprkitError))
            return outcome
        # S is antilinear: S x = S.mat @ conj(x).  (A ⊗ 1) psi has coefficient matrix A @ C_psi.
        x = (op.probe_a @ op.psi).reshape(-1)
        lhs = np.asarray(triple.s.mat) @ np.conj(x)
        rhs = (op.probe_a.conj().T @ op.phi).reshape(-1)
        defining = float(np.linalg.norm(lhs - rhs))
        if not defining <= self.tol_defining:
            outcome.fail("tomita_S", "check", None,
                         f"defining relation residual {defining:.3e} > {self.tol_defining:.0e}", correct=False)
        v = op.probe_v
        phase = float(np.linalg.norm(np.asarray(triple.j.mat) @ np.conj(v) - np.asarray(lifted.j.mat) @ np.conj(v)))
        if not phase <= self.tol_phase:
            outcome.fail("lift_operators", "check", None,
                         f"J mismatch {phase:.3e} > {self.tol_phase:.0e}", correct=False)
        return outcome


# --- the run --------------------------------------------------------------------

def measure_setup(env) -> float:
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip())


def op_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_OP_S[workload]))


def tail(values: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest order statistic with TAIL_BEYOND samples beyond it."""
    s = sorted(values)
    k = len(s) - TAIL_BEYOND if len(s) > TAIL_BEYOND else len(s)
    return s[k - 1], 100.0 * k / len(s)


@dataclass
class PassResult:
    ratios: list[float]
    walls: list[float]
    refs: list[float]
    cpu: float
    wall: float
    outcomes: list[Outcome]


def run_pass(ops, runner, prepared, kernel, tracer=None, setup=None) -> PassResult:
    ratios, walls, refs, outcomes = [], [], [], []
    cpu_total = wall_total = 0.0
    schedule = [(j * len(ops)) // SETUP_SAMPLES for j in range(SETUP_SAMPLES)] if setup else []
    for i, op in enumerate(ops):
        for _ in range(schedule.count(i)):
            setup()
        runner.prepare(op)
        ref = kernel.timed()
        if tracer:
            tracer.begin_op()
        c0 = time.process_time()
        t0 = time.perf_counter()
        raw = runner.run(prepared[i])
        t1 = time.perf_counter()
        c1 = time.process_time()
        if tracer:
            tracer.end_op(i)
        outcomes.append(runner.check(op, raw))
        walls.append(t1 - t0)
        refs.append(ref)
        ratios.append((t1 - t0) / ref)
        cpu_total += c1 - c0
        wall_total += t1 - t0
    return PassResult(ratios, walls, refs, cpu_total, wall_total, outcomes)


def sweep(eprkit) -> dict[str, float]:
    """Raw seconds of the dense builders over d, median of three calls (one at the largest d)."""
    out = {}
    for d in SWEEP_DIMS:
        phi_c, psi_c = inputs.sweep_pair(d)
        phi, psi = eprkit.BipartiteVector(phi_c), eprkit.BipartiteVector(psi_c)
        calls = {"tomita_S": lambda: eprkit.tomita_S(phi, psi), "lift_operators": lambda: eprkit.lift_operators(psi, phi)}
        for name in SWEEP_BUILDERS:
            times = []
            for _ in range(1 if d == SWEEP_DIMS[-1] else 3):
                t0 = time.perf_counter()
                calls[name]()
                times.append(time.perf_counter() - t0)
            out[f"modular.{name}.d{d}_s"] = statistics.median(times)
    return out


def layer_metrics(tracer: Tracer, traced: PassResult, ops) -> dict[str, float]:
    n = len(tracer.ops)
    index = {name: k for k, name in enumerate(tracer.names)}
    groups = {name: [index[name]] if name in index else [] for name in HOT_FUNCTIONS}
    for layer in LAYERS:
        groups[layer] = [k for name, k in index.items() if name.split(".")[0] == layer]
    for suite in SUITES:
        groups[f"verify.{suite}"] = [index[f"verify.{suite}"]] if f"verify.{suite}" in index else []
    calls = {g: 0 for g in groups}
    self_ref = {g: 0.0 for g in groups}
    for k in range(n):
        c, own = tracer.op_totals(k)
        for g, ids in groups.items():
            calls[g] += int(c[ids].sum())
            self_ref[g] += float(own[ids].sum()) / traced.refs[k]
    out = {}
    for g in groups:
        if not g.startswith("verify."):
            out[f"{g}.calls"] = calls[g] / n
        out[f"{g}.self_ref"] = self_ref[g] / n
    out["cli.report_bytes"] = statistics.fmean(o.report_bytes for o in traced.outcomes)
    out["cli.input_bytes"] = statistics.fmean(getattr(op, "input_bytes", 0) for op in ops)
    return out


def blas_info() -> dict:
    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "workload_seed": seed,
    }


def build(workload: str, seed: int, n: int, eprkit, work: Path):
    if workload == "verify-default":
        ops = inputs.verify_ops(seed, n)
        runner = CliRunner(eprkit, workload)
        prepared = ops.ops
    elif workload == "modular-dense":
        ops = inputs.modular_ops(seed, n)
        runner = ModularRunner(eprkit)
        prepared = [runner.states(op) for op in ops.ops]
    elif workload == "cli-session":
        ops = inputs.session_ops(seed, n)
        runner = CliRunner(eprkit, workload)
        prepared = ops.ops
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    ops.write(work)
    return ops, runner, prepared


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import eprkit
    import eprkit.cli

    src = (ROOT / "src").resolve()
    if src not in Path(eprkit.__file__).resolve().parents:
        raise RuntimeError(f"eprkit imported from {eprkit.__file__}, not from {src}")

    n = op_count(workload, seconds)
    work = WORK / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    try:
        os.chdir(work)
        ops, runner, prepared = build(workload, seed, n, eprkit, work)
        kernel = ReferenceKernel(workload)

        setup_samples: list[float] = []
        env = dict(os.environ)
        measure_setup(env)  # compiles bytecode; untimed
        def setup():
            setup_samples.append(measure_setup(env))

        # Warm-up: one untimed op so lazy imports and caches settle.
        runner.prepare(ops.ops[0])
        kernel.timed()
        runner.check(ops.ops[0], runner.run(prepared[0]))

        timed = run_pass(ops.ops, runner, prepared, kernel, setup=setup)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        failures, correct, ok = [], True, 0
        for i, o in enumerate(timed.outcomes):
            ok += o.ok
            correct = correct and o.correct
            for f in o.failures:
                failures.append({"workload": workload, "seed": seed, "op": i, **f})

        tail_value, tail_pct = tail(timed.ratios)
        ref_median = statistics.median(timed.refs)
        lo, hi = REF_S_RANGE[workload]
        end_to_end = {
            "setup_s": statistics.median(setup_samples),
            "op_p50_ref": statistics.median(timed.ratios),
            "op_tail_ref": tail_value,
            "cpu_per_wall": timed.cpu / timed.wall,
            "peak_rss_mb": peak_rss_mb,
            "ok_ratio": ok / n,
        }
        result = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "attempted": n,
            "failed": n - ok,
            "correct": correct,
            "end_to_end": end_to_end,
            "details": {
                "op_tail_percentile": tail_pct,
                "op_count": n,
                "setup_samples_s": setup_samples,
                "ref_s_median": ref_median,
                "ref_s_range": [lo, hi],
                "ref_guard": "ok" if lo <= ref_median <= hi else "outside",
                "op_p50_s": statistics.median(timed.walls),
                "input_digest": ops.digest,
                "environment": environment(seed),
                "failures": failures,
            },
        }

        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_pass(ops.ops, runner, prepared, kernel, tracer=tracer)
            finally:
                tracer.uninstall()
            per_layer = layer_metrics(tracer, traced, ops.ops)
            per_layer.update(sweep(eprkit))
            per_layer["bench.ref_s"] = ref_median
            per_layer["bench.op_p50_s"] = statistics.median(timed.walls)
            per_layer["bench.trace_overhead"] = statistics.median(traced.ratios) / end_to_end["op_p50_ref"]
            result["per_layer"] = per_layer
            spans = WORK / f"spans-{workload}.npz"
            tracer.save(spans)
            result["details"]["spans_file"] = str(spans.relative_to(ROOT))
        return result
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
