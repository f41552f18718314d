"""Tiny-size self-check of the benchmark: one op per workload, nothing timed or compared to a speed.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_selfcheck.py

It checks the output contract (keys, metric names and units against
BENCHMARK.json), that the outside correctness checks accept good results and
reject wrong ones, that counts repeat for the same seed, and that the
benchmark refuses to run without the eprkit sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(HERE), str(ROOT / "src")]
import inputs  # noqa: E402
import worker  # noqa: E402


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.01", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines


def units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_matches_worker_metrics():
    assert units("end_to_end") == dict(worker.END_TO_END)
    assert units("per_layer") == dict(worker.per_layer_units())
    assert set(WORKLOADS) == set(worker.NOMINAL_OP_S)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_line(workload):
    code, lines = bench(workload, trace=0)
    assert code == 0
    full, line = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert (line["correct"], line["attempted"], line["failed"]) == (True, 1, 0), full["details"]["failures"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units("end_to_end")
    assert all(v["value"] > 0 for v in line["metrics"].values())
    env = full["details"]["environment"]
    assert env["thread_env"]["OPENBLAS_NUM_THREADS"] == "1" and env["workload_seed"] == 3
    assert len(full["details"]["input_digest"]) == 64


def test_traced_line_and_repeatable_counts():
    runs = []
    for _ in range(2):
        code, lines = bench("cli-session", trace=1)
        assert code == 0
        runs.append(json.loads(lines[-1]))
    line = runs[0]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units("per_layer")
    assert line["metrics"]["cli.calls"]["value"] > 0 and line["metrics"]["formats.load_json.calls"]["value"] == 8
    counts = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith((".calls", "_bytes"))} for r in runs]
    assert counts[0] == counts[1]


def test_inputs_repeat_for_a_seed():
    assert inputs.session_ops(5, 4).digest == inputs.session_ops(5, 4).digest
    assert inputs.session_ops(5, 4).digest != inputs.session_ops(6, 4).digest
    assert [op.commands[0][1] for op in inputs.verify_ops(40, 2).ops] == [
        ["verify", "--seed", "40"], ["verify", "--seed", "41"]]


def test_modular_check_rejects_a_wrong_operator():
    import eprkit

    runner = worker.ModularRunner(eprkit)
    op = inputs.modular_ops(7, 1).ops[0]
    raw = runner.run(runner.states(op))
    assert runner.check(op, raw).correct
    triple, lifted, _ = raw
    wrong = eprkit.ModularTriple(s=eprkit.AntilinearMap(triple.s.mat * 1.001), delta=triple.delta, j=triple.j)
    outcome = runner.check(op, (wrong, lifted, None))
    assert not outcome.ok and not outcome.correct
    assert [f["command"] for f in outcome.failures] == ["tomita_S"]


def test_cli_check_rejects_inconsistent_reports(tmp_path, monkeypatch):
    import eprkit

    monkeypatch.chdir(tmp_path)
    runner = worker.CliRunner(eprkit, "verify-default")
    op = inputs.CliOp([("verify", ["verify"])])
    Path("out-verify.json").write_text(json.dumps({"pass": False}))
    assert not runner.check(op, ([("verify", "out-verify.json", 0, 0)], "")).correct
    bad = runner.check(op, ([("verify", "out-verify.json", 3, 0)], "error: out of tolerance"))
    assert not bad.ok and bad.correct
    Path("out-verify.json").write_text("{not json")
    assert not runner.check(op, ([("verify", "out-verify.json", 0, 0)], "")).correct


def test_reference_kernel_is_checked():
    kernel = worker.ReferenceKernel("cli-session")
    assert kernel.timed() > 0
    kernel.checksum += 1.0
    with pytest.raises(RuntimeError):
        kernel.timed()


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("cli-session", trace=0, cwd=tmp_path)
    assert code != 0 and lines == []
