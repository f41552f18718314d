"""The benchmark's tracer and outside checks (perfbench/) still hold against eprkit.

The tracer wraps the public functions of the nine layer modules from outside
the package, re-binds them wherever eprkit holds them, and replaces
``verify.SUITES`` by a tuple of wrapped suites.  A refactor that renames a
layer module, drops a suite from SUITES or hides a suite from it breaks the
per-layer metrics without failing any other test.  The modular-dense
workload checks each result from outside the package; a builder change that
fails those checks would void the benchmark without failing a unit test.
"""

import importlib.util
import json
import sys
from pathlib import Path

import eprkit
from eprkit import cli, verify
from eprkit.formats import twisted_from_json
from eprkit.formats import bipartite_to_json
from eprkit.sampling import random_state

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_by_bare_name(monkeypatch, name: str):
    """Load perfbench/<name>.py as module <name>, the way worker.py imports its siblings."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def package_bindings() -> dict:
    return {
        (name, attr): obj
        for name, mod in sys.modules.items()
        if name == "eprkit" or name.startswith("eprkit.")
        for attr, obj in vars(mod).items()
        if callable(obj) or attr in ("SUITES", "json")
    }


def test_tracer_records_every_suite_and_restores_the_package(tmp_path, capsys):
    chain = tmp_path / "chain.json"
    stages = [bipartite_to_json(random_state((2, 2), seed=k)) for k in range(4)]
    chain.write_text(json.dumps({"stages": stages}))
    before = package_bindings()

    tracer = load_spans().Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        assert cli.main(["verify", "--trials", "1", "--dims", "2", "--out", str(tmp_path / "v.json")]) == 0
        assert cli.main(["chain", str(chain), "--out", str(tmp_path / "c.json")]) == 0
        tracer.end_op(0)
    finally:
        tracer.uninstall()
    capsys.readouterr()

    calls = dict(zip(tracer.names, tracer.op_totals(0)[0]))
    assert len(verify.SUITES) == 13
    assert all(calls[f"verify.{suite.__name__}"] > 0 for suite in verify.SUITES)
    assert calls["teleport.chain_teleport"] > 0 and calls["teleport.chain_oracle"] > 0
    assert calls["cli.report_encode"] == 2

    after = package_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is obj for key, obj in before.items())


def test_modular_runner_outside_checks_pass(monkeypatch):
    for sibling in ("inputs", "spans"):
        load_by_bare_name(monkeypatch, sibling)
    worker = load_by_bare_name(monkeypatch, "worker")

    op = worker.inputs.modular_ops(1, 1).ops[0]
    runner = worker.ModularRunner(eprkit)
    triple, lifted, error = runner.run(runner.states(op))
    assert error is None
    outcome = runner.check(op, (triple, lifted, None))
    assert outcome.ok and outcome.correct and not outcome.failures

    swapped = eprkit.ModularTriple(s=triple.j, delta=triple.delta, j=triple.s)
    assert not runner.check(op, (swapped, lifted, None)).ok


def test_cli_session_op_traced_with_the_cached_parser(monkeypatch, tmp_path):
    # Op 2 of seed 1 runs `modular` at d = 8 on Gaussian states; every command exits 0 at the parent.
    for sibling in ("inputs", "spans"):
        load_by_bare_name(monkeypatch, sibling)
    worker = load_by_bare_name(monkeypatch, "worker")
    ops = worker.inputs.session_ops(1, 3)
    op = ops.ops[2]
    ops.write(tmp_path)
    monkeypatch.chdir(tmp_path)
    cli.build_parser()  # the parser is cached before the tracer re-binds cli.cmd_*
    before = package_bindings()

    runner = worker.CliRunner(eprkit, "cli-session")
    tracer = worker.Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        raw = runner.run(op)
        tracer.end_op(0)
    finally:
        tracer.uninstall()

    results, _ = raw
    assert [(cmd, code) for cmd, _, code, _ in results] == [
        ("epr", 0), ("teleport", 0), ("luders", 0), ("chain", 0), ("modular", 0)
    ]
    outcome = runner.check(op, raw)
    assert outcome.ok and outcome.correct
    calls = dict(zip(tracer.names, tracer.op_totals(0)[0]))
    assert all(calls[f"cli.cmd_{cmd}"] == 1 for cmd, _ in op.commands)
    assert calls["cli.report_encode"] == 5
    assert twisted_from_json(json.loads((tmp_path / "out-modular.json").read_text())["S"]).dim_a == 8

    after = package_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is obj for key, obj in before.items())
