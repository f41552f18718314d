"""The benchmark's tracer (perfbench/spans.py) still finds and restores what it wraps in eprkit.

The tracer wraps the public functions of the nine layer modules from outside
the package, re-binds them wherever eprkit holds them, and replaces
``verify.SUITES`` by a tuple of wrapped suites.  A refactor that renames a
layer module, drops a suite from SUITES or hides a suite from it breaks the
per-layer metrics without failing any other test.
"""

import importlib.util
import json
import sys
from pathlib import Path

from eprkit import cli, verify
from eprkit.formats import bipartite_to_json
from eprkit.sampling import random_state

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
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
