"""Smoke tests of tools/residual_digests.py on a one-seed, one-dims grid and of tools/report_digests.py cut down."""

import importlib.util
import io
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load(name: str, monkeypatch):
    """tools/<name>.py as a fresh module; sys.dont_write_bytecode, which the tool sets on import, is restored after."""
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.fixture
def digests(monkeypatch):
    tool = load("residual_digests", monkeypatch)
    monkeypatch.setattr(tool, "SEEDS", (1,))
    monkeypatch.setattr(tool, "DIMS", ((1, 2),))
    return tool


def test_dumps_repeat_and_compare_reports_one_edited_residual(digests, tmp_path):
    first, second = io.StringIO(), io.StringIO()
    digests.dump(first)
    digests.dump(second)
    lines = first.getvalue().splitlines(keepends=True)
    assert lines and first.getvalue() == second.getvalue()
    assert {line.split("\t")[0] for line in lines} == {"residual", "draw"}

    k, line = next((k, line) for k, line in enumerate(lines) if line.startswith("residual\t"))
    kind, seed, dims, name, residual, *rest = line.rstrip("\n").split("\t")
    edited = list(lines)
    edited[k] = "\t".join([kind, seed, dims, name, repr(2 * float(residual) + 1e-300), *rest]) + "\n"
    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    old.write_text("".join(lines))
    new.write_text("".join(edited))
    out = io.StringIO()
    digests.compare(str(old), str(new), out)
    report = out.getvalue().splitlines()
    assert [r.split("\t")[:4] for r in report[:-1]] == [["moved", seed, dims, name]]
    assert report[-1].startswith("summary\t") and ", 1 moved, 0 origins moved, 1 rises," in report[-1]
    assert report[-1].endswith(" draw digests, 0 changed")

    # One draw digest edited, one gone and one of a new stream tag: each counted under its tag.
    at = [k for k, line in enumerate(lines) if line.startswith("draw\t")]
    low, high = (lines[k].rstrip("\n").split("\t") for k in (at[0], at[-1]))  # the lowest tag's, the highest's
    edited = [line for k, line in enumerate(lines) if k != at[-1]]
    edited[at[0]] = "\t".join([*low[:5], "0" * len(low[5])]) + "\n"
    edited.append("\t".join(["draw", seed, dims, "999", "0", low[5]]) + "\n")
    new.write_text("".join(edited))
    out = io.StringIO()
    digests.compare(str(old), str(new), out)
    report = out.getvalue().splitlines()
    assert [r.split("\t")[1:] for r in report if r.startswith("stream\t")] == [
        [low[3], "1 changed, 0 new, 0 gone"],
        [high[3], "0 changed, 0 new, 1 gone"],
        ["999", "0 changed, 1 new, 0 gone"],
    ]
    assert sum(r.startswith("draw\t") for r in report) == 3 and report[-1].endswith(" draw digests, 3 changed")


def test_compare_exits_1_when_a_residual_moved_and_0_on_equal_outputs(monkeypatch, tmp_path, capsys):
    tool = load("residual_digests", monkeypatch)
    lines = [
        "residual\t1\t(1, 2)\tepr.projection\t1.5e-16\t(0, 1)\t1e-10\n",
        "residual\t1\t(1, 2)\tepr.pairing\t0.0\t(0, 0)\t1e-10\n",
        "draw\t1\t(1, 2)\t3\t0\t" + "ab" * 32 + "\n",
    ]
    same, moved = tmp_path / "same.txt", tmp_path / "moved.txt"
    same.write_text("".join(lines))
    moved.write_text("".join([lines[0].replace("1.5e-16", "3e-16"), *lines[1:]]))
    assert tool.main(["--compare", str(same), str(same)]) == 0
    assert capsys.readouterr().out.startswith("summary\t2 residuals, 0 moved,")
    assert tool.main(["--compare", str(same), str(moved)]) == 1
    assert capsys.readouterr().out.startswith("moved\t1\t(1, 2)\tepr.projection\t1.5e-16 -> 3e-16\t")


def test_report_digests_repeat_with_one_line_per_invocation(monkeypatch, capsys):
    tool = load("report_digests", monkeypatch)
    monkeypatch.setattr(tool, "SEEDS", 1)
    monkeypatch.setattr(tool, "SESSIONS", 1)
    monkeypatch.setattr(sys, "path", list(sys.path))  # invocations() puts perfbench/ first
    monkeypatch.setitem(sys.modules, "inputs", None)  # put back as it was after the test, absent or not
    monkeypatch.delitem(sys.modules, "inputs")  # so invocations() imports perfbench's inputs.py
    outputs = []
    for _ in range(2):
        assert tool.main() == 0
        outputs.append(capsys.readouterr().out)
    argvs, _ = tool.invocations()
    lines = outputs[0].splitlines()
    assert outputs[0] == outputs[1]
    assert [line.split("\t")[0] for line in lines] == [" ".join(argv) for argv in argvs]
    assert all(len(line.split("\t")) == 4 and not line.split("\t")[1].startswith("raised") for line in lines)
