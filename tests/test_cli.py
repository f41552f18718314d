"""Tests for the command-line interface: reports, exit codes, determinism."""

import json
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from eprkit.cli import main
from eprkit.errors import DimTooLarge
from eprkit.formats import bipartite_to_json, kronecker_from_json, matrix_from_json, matrix_to_json, twisted_from_json
from eprkit.sampling import random_state

from util import bell


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    path.write_text(json.dumps(bipartite_to_json(bell(2))))
    return str(path)


@pytest.fixture
def skew_file(tmp_path):
    skew = np.diag([np.sqrt(0.8), np.sqrt(0.2)])
    path = tmp_path / "skew.json"
    path.write_text(
        json.dumps({"dim_a": 2, "dim_b": 2, "coeff": matrix_to_json(skew)})
    )
    return str(path)


def run_cli(capsys, *argv) -> tuple[int, dict | None, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


class TestEpr:
    def test_bell_report(self, capsys, bell_file):
        code, report, _ = run_cli(capsys, "epr", bell_file)
        assert code == 0
        assert report["norm_sq"] == pytest.approx(1.0, abs=1e-12)
        s_ba = matrix_from_json(report["s_ba"]["mat"])
        assert np.linalg.norm(s_ba - np.eye(2) / np.sqrt(2)) < 1e-12
        assert all(v < 1e-12 for v in report["residuals"].values())

    def test_malformed_file_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["epr", str(bad)]) == 2

    def test_nonfinite_entry_exit_2(self, capsys, tmp_path):
        obj = bipartite_to_json(bell(2))
        obj["coeff"]["data"][0][0] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(obj).replace("NaN", "1e999"))  # json spells inf this way
        assert main(["epr", str(path)]) == 2

    def test_missing_file_exit_2(self, capsys, tmp_path):
        assert main(["epr", str(tmp_path / "nope.json")]) == 2

    def test_unattainable_tolerance_exit_3(self, capsys, bell_file):
        code = main(["epr", bell_file, "--tolerance", "1e-30"])
        capsys.readouterr()
        assert code == 3

    def test_beyond_the_dense_limit_exit_2(self, capsys, tmp_path):
        # 65·64 = 4160 > DENSE_DIM_LIMIT: the dense projector |psi><psi| alone would take 277 MB.
        path = _write(tmp_path, "psi.json", bipartite_to_json(random_state((65, 64), seed=1)))
        tracemalloc.start()
        try:
            code = main(["epr", path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 2
        assert peak < 16e6
        assert captured.out == ""
        assert "4160 > 4096" in captured.err


class TestTeleport:
    def test_bell_bell_values(self, capsys, bell_file):
        code, report, _ = run_cli(capsys, "teleport", bell_file, bell_file)
        assert code == 0
        assert report["trace_norm"] == pytest.approx(1.0, abs=1e-9)
        assert report["fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert report["op_bound"] == pytest.approx(0.25, abs=1e-9)
        t = matrix_from_json(report["t"])
        assert np.abs(t - np.eye(2) / 2).max() < 1e-14

    def test_skewed_ancilla_fidelity(self, capsys, bell_file, skew_file):
        code, report, _ = run_cli(capsys, "teleport", bell_file, skew_file)
        assert code == 0
        assert report["fidelity"] == pytest.approx(0.948683, abs=1e-6)
        assert report["op_bound"] == pytest.approx(0.4, abs=1e-9)

    def test_dim_mismatch_exit_2(self, capsys, bell_file, tmp_path):
        psi3 = random_state((3, 3), seed=1)
        path = tmp_path / "psi3.json"
        path.write_text(json.dumps(bipartite_to_json(psi3)))
        assert main(["teleport", str(path), bell_file]) == 2


class TestLuders:
    def test_rank_one_channel(self, capsys, tmp_path, bell_file):
        spec = {
            "psi_ab": bipartite_to_json(bell(2)),
            "phi_bc": bipartite_to_json(bell(2)),
        }
        path = tmp_path / "channel.json"
        path.write_text(json.dumps(spec))
        code, report, _ = run_cli(capsys, "luders", str(path))
        assert code == 0
        assert report["rank"] == 1
        assert report["op_bound"] <= report["ancilla_norm_sq"] + 1e-9
        assert report["decoupling_residual"] < 1e-10

    def test_channel_with_nu(self, capsys, tmp_path):
        mats = [np.eye(2), np.diag([1.0, -1.0])]
        spec = {
            "psis": [
                bipartite_to_json(bell(2)),
                {"dim_a": 2, "dim_b": 2, "coeff": matrix_to_json(mats[1] / np.sqrt(2))},
            ],
            "phi_bc": bipartite_to_json(bell(2)),
        }
        path = tmp_path / "channel.json"
        path.write_text(json.dumps(spec))
        nu_path = tmp_path / "nu.json"
        nu_path.write_text(json.dumps(matrix_to_json(np.eye(2) / 2)))
        code, report, _ = run_cli(capsys, "luders", str(path), "--nu", str(nu_path))
        assert code == 0
        assert report["rank"] == 2
        out = matrix_from_json(report["output"])
        assert np.trace(out).real <= report["ancilla_norm_sq"] * 1.0 + 1e-9

    def test_missing_key_exit_2(self, capsys, tmp_path):
        path = tmp_path / "channel.json"
        path.write_text(json.dumps({"phi_bc": bipartite_to_json(bell(2))}))
        assert main(["luders", str(path)]) == 2


class TestChain:
    def test_all_bell(self, capsys, tmp_path):
        spec = {"stages": [bipartite_to_json(bell(2)) for _ in range(4)]}
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(spec))
        code, report, _ = run_cli(capsys, "chain", str(path))
        assert code == 0
        t = matrix_from_json(report["t"])
        assert np.abs(t - np.eye(2) / 4).max() < 1e-14
        assert report["oracle_residual"] < 1e-10

    def test_six_stages(self, capsys, tmp_path):
        spec = {"stages": [bipartite_to_json(random_state((2, 2), seed=k)) for k in range(6)]}
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(spec))
        code, report, err = run_cli(capsys, "chain", str(path))
        assert code == 0
        assert matrix_from_json(report["t"]).shape == (2, 2)
        assert report["oracle_residual"] < 1e-10
        assert "over 3 hops" in err

    def test_wrong_stage_count_exit_2(self, capsys, tmp_path):
        spec = {"stages": [bipartite_to_json(bell(2)) for _ in range(3)]}
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(spec))
        assert main(["chain", str(path)]) == 2


class TestModular:
    def test_bell_pair(self, capsys, bell_file):
        code, report, _ = run_cli(capsys, "modular", bell_file, bell_file)
        assert code == 0
        delta = kronecker_from_json(report["Delta"]).mat
        assert np.linalg.norm(delta - np.eye(4)) < 1e-9
        assert report["S"]["parity"] == "antilinear"
        assert all(v < 1e-9 for v in report["residuals"].values())

    def test_separating_violation_exit_2(self, capsys, tmp_path, bell_file):
        product = {"dim_a": 2, "dim_b": 2, "coeff": matrix_to_json(np.diag([1.0, 0.0]))}
        path = tmp_path / "product.json"
        path.write_text(json.dumps(product))
        assert main(["modular", bell_file, str(path)]) == 2

    def test_dim_mismatch_exit_2(self, capsys, tmp_path, bell_file):
        psi3 = random_state((3, 3), seed=4, entangled=True)
        path = tmp_path / "psi3.json"
        path.write_text(json.dumps(bipartite_to_json(psi3)))
        assert main(["modular", bell_file, str(path)]) == 2

    def test_graded_k4_pair_exit_0(self, capsys, tmp_path):
        # Schmidt spectra logspace(0, -4, 4): exited 2 ("Delta deviates from
        # Hermiticity") while the reconstruction took the square root of Delta.
        from test_modular import graded_state

        rng = np.random.default_rng(3)
        paths = []
        for name, state in (("phi", graded_state(rng, 4, 4)), ("psi", graded_state(rng, 4, 4))):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(bipartite_to_json(state)))
        code, report, _ = run_cli(capsys, "modular", *map(str, paths))
        assert code == 0
        assert report["residuals"]["reconstruction"] <= 1e-9

    def test_wrong_delta_exit_3(self, capsys, monkeypatch, tmp_path):
        # S and J right, Delta off by one part in 1e6: only modular.delta sees it.
        from eprkit import modular as md

        tomita_S = md.tomita_S

        def wrong_delta(phi, psi):
            triple = tomita_S(phi, psi)
            a, b = triple.delta.factors
            return md.ModularTriple(s=triple.s, delta=md.KroneckerProduct((a * (1 + 1e-6), b)), j=triple.j)

        monkeypatch.setattr(md, "tomita_S", wrong_delta)
        paths = []
        for name, seed in (("phi", 5), ("psi", 6)):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(bipartite_to_json(random_state((3, 3), seed=seed, entangled=True))))
        code, report, err = run_cli(capsys, "modular", *map(str, paths))
        assert code == 3
        assert report["residuals"]["delta"] > 1e-9
        assert all(v < 1e-9 for k, v in report["residuals"].items() if k != "delta")
        assert "modular.delta" in err

    def test_emitted_operators_parse_back(self, capsys, bell_file):
        _, report, _ = run_cli(capsys, "modular", bell_file, bell_file)
        s = twisted_from_json(report["S"])
        j = twisted_from_json(report["J"])
        assert s.dim_a == s.dim_b == 2 and s.mat.shape == (4, 4)
        assert np.linalg.norm(s.mat - j.mat) < 1e-9  # Delta = 1 for this pair


    def test_beyond_the_dense_limit_from_factors(self, capsys, tmp_path):
        # d = 80: d² = 6400 > DENSE_DIM_LIMIT, and one dense 6400² complex matrix would take 655 MB.
        paths = [
            _write(tmp_path, f"{name}.json", bipartite_to_json(random_state((80, 80), seed=seed, entangled=True)))
            for name, seed in (("phi", 7), ("psi", 8))
        ]
        out = tmp_path / "modular.json"
        tracemalloc.start()
        try:
            code = main(["modular", *paths, "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak < 16e6
        report = json.loads(out.read_text())
        assert report["Delta"]["dim_a"] == report["Delta"]["dim_b"] == 80
        with pytest.raises(DimTooLarge):
            twisted_from_json(report["S"]).mat


class TestVerify:
    def test_small_run_exit_0(self, capsys):
        code, report, err = run_cli(capsys, "verify", "--trials", "3", "--dims", "2", "3")
        assert code == 0
        assert report["pass"] is True
        assert len(report["results"]) > 30
        assert "identities within tolerance" in err

    def test_single_trial_smoke(self, capsys):
        code, report, _ = run_cli(capsys, "verify", "--trials", "1", "--dims", "2")
        assert code == 0
        assert report["pass"] is True

    def test_unattainable_tolerance_exit_3(self, capsys):
        code = main(["verify", "--trials", "2", "--dims", "2", "--tolerance", "1e-30"])
        capsys.readouterr()
        assert code == 3

    def test_deterministic_reports_byte_identical(self, capsys):
        main(["verify", "--trials", "2", "--dims", "2"])
        out1 = capsys.readouterr().out
        main(["verify", "--trials", "2", "--dims", "2"])
        out2 = capsys.readouterr().out
        assert out1 == out2

    def test_seed_changes_nothing_structural(self, capsys):
        _, report, _ = run_cli(capsys, "verify", "--trials", "2", "--dims", "2", "--seed", "7")
        names = [r["identity"] for r in report["results"]]
        assert len(names) == len(set(names))

    def test_out_flag_writes_report(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--trials", "1", "--dims", "2", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == ""  # report went to the file, summary to stderr
        assert json.loads(out.read_text())["pass"] is True


def _write(tmp_path, name: str, obj) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize(
    "command, identities",
    [
        ("epr", {"epr.projection", "epr.pairing", "epr.inner_trace", "epr.reduction"}),
        ("teleport", {"teleport.factorization", "teleport.trace_fidelity"}),
        ("luders", {"luders.decoupling", "luders.op_bound"}),
        ("chain", {"chain.factorization"}),
        ("modular", {"modular.defining", "modular.reconstruction", "modular.phase_match",
                     "modular.intertwine"}),
    ],
)
def test_unattainable_tolerance_names_identity(capsys, tmp_path, command, identities):
    code, _, err = run_cli(capsys, command, *_arguments(tmp_path, command), "--tolerance", "1e-30")
    assert code == 3
    named = re.search(r"worst is (\S+) with residual", err).group(1)
    assert named in identities


def _arguments(tmp_path, command: str) -> list[str]:
    """Arguments for one run of `command` on seeded 2x2 states, input files written to tmp_path."""
    def state(seed, entangled=False):
        return bipartite_to_json(random_state((2, 2), seed=seed, entangled=entangled))

    if command == "epr":
        return [_write(tmp_path, "psi.json", state(1))]
    if command == "teleport":
        return [_write(tmp_path, "psi.json", state(1)), _write(tmp_path, "phi.json", state(2))]
    if command == "luders":
        return [_write(tmp_path, "channel.json", {"psi_ab": state(1), "phi_bc": state(2)})]
    if command == "chain":
        return [_write(tmp_path, "chain.json", {"stages": [state(k) for k in range(4)]})]
    if command == "modular":
        return [_write(tmp_path, "phi.json", state(1)), _write(tmp_path, "psi.json", state(2, True))]
    return {"verify": ["--trials", "1", "--dims", "2"], "random": ["--dims", "2", "3"]}[command]


@pytest.mark.parametrize("command", ["epr", "teleport", "luders", "chain", "modular", "verify", "random"])
def test_report_is_one_line_of_compact_json(capsys, tmp_path, command):
    argv = [command, *_arguments(tmp_path, command)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out)) + "\n"
    path = tmp_path / "report.json"
    assert main([*argv, "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == out.encode("utf-8")


def _invalid_arguments(tmp_path, case: str) -> list[str]:
    """Arguments that each must end in exit 2, input files written to tmp_path."""
    bell_json = bipartite_to_json(bell(2))
    if case == "entry-beyond-float64":
        bell_json["coeff"]["data"][1] = [0.0, 10**400]
        return ["epr", _write(tmp_path, "huge.json", bell_json)]
    if case == "bool-rows":
        coeff = {"rows": True, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0]]}
        return ["epr", _write(tmp_path, "bool.json", {"dim_a": 1, "dim_b": 2, "coeff": coeff})]
    if case == "luders-without-phi_bc":
        return ["luders", _write(tmp_path, "channel.json", {"psi_ab": bell_json})]
    if case.startswith("luders-psis-"):
        psis = {"luders-psis-int": 5, "luders-psis-null": None, "luders-psis-true": True}[case]
        return ["luders", _write(tmp_path, "channel.json", {"psis": psis, "phi_bc": bell_json})]
    if case == "chain-stages-not-a-list":
        return ["chain", _write(tmp_path, "chain.json", {"stages": {"0": bell_json, "1": bell_json}})]
    if case == "nan-tolerance":
        return ["epr", _write(tmp_path, "bell.json", bell_json), "--tolerance", "nan"]
    if case == "out-into-missing-directory":
        return ["random", "--out", str(tmp_path / "missing" / "state.json")]
    return {
        "random-one-dimension": ["random", "--dims", "2"],
        "verify-zero-trials": ["verify", "--trials", "0"],
        "verify-zero-tolerance": ["verify", "--tolerance", "0"],
    }[case]


@pytest.mark.parametrize(
    "case",
    [
        "entry-beyond-float64",
        "bool-rows",
        "luders-without-phi_bc",
        "luders-psis-int",
        "luders-psis-null",
        "luders-psis-true",
        "chain-stages-not-a-list",
        "nan-tolerance",
        "out-into-missing-directory",
        "random-one-dimension",
        "verify-zero-trials",
        "verify-zero-tolerance",
    ],
)
def test_invalid_input_exit_2(capsys, tmp_path, case):
    code = main(_invalid_arguments(tmp_path, case))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestRandom:
    def test_deterministic_output(self, capsys):
        code, report1, _ = run_cli(capsys, "random", "--dims", "2", "3", "--seed", "11")
        assert code == 0
        _, report2, _ = run_cli(capsys, "random", "--dims", "2", "3", "--seed", "11")
        assert report1 == report2
        coeff = matrix_from_json(report1["coeff"])
        assert np.linalg.norm(coeff) == pytest.approx(1.0, abs=1e-12)

    def test_entangled_flag(self, capsys):
        code, report, _ = run_cli(capsys, "random", "--dims", "2", "2", "--seed", "3", "--entangled")
        assert code == 0
        sv = np.linalg.svd(matrix_from_json(report["coeff"]), compute_uv=False)
        assert sv.min() > 1e-12 * sv.max()

    def test_out_flag_writes_file(self, capsys, tmp_path):
        out = tmp_path / "state.json"
        code = main(["random", "--dims", "2", "2", "--seed", "5", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        saved = json.loads(out.read_text())
        assert saved["dim_a"] == 2

    def test_bad_dims_exit_2(self, capsys):
        assert main(["random", "--dims", "2", "0"]) == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "eprkit", "verify", "--trials", "1", "--dims", "2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True
