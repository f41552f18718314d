"""The batched verify suites and CLI probe stacks against per-trial and per-probe loops.

Each suite draws every trial from its own sub-stream and then evaluates each
identity once per group of equal dims on stacked value types.  Run one trial
at a time on unstacked draws, the same suite code calls the public
single-instance functions; both routes must give the same residuals.
"""

import json

import numpy as np
import pytest

from eprkit import antilinear as al
from eprkit import bipartite as bp
from eprkit import cli
from eprkit import errors
from eprkit import linalg as la
from eprkit import modular as md
from eprkit import sampling
from eprkit import teleport as tp
from eprkit import verify as vf
from eprkit.cli import PROBE_COUNT, main
from eprkit.formats import bipartite_to_json
from eprkit.sampling import (
    coeff_normals,
    complex_normal,
    random_psd,
    random_state,
    random_unit_vector,
    random_unitary,
    rng_for,
    state_from_rng,
)

from util import seeded_rng

DIMS = [2, 3, 4]
TRIALS = 12


def fro(x) -> float:
    return float(np.linalg.norm(np.asarray(x).reshape(-1)))


GROUPS = vf._groups  # kept for per_trial_groups, which stands in for it


def per_trial_groups(table, seed, stream, trials, draw, entangled=False):
    """verify._groups one trial at a time, each array unstacked: the suites' single-instance path."""
    for t in trials:
        for rec, dims, stacks in GROUPS(table, seed, stream, [t], draw, entangled):
            yield rec, dims, [s[0] for s in stacks]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("suite", vf.SUITES, ids=lambda s: s.__name__)
def test_batched_suite_equals_per_trial_loop(suite, seed, monkeypatch):
    table = vf.ResidualTable()
    suite(table, seed, DIMS, range(TRIALS))
    batched = {r.name: r for r in table.results()}
    # The same suite code on each trial's own draws, without a stack axis:
    # every library call is then the public single-instance call.
    monkeypatch.setattr(vf, "_groups", per_trial_groups)
    looped = vf.ResidualTable()
    suite(looped, seed, DIMS, range(TRIALS))
    single = {r.name: r for r in looped.results()}
    assert batched.keys() == single.keys()
    for name, r in batched.items():
        assert r.residual == single[name].residual, name
        assert r.worst == single[name].worst, name


def per_trial_rngs(seed, *stream, trials):
    """One rng_for call per trial, in place of the vectorized seeding of verify's draw phase."""
    return [rng_for(seed, *stream, t) for t in trials]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_vectorized_seeding_gives_the_per_trial_results(seed, monkeypatch):
    fast = vf.run_all(seed=seed, trials=20)
    monkeypatch.setattr(vf, "trial_rngs", per_trial_rngs)
    assert vf.run_all(seed=seed, trials=20) == fast


def test_rejected_first_candidates_are_redrawn_with_the_checking_loop(monkeypatch):
    """Under a rule that rejects about half the candidates, stacked checks and redraws give the checked draws."""
    full_rank = md.gns_check

    def accept(c):
        return full_rank(c) & (np.asarray(c)[..., 0, 0].real > 0)

    monkeypatch.setattr(sampling, "gns_check", accept)  # coeff_normals' checking loop
    monkeypatch.setattr(md, "gns_check", accept)  # the stacked check of the draw phase

    def draw(rng, t, entangled=False):
        d = 2 + t % 2
        return (d,), (coeff_normals(rng, d, d, entangled), rng.standard_normal(3))

    groups = list(vf._groups(vf.ResidualTable(), 5, 40, range(12), draw, entangled=True))
    assert [rec.keywords["origins"] for rec, _, _ in groups] == [
        [(40, t, (d,)) for t in range(12) if 2 + t % 2 == d] for d in (2, 3)
    ]
    redrawn = 0
    for rec, dims, stacks in groups:
        trials = [t for _, t, _ in rec.keywords["origins"]]
        wants = [draw(rng_for(5, 40, t), t, entangled=True) for t in trials]
        assert all(want_dims == dims for want_dims, _ in wants)
        for k, stack in enumerate(stacks):
            members = np.stack([want[k] for _, want in wants])
            assert stack.flags.c_contiguous and (stack.shape, stack.dtype) == (members.shape, members.dtype), k
            assert stack.tobytes() == members.tobytes(), k  # the bits of np.stack over the checking loop's draws
        first = [draw(rng_for(5, 40, t), t)[1][0] for t in trials]
        redrawn += sum(not np.array_equal(x, f) for x, f in zip(stacks[0], first))
    assert redrawn >= 3


def test_every_reported_worst_trial_replays_bit_for_bit():
    results = vf.run_all(seed=1)
    suites = {}
    for suite in vf.SUITES:
        table = vf.ResidualTable()
        suite(table, 1, [2, 3, 4], range(2))
        suites.update({r.name: suite for r in table.results()})
    for r in results:
        stream, trial, dims = r.worst
        table = vf.ResidualTable()
        suites[r.name](table, 1, [2, 3, 4], [trial])
        (replayed,) = [x for x in table.results() if x.name == r.name]
        assert replayed.residual == r.residual, r.name
        assert replayed.worst == (stream, trial, dims), r.name


def test_each_worst_stream_is_the_stream_its_trial_was_drawn_from(monkeypatch):
    """Every reported worst (stream, trial) was seeded, and each of the 13 suites seeds its own one tag."""
    suite, streams, seeded = [None], {}, set()

    def seeding(stream, trials):
        streams.setdefault(suite[0], set()).add(stream)
        seeded.update((stream, t) for t in trials)

    def trial_rngs(seed, *stream, trials):
        seeding(stream, list(trials))
        return sampling.trial_rngs(seed, *stream, trials=trials)

    def rng_for(seed, *stream):
        seeding(stream[:-1], stream[-1:])
        return sampling.rng_for(seed, *stream)

    def traced(run):
        def traced_run(*args):
            suite[0] = run
            return run(*args)

        return traced_run

    monkeypatch.setattr(vf, "trial_rngs", trial_rngs)
    monkeypatch.setattr(vf, "rng_for", rng_for)
    monkeypatch.setattr(vf, "SUITES", tuple(traced(s) for s in vf.SUITES))
    results = vf.run_all(seed=1, trials=12)
    assert all(((r.worst[0],), r.worst[1]) in seeded for r in results)
    assert len(streams) == 13 and all(len(tags) == 1 for tags in streams.values())
    assert len(set().union(*streams.values())) == 13


@pytest.mark.parametrize("order", ["finite first", "nan first"])
def test_nan_residual_wins_in_either_order(order):
    finite, nan = ([2e-16], [(10, 0, (2, 2))]), ([np.nan], [(10, 1, (3, 3))])
    table = vf.ResidualTable()
    for values, origins in (finite, nan) if order == "finite first" else (nan, finite):
        table.record("epr.pairing", values, origins)
    table.record("epr.projection", [1.0], [(10, 0, (2, 2))])  # a hundred times its tolerance
    projection, pairing = table.results()
    assert np.isnan(pairing.residual) and pairing.worst == (10, 1, (3, 3)) and not pairing.passed
    with pytest.raises(errors.ToleranceExceeded, match="worst is epr.pairing with residual nan"):
        vf.check_all([projection, pairing])
    with pytest.raises(errors.ToleranceExceeded, match="worst is epr.pairing with residual nan"):
        vf.check_all([pairing, projection])


@pytest.mark.parametrize("top", [2.0, np.nan])
def test_ties_go_to_the_lowest_trial(top):
    table = vf.ResidualTable()
    table.record("epr.pairing", [1.0, top, top], [(10, 5, (2, 2)), (10, 7, (2, 2)), (10, 9, (2, 2))])
    table.record("epr.pairing", [top], [(10, 3, (3, 3))])
    table.record("epr.pairing", [top], [(10, 4, (3, 3))])
    (result,) = table.results()
    assert np.array_equal(result.residual, top, equal_nan=True) and result.worst == (10, 3, (3, 3))


def test_verify_report_names_the_worst_trial(capsys):
    assert main(["verify", "--seed", "19", "--trials", "100"]) == 0
    report = json.loads(capsys.readouterr().out)
    worst = {r["identity"]: r["worst"] for r in report["results"]}
    assert set(worst) == set(vf.TOLERANCES)
    assert worst["modular.defining"]["stream"] == 120
    assert all(set(w) == {"stream", "trial", "dims"} for w in worst.values())


class TestStackChecks:
    def test_non_hermitian_member_is_named(self):
        rng = seeded_rng(201)
        stack = np.stack([random_psd(rng, 3) for _ in range(5)])
        stack[3, 0, 1] += 1e-6
        with pytest.raises(errors.NotHermitian, match=r"^omega\[3\] deviates from Hermiticity by 5\.000e-07"):
            la.psd_sqrt(stack, "omega")

    def test_negative_member_is_named(self):
        stack = np.stack([np.eye(2), np.diag([1.0, -0.5])])
        with pytest.raises(errors.NotPositive, match=r"^omega\[1\] has eigenvalue -5\.000e-01"):
            la.support_projection(stack, "omega")

    def test_nonfinite_member_is_named(self):
        stack = np.zeros((4, 2, 2))
        stack[2, 1, 1] = np.inf
        with pytest.raises(errors.NonFinite, match=r"^A\[2\] contains"):
            la.as_matrix(stack, "A")

    def test_stack_of_one_gives_the_single_bits(self):
        rng = seeded_rng(202)
        h = random_psd(rng, 4)
        m = complex_normal(rng, 4, 3)
        assert np.array_equal(la.psd_sqrt(h[None])[0], la.psd_sqrt(h))
        assert np.array_equal(la.support_projection(h[None])[0], la.support_projection(h))
        single = al.polar(al.AntilinearMap(m))
        stacked = al.polar(al.AntilinearMap(m[None]))
        assert np.array_equal(stacked.positive[0], single.positive)
        assert np.array_equal(stacked.phase.mat[0], single.phase.mat)
        assert la.fidelity(h[None], h[None] / 2)[0] == la.fidelity(h, h / 2)

    def test_ragged_rank_is_masked(self):
        rng = seeded_rng(203)
        full = complex_normal(rng, 3, 3)
        deficient = np.outer(complex_normal(rng, 3), complex_normal(rng, 3))
        parts = al.polar(al.AntilinearMap(np.stack([full, deficient])))
        positive, phase, support_cod = parts.positive, parts.phase.mat, parts.support_cod
        assert np.allclose(support_cod[0], np.eye(3), atol=1e-12)
        assert np.trace(support_cod[1]).real == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(phase[1] @ phase[1].conj().T, support_cod[1], atol=1e-12)
        assert np.allclose(positive[1] @ phase[1], deficient, atol=1e-12)


@pytest.mark.parametrize(
    "fn, kind",
    [
        (lambda x, y: al.trace_product(al.AntilinearMap(x), al.AntilinearMap(y)), complex),
        (lambda x, y: bp.inner_via_trace(bp.BipartiteVector(x), bp.BipartiteVector(y)), complex),
        (lambda x, y: bp.cloning_check(bp.BipartiteVector(x), bp.BipartiteVector(y))[0], bool),
        (lambda x, y: la.numerical_rank(np.linalg.svd(x, compute_uv=False)), int),
        (lambda x, y: md.gns_check(x), bool),
    ],
    ids=["trace_product", "inner_via_trace", "cloning_check", "numerical_rank", "gns_check"],
)
def test_single_inputs_give_python_scalars_and_stacks_arrays(fn, kind):
    rng = seeded_rng(206)
    x, y = complex_normal(rng, 3, 3), complex_normal(rng, 3, 3)
    single = fn(x, y)
    assert type(single) is kind
    stacked = fn(np.stack([x, y]), np.stack([y, x]))
    assert isinstance(stacked, np.ndarray) and stacked.shape == (2,)
    assert stacked[0] == single


def write_state(tmp_path, name, psi):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(bipartite_to_json(psi)))
    return str(path)


class TestCliProbeStacks:
    """The CLI's residuals over its stacked probes against the per-probe loop it replaced."""

    def probes(self, seed, tag, dim):
        rng = rng_for(seed, tag)
        return [random_unit_vector(rng, dim) for _ in range(PROBE_COUNT)]

    @pytest.mark.parametrize("dim", [1, 2, 3, 7, 64])
    def test_vector_probes_are_unit_complex_normal_rows(self, dim):
        (probes,) = cli._probes(rng_for(42, 2), (dim,))
        rows = sampling.complex_normal_rows(rng_for(42, 2), PROBE_COUNT, dim)
        assert probes.tobytes() == sampling.unit(rows).tobytes()

    def test_epr(self, capsys, tmp_path):
        psi = random_state((3, 2), seed=11)
        assert main(["epr", write_state(tmp_path, "psi", psi), "--seed", "5"]) == 0
        report = json.loads(capsys.readouterr().out)
        pair = bp.epr_maps(psi)
        omega_a = bp.reduced(psi, "a")
        rng = rng_for(5, 1)
        worst = {"projection": 0.0, "pairing": 0.0, "inner_trace": 0.0}
        for _ in range(PROBE_COUNT):
            phi_a, phi_b = random_unit_vector(rng, 3), random_unit_vector(rng, 2)
            chi = state_from_rng(rng, 3, 2)
            for name, value in (
                ("projection", vf.epr_projection(psi, pair, omega_a, phi_a)),
                ("pairing", vf.epr_pairing(psi, pair, phi_a, phi_b)),
                ("inner_trace", vf.epr_inner_trace(psi, pair, chi)),
            ):
                worst[name] = max(worst[name], float(value))
        assert {k: report["residuals"][k] for k in worst} == worst

    def test_teleport(self, capsys, tmp_path):
        psi, phi = random_state((2, 3), seed=12), random_state((3, 4), seed=13)
        argv = ["teleport", write_state(tmp_path, "psi", psi), write_state(tmp_path, "phi", phi)]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        tm = tp.teleport_map(psi, phi)
        loop = max(fro(tm.t @ v - tp.teleport_oracle(psi, phi, v)) for v in self.probes(42, 2, 2))
        assert report["oracle_residual"] == loop

    def test_luders(self, capsys, tmp_path):
        u = random_unitary(seeded_rng(204), 6)
        psis = [bp.BipartiteVector.from_vector(u[:, k], 2, 3) for k in range(3)]
        phi = random_state((3, 2), seed=14)
        path = tmp_path / "channel.json"
        path.write_text(json.dumps({"psis": [bipartite_to_json(p) for p in psis], "phi_bc": bipartite_to_json(phi)}))
        assert main(["luders", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        ch = tp.luders_channel(psis, phi)
        loop = max(
            fro(tp.luders_project(ch, v) - sum(np.kron(w, t @ v) for w, t in zip(ch.psis.to_vector(), ch.maps)))
            for v in self.probes(42, 3, 2)
        )
        assert report["decoupling_residual"] == loop

    def test_chain(self, capsys, tmp_path):
        stages = [random_state(dims, seed=20 + k) for k, dims in enumerate([(2, 3), (3, 2), (2, 2), (2, 3)])]
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"stages": [bipartite_to_json(s) for s in stages]}))
        assert main(["chain", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        t = tp.chain_teleport(stages)
        loop = max(fro(t @ v - tp.chain_oracle(v, stages)) for v in self.probes(42, 4, 2))
        assert report["oracle_residual"] == loop
