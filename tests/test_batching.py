"""The batched verify suites and CLI probe stacks against per-trial and per-probe loops.

Each suite draws every trial from its own sub-stream and then evaluates each
identity once per group of equal dims on stacked value types.  Run one trial
at a time on unstacked draws, the same suite code calls the public
single-instance functions; both routes must give the same residuals.
"""

import json
from functools import partial

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
from eprkit.sampling import random_state, rng_for, state_from_rng

from util import complex_normal, random_psd, random_unit_vector, random_unitary, seeded_rng

DIMS = [2, 3, 4]
TRIALS = 12


def fro(x) -> float:
    return float(np.linalg.norm(np.asarray(x).reshape(-1)))


GROUPS, STACK = vf._groups, vf._stack  # kept for the stand-ins below


def per_trial_stack(seen):
    """verify._stack one member at a time, each array unstacked: the suites' single-instance path.

    Each call appends to `seen` the list of trials it was handed.  A padded
    suite's trial is padded alone to the shapes its batch pads to.
    """

    def stack(table, stream, members, pad):
        seen.append([])
        for member in members:
            for rec, dims, stacks in STACK(table, stream, [member], pad):
                seen[-1].append(member[0])
                yield rec, dims, [s[0] for s in stacks]

    return stack


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("suite", vf.SUITES, ids=lambda s: s.__name__)
def test_batched_suite_equals_per_trial_loop(suite, seed, monkeypatch):
    table = vf.ResidualTable()
    suite(table, seed, DIMS, range(TRIALS))
    batched = {r.name: r for r in table.results()}
    # The same suite code on each trial's own draws, without a stack axis:
    # every library call is then the public single-instance call.
    seen = []
    monkeypatch.setattr(vf, "_stack", per_trial_stack(seen))
    looped = vf.ResidualTable()
    suite(looped, seed, DIMS, range(TRIALS))
    single = {r.name: r for r in looped.results()}
    # A suite that stacks around _stack would compare its batched path with itself.
    assert seen and all(ts == list(range(TRIALS)) for ts in seen), seen
    assert len(seen) == 1 + (suite is vf.matcore_suite), seen  # matcore draws its pair identity from its own tag
    assert batched.keys() == single.keys()
    for name, r in batched.items():
        assert r.residual == single[name].residual, name
        assert r.worst == single[name].worst, name


PADDED = (vf.epr_suite, vf.antilinear_suite, vf.polar_suite, vf.crossgram_suite, vf.teleport_suite, vf.luders_suite)


def unpadded_groups(table, seed, stream, trials, dims_list, shapes, padded=False, pad=None):
    """verify._groups with every trial grouped by its own dims: a padded suite as it ran before padding."""
    return GROUPS(table, seed, stream, trials, dims_list, shapes, False, pad and pad._replace(dims=[]))


def spied_groups(seen):
    """verify._groups that appends to `seen` each group's dims and the dims of its members."""

    def groups(*args, **kwargs):
        for rec, dims, stacks in GROUPS(*args, **kwargs):
            seen.append((dims, [o[2] for o in rec.origins]))
            yield rec, dims, stacks

    return groups


@pytest.mark.parametrize("seed", [1, 2, 42])
@pytest.mark.parametrize("suite", PADDED, ids=lambda s: s.__name__)
def test_padding_keeps_each_residual_at_roundoff(suite, seed, monkeypatch):
    """Each padded suite against its trials grouped by real dims: no residual rises past 4 times, or 1% of tolerance."""
    padded = vf.ResidualTable()
    suite(padded, seed, DIMS, range(100))
    monkeypatch.setattr(vf, "_groups", unpadded_groups)
    grouped = vf.ResidualTable()
    suite(grouped, seed, DIMS, range(100))
    by_dims = {r.name: r.residual for r in grouped.results()}
    results = padded.results()
    assert results and {r.name for r in results} == by_dims.keys()
    for r in results:
        assert r.residual <= min(4 * by_dims[r.name], 0.01 * r.tolerance), (r.name, r.residual, by_dims[r.name])


@pytest.mark.parametrize("suite", PADDED, ids=lambda s: s.__name__)
def test_trials_past_the_pad_cap_keep_their_own_groups(suite, monkeypatch):
    """At dims (2, 3, 24) a trial with a d above 4 runs in a group of its own dims, and none pads past 4."""
    seen = []
    monkeypatch.setattr(vf, "_groups", spied_groups(seen))
    table = vf.ResidualTable()
    suite(table, 1, [2, 3, 24], range(18))
    assert table.results() and all(r.passed for r in table.results())
    for dims, members in seen:
        if max(dims) > 4:  # past the cap: unpadded, with its own dims
            assert set(members) == {dims}, (dims, members)
        else:  # every member within the cap, and padded to no more than 4
            assert all(max(m) <= 4 and all(a <= b for a, b in zip(m, dims)) for m in members), (dims, members)
    assert sum(len(set(members)) > 1 for _, members in seen) == 1  # one stack holds the trials of several dims


def per_trial_rngs(seed, streams, trials):
    """One rng_for call per trial, each made as its trial is reached, in place of the vectorized seeding."""
    return {s: map(partial(rng_for, seed, s), trials) for s in streams}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_vectorized_seeding_gives_the_per_trial_results(seed, monkeypatch):
    fast = vf.run_all(seed=seed, trials=20)
    monkeypatch.setattr(vf, "trial_rngs", per_trial_rngs)
    assert vf.run_all(seed=seed, trials=20) == fast


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
    """Every reported worst (stream, trial) was drawn, each of the 13 suites draws from its own tags in
    verify.STREAMS, one each but matcore's two, and one trial_rngs pass seeds all 14."""
    suite, streams, drawn, passes = [None], {}, set(), []
    plain_rngs, plain_trial_rngs = vf.ResidualTable.rngs, vf.trial_rngs

    def rngs(table, seed, stream, trials):
        streams.setdefault(suite[0], set()).add(stream)
        drawn.update((stream, t) for t in trials)
        return plain_rngs(table, seed, stream, trials)

    def trial_rngs(seed, streams, trials):
        passes.append(list(streams))
        return plain_trial_rngs(seed, streams, trials)

    def traced(run):
        def traced_run(*args):
            suite[0] = run
            return run(*args)

        return traced_run

    monkeypatch.setattr(vf.ResidualTable, "rngs", rngs)
    monkeypatch.setattr(vf, "trial_rngs", trial_rngs)
    monkeypatch.setattr(vf, "SUITES", tuple(traced(s) for s in vf.SUITES))
    results = vf.run_all(seed=1, trials=12)
    assert all(r.worst[:2] in drawn for r in results)
    assert len(streams) == 13 and [len(tags) for tags in streams.values()] == [2] + [1] * 12
    assert set().union(*streams.values()) == set(vf.STREAMS.values()) and len(vf.STREAMS) == 14
    assert passes == [list(vf.STREAMS.values())]


def test_a_suite_run_twice_on_one_table_draws_the_same_trials():
    """A stream handed out once is seeded again for a second call with the same (seed, trials)."""
    once, twice = vf.ResidualTable(), vf.ResidualTable()
    vf.antilinear_suite(once, 1, DIMS, range(5))
    for _ in range(2):
        vf.antilinear_suite(twice, 1, DIMS, range(5))
    assert once.results() == twice.results()


def test_a_tag_outside_streams_draws_its_own_sub_stream():
    got = [rng.standard_normal(3) for rng in vf.ResidualTable().rngs(1, 999, range(3))]
    assert all(np.array_equal(x, rng_for(1, 999, t).standard_normal(3)) for t, x in enumerate(got))


class LoggedRng:
    """A generator that appends (method, first argument) to `log` on each call before making it."""

    def __init__(self, rng, log):
        self.rng, self.log = rng, log

    def __getattr__(self, name):
        def call(arg, *args, **kwargs):
            self.log.append((name, arg))
            return getattr(self.rng, name)(arg, *args, **kwargs)

        return call


@pytest.mark.parametrize("dims", [(2, 3, 4), (1, 5), (3,)])
def test_each_trial_draws_one_run_of_normals_that_is_its_member(dims, monkeypatch):
    """Every (stream, trial) of every tag in verify.STREAMS makes one generator call, a standard_normal run of its
    member's size, and hands that run alone to _stack: (seed, tag, trial, dims) and the suite's shapes redraw it."""
    calls, members = {}, {}
    plain_rngs = vf.ResidualTable.rngs

    def rngs(table, seed, stream, trials):
        trials = list(trials)
        logs = [calls.setdefault((stream, t), []) for t in trials]
        return map(LoggedRng, plain_rngs(table, seed, stream, trials), logs)

    def stack(table, stream, drawn, pad):
        for t, _, arrays in drawn:
            assert (stream, t) not in members
            members[stream, t] = arrays
        return STACK(table, stream, drawn, pad)

    monkeypatch.setattr(vf.ResidualTable, "rngs", rngs)
    monkeypatch.setattr(vf, "_stack", stack)
    vf.run_all(seed=3, dims=dims)
    assert calls.keys() == members.keys() == {(s, t) for s in vf.STREAMS.values() for t in range(100)}
    for (stream, t), arrays in members.items():
        (x,) = arrays
        assert calls[stream, t] == [("standard_normal", x.size)], (stream, t)
        assert np.array_equal(x, rng_for(3, stream, t).standard_normal(x.size)), (stream, t)


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


@pytest.mark.parametrize("dims", [(2, 3, 4), (1, 2), (3,)])
def test_luders_origins_carry_channel_dims_and_rank(dims):
    """Every luders.* worst origin is (90, trial, (da, db, dc, rank)) with the trial's own draw, and replays alone.

    All five identities report at every dims: at (3,) each channel has d_a·d_b = 9 and completeness still runs.
    """
    results = [r for r in vf.run_all(seed=1, dims=dims) if r.name.startswith("luders.")]
    small = [d for d in dims if d <= 3] or [2]
    pairs = [(da, db) for da in small for db in small]
    assert len(results) == 5
    for r in results:
        stream, trial, (da, db, dc, rank) = r.worst
        assert stream == 90 and (da, db) == pairs[trial % len(pairs)] and dc == small[trial % len(small)], r.name
        assert rank == 1 + trial // len(pairs) % (da * db), r.name  # each dims' trials cycle through the ranks
        table = vf.ResidualTable()
        vf.luders_suite(table, 1, list(dims), [trial])
        assert {x.name: (x.residual, x.worst) for x in table.results()}[r.name] == (r.residual, r.worst), r.name


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
        (lambda x, y: md.gns_check(bp.BipartiteVector(x)), bool),
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
        """The probes are PROBE_COUNT sequential complex_normal draws, each made unit, stacked as rows."""
        (probes,) = cli._probes(rng_for(42, 2), (dim,))
        rng = rng_for(42, 2)
        rows = np.stack([complex_normal(rng, dim) for _ in range(PROBE_COUNT)])
        assert probes.tobytes() == sampling.unit(rows).tobytes()

    def test_epr(self, capsys, tmp_path):
        psi = random_state((3, 2), seed=11)
        assert main(["epr", write_state(tmp_path, "psi", psi), "--seed", "5"]) == 0
        report = json.loads(capsys.readouterr().out)
        rng = rng_for(5, 1)
        worst = {}

        def rec(name, value):  # the max over the per-probe calls
            key = name.removeprefix("epr.")
            worst[key] = max(worst.get(key, 0.0), float(value))

        for _ in range(PROBE_COUNT):
            phi_a, phi_b = random_unit_vector(rng, 3), random_unit_vector(rng, 2)
            vf.epr_checks(rec, psi, phi_a, phi_b, state_from_rng(rng, 3, 2).coeff)
        assert report["residuals"] == worst

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
        psis = [bp.BipartiteVector(u[:, k].reshape(2, 3)) for k in range(3)]
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
