"""Each identity of the five subcommand families must catch a mutant: the first rows of verify's mutation table.

Each check routine runs on one seeded single instance with a recording rec.
Unmutated, every name it records is within tolerance.  Under that name's
mutant, a library function whose result is scaled by 1 + 1e-6 or a
perturbed operand, the name is at least ten times its tolerance.  The
identities only a suite checks run through their suite on 16 seeded trials
at dims [2, 3], under mutants of the library functions the suite calls; a
symmetric identity gets a mutant that breaks its symmetry (a dropped
conjugation or transpose, a swapped argument).  The modular factor routes
have their perturbation tests in test_modular (TestFactorRoutes).
"""

from dataclasses import replace

import pytest

from eprkit import antilinear as al
from eprkit import bipartite as bp
from eprkit import linalg as la
from eprkit import modular as md
from eprkit import teleport as tp
from eprkit import verify as vf
from eprkit.sampling import random_state, unit

from util import complex_normal, random_unit_vector, random_unitary, seeded_rng

SCALE = 1 + 1e-6


def epr_instance():
    psi, rng = random_state((3, 2), seed=301), seeded_rng(301)
    phi_a, phi_b, chi = random_unit_vector(rng, 3), random_unit_vector(rng, 2), unit(complex_normal(rng, 3, 2), 2)
    return vf.epr_checks, (psi, phi_a, phi_b, chi)


def teleport_instance():
    psi, phi = random_state((2, 3), seed=302), random_state((3, 2), seed=303)
    return vf.teleport_checks, (psi, phi, random_unit_vector(seeded_rng(302), 2))


def luders_instance():
    u = random_unitary(seeded_rng(304), 6)
    psis = [bp.BipartiteVector(u[:, k].reshape(2, 3)) for k in range(2)]
    return vf.luders_checks, (psis, random_state((3, 2), seed=305), random_unit_vector(seeded_rng(304), 2))


def chain_instance():
    stages = [random_state(dims, seed=306 + k) for k, dims in enumerate([(2, 3), (3, 2), (2, 2), (2, 3)])]
    return vf.chain_checks, (stages, random_unit_vector(seeded_rng(306), 2))


def replaced(module, attr, mutant):
    """The mutant module.attr = mutant(plain), plain the unmutated function."""

    def mutate(monkeypatch, operands):
        monkeypatch.setattr(module, attr, mutant(getattr(module, attr)))
        return operands

    return mutate


def scaled(module, attr, wrap=lambda out: out * SCALE):
    """The mutant module.attr whose result goes through wrap, by default scaled by SCALE."""
    return replaced(module, attr, lambda plain: lambda *args, **kwargs: wrap(plain(*args, **kwargs)))


MUTANTS = {
    "epr.projection": (epr_instance, scaled(bp, "project_rank1", lambda v: bp.BipartiteVector(v.coeff * SCALE))),
    "epr.pairing": (epr_instance, scaled(al, "apply")),
    "epr.inner_trace": (epr_instance, scaled(bp, "inner_via_trace")),
    "epr.reduction": (epr_instance, scaled(la, "partial_trace")),
    "teleport.factorization": (teleport_instance, scaled(tp, "teleport_oracle")),
    "teleport.trace_fidelity": (
        teleport_instance,
        replaced(tp.TeleportMap, "t", lambda plain: property(lambda tm: plain.func(tm) * SCALE)),
    ),
    "luders.decoupling": (luders_instance, scaled(tp, "luders_project")),
    "luders.op_bound": (
        luders_instance,
        scaled(tp, "luders_bounds", lambda b: b._replace(op_bound=b.op_bound * SCALE)),
    ),
    "chain.factorization": (chain_instance, scaled(tp, "chain_oracle")),
}


def recorded(routine, operands) -> dict:
    out = {}
    routine(lambda name, values: out.__setitem__(name, float(values)), *operands)
    return out


@pytest.mark.parametrize("instance", [epr_instance, teleport_instance, luders_instance, chain_instance])
def test_unmutated_within_tolerance(instance):
    got = recorded(*instance())
    assert set(got) == {name for name, (of, _) in MUTANTS.items() if of is instance}
    for name, value in got.items():
        assert value <= vf.TOLERANCES[name], name


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_caught(monkeypatch, name):
    instance, mutate = MUTANTS[name]
    routine, operands = instance()
    assert recorded(routine, mutate(monkeypatch, operands))[name] >= 10 * vf.TOLERANCES[name]


def suite_residuals(suite, seed: int) -> dict:
    """suite on 16 seeded trials at dims [2, 3]: the residual of each identity."""
    table = vf.ResidualTable()
    suite(table, seed, [2, 3], range(16))
    return {r.name: r.residual for r in table.results()}


def first_term(ch, nu):
    """t_0 nu t_0†, the first map's term of the channel action."""
    t0 = ch.maps[..., 0, :, :]
    return t0 @ nu @ t0.conj().mT


def luders_apply_plus(term):
    """The mutant of luders_apply that adds term(ch, nu, out) to its output."""

    def mutant(plain):
        def luders_apply(ch, nu):
            out = plain(ch, nu)
            return out + term(ch, nu, out)

        return luders_apply

    return replaced(tp, "luders_apply", mutant)


def eta_scaled(triple):
    """The triple with S's eta factor scaled by SCALE."""
    eta, xi = triple.s.factors
    return md.ModularTriple(s=md.TwistedOperator((eta * SCALE, xi), triple.s.parity), delta=triple.delta, j=triple.j)


def state_scaled(psi):
    return bp.BipartiteVector(psi.coeff * SCALE)


def anti_scaled(t):
    return al.AntilinearMap(t.mat * SCALE)


def twisted_scaled(op):
    """The twisted product op with its first factor scaled by SCALE."""
    eta, xi = op.factors
    return md.TwistedOperator((eta * SCALE, xi), op.parity)


def kronecker_scaled(op):
    first, second = op.factors
    return md.KroneckerProduct((first * SCALE, second))


def fidelity_of_first(plain):
    """_fidelity_of(r, o) that reads r twice: fidelity(rho, omega) becomes fidelity(rho, rho)."""
    return lambda r, o: plain(r, r)


def second_conj_dropped(plain):
    """compose_aa without the conjugation of its second factor: M1 @ M2."""
    return lambda t1, t2: t1.mat @ t2.mat


def other_side_kept(plain):
    """partial_trace keeping the factor it was asked to trace out."""
    return lambda m, dim_a, dim_b, side: plain(m, dim_a, dim_b, {"a": "b", "b": "a"}[side])


def a_side_shifted(plain):
    """reduced with 1e-6 added to every entry of an a-side reduction: two of them no longer commute."""
    return lambda psi, side, *rest: plain(psi, side, *rest) + 1e-6 * (side == "a")


def phase_untransposed(plain):
    """_phases with j_phi_ab left as the phase of s_phi_ba, its transpose dropped."""

    def phases(phi, psi):
        j_phi_ab, j_psi_ba = plain(phi, psi)
        return j_phi_ab.mT, j_psi_ba

    return phases


# name: (suite, seed, mutant).  The Lüders mutants add a term to luders_apply's output: 1e-6 of the output itself
# (a scaled action), or 1e-6 of its first map's term, which makes the action depend on the decomposition.  Seed 7
# gives Lüders trials whose ranks include full ones.
SUITE_MUTANTS = {
    "epr.reconstruct": (vf.epr_suite, 1, scaled(bp, "reconstruct", state_scaled)),
    "epr.local_transform": (vf.epr_suite, 1, scaled(bp, "local_transform", state_scaled)),
    "teleport.bound_attained": (vf.teleport_suite, 1, scaled(tp, "success_bound")),
    # One-sided: a larger bound passes by design, and the probes' outputs stay below the true bound, so only a
    # bound cut far below it can show.
    "teleport.bound_holds": (vf.teleport_suite, 1, scaled(tp, "success_bound", lambda bound: bound / 2)),
    "luders.independence": (
        vf.luders_suite,
        7,
        luders_apply_plus(lambda ch, nu, out: (SCALE - 1) * first_term(ch, nu)),
    ),
    "luders.trace_bound": (vf.luders_suite, 7, luders_apply_plus(lambda ch, nu, out: (SCALE - 1) * out)),
    "luders.completeness": (vf.luders_suite, 7, luders_apply_plus(lambda ch, nu, out: (SCALE - 1) * out)),
    "modular.fixed_point": (vf.modular_suite, 1, scaled(md, "tomita_S", eta_scaled)),
    "partner.trace": (vf.partner_suite, 1, scaled(bp, "partner_operator")),
    "partner.intertwine": (vf.partner_suite, 1, scaled(bp, "partner_operator")),
    "crossgram.singulars": (vf.crossgram_suite, 1, scaled(bp, "cross_gram")),
    "crossgram.trace": (vf.crossgram_suite, 1, scaled(bp, "cross_gram")),
    "purification.roundtrip": (vf.purification_suite, 1, scaled(bp, "purification_from_isometry", state_scaled)),
    "matcore.svd_reconstruct": (vf.matcore_suite, 1, scaled(la, "svd", lambda r: replace(r, sigma=r.sigma * SCALE))),
    "matcore.psd_sqrt": (vf.matcore_suite, 1, scaled(la, "psd_sqrt")),
    # The symmetric identities need mutants that break their symmetry: a scaled fidelity, a scaled compose_aa or
    # a trace_product that commutes with conjugation would leave each of them unchanged.
    "matcore.fidelity_symmetry": (vf.matcore_suite, 1, replaced(la, "_fidelity_of", fidelity_of_first)),
    "matcore.partial_trace_invariance": (vf.matcore_suite, 1, replaced(la, "partial_trace", other_side_kept)),
    "anti.adjoint_pairing": (vf.antilinear_suite, 1, scaled(al, "adjoint", anti_scaled)),
    "anti.involution": (vf.antilinear_suite, 1, scaled(al, "adjoint", anti_scaled)),
    "anti.compose_adjoint": (vf.antilinear_suite, 1, replaced(al, "compose_aa", second_conj_dropped)),
    "anti.mixed_compose": (vf.antilinear_suite, 1, scaled(al, "compose_mixed", anti_scaled)),
    "anti.trace_conjugation": (vf.antilinear_suite, 1, scaled(al, "trace_product", lambda z: z * (1 + 1e-6j))),
    "polar.factorizations": (vf.polar_suite, 1, scaled(al, "compose_mixed", anti_scaled)),
    "polar.supports": (vf.polar_suite, 1, scaled(la, "_support_of")),
    "polar.conjugate_reduction": (vf.polar_suite, 1, scaled(al, "compose_aa")),
    "cloning.commutator": (vf.cloning_suite, 1, replaced(bp, "reduced", a_side_shifted)),
    "twisted.action": (vf.twisted_suite, 1, scaled(md, "twisted_product", twisted_scaled)),
    "twisted.adjoint": (vf.twisted_suite, 1, scaled(md, "twisted_adjoint", twisted_scaled)),
    "twisted.compose": (vf.twisted_suite, 1, scaled(md, "twisted_compose", kronecker_scaled)),
    "twisted.adjoint_exchange": (vf.twisted_suite, 1, replaced(md, "_phases", phase_untransposed)),
    "twisted.reductions": (vf.twisted_suite, 1, scaled(bp, "reduced")),
    "twisted.polar": (vf.twisted_suite, 1, scaled(la, "kron")),
}


SUITE_RUNS = sorted({(suite.__name__, seed) for suite, seed, _ in SUITE_MUTANTS.values()})


@pytest.mark.parametrize("suite, seed", SUITE_RUNS, ids=[f"{name}-{seed}" for name, seed in SUITE_RUNS])
def test_suite_identities_unmutated_within_tolerance(suite, seed):
    suite = getattr(vf, suite)
    got = suite_residuals(suite, seed)
    names = [name for name, (of, at, _) in SUITE_MUTANTS.items() if (of, at) == (suite, seed)]
    assert set(names) <= set(got)
    for name in names:
        assert got[name] <= vf.TOLERANCES[name], name


@pytest.mark.parametrize("name", SUITE_MUTANTS)
def test_suite_mutant_is_caught(monkeypatch, name):
    suite, seed, mutate = SUITE_MUTANTS[name]
    mutate(monkeypatch, ())
    assert suite_residuals(suite, seed)[name] >= 10 * vf.TOLERANCES[name]


FACTOR_ROUTES = {f"modular.{route}" for route in ("defining", "delta", "reconstruction", "phase_match", "intertwine")}


def test_every_identity_has_a_mutant():
    """The table and test_modular's TestFactorRoutes cover every name in TOLERANCES, each once."""
    assert not set(MUTANTS) & set(SUITE_MUTANTS) and not (set(MUTANTS) | set(SUITE_MUTANTS)) & FACTOR_ROUTES
    assert set(MUTANTS) | set(SUITE_MUTANTS) | FACTOR_ROUTES == set(vf.TOLERANCES)
