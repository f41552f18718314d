"""Each identity a CLI subcommand checks must catch a mutant: the first rows of verify's mutation table.

Each check routine runs on one seeded single instance with a recording rec.
Unmutated, every name it records is within tolerance.  Under that name's
mutant, a library function whose result is scaled by 1 + 1e-6 or a
perturbed operand, the name is at least ten times its tolerance.  The
Lüders identities only luders_suite checks run through the suite on seeded
trials, under mutants of luders_apply.  luders.rank1 has no row: it
compares teleport_map with itself.  The modular factor routes have their
perturbation tests in test_modular (TestFactorRoutes).
"""

import pytest

from eprkit import antilinear as al
from eprkit import bipartite as bp
from eprkit import linalg as la
from eprkit import teleport as tp
from eprkit import verify as vf
from eprkit.sampling import complex_normal, random_state, random_unit_vector, random_unitary, unit

from util import seeded_rng

SCALE = 1 + 1e-6


def epr_instance():
    psi, rng = random_state((3, 2), seed=301), seeded_rng(301)
    phi_a, phi_b, chi = random_unit_vector(rng, 3), random_unit_vector(rng, 2), unit(complex_normal(rng, 3, 2), 2)
    return vf.epr_checks, (psi, bp.reduced(psi, "a"), bp.reduced(psi, "b"), phi_a, phi_b, chi)


def teleport_instance():
    tm = tp.teleport_map(random_state((2, 3), seed=302), random_state((3, 2), seed=303))
    return vf.teleport_checks, (tm, random_unit_vector(seeded_rng(302), 2))


def luders_instance():
    u = random_unitary(seeded_rng(304), 6)
    psis = [bp.BipartiteVector.from_vector(u[:, k], 2, 3) for k in range(2)]
    ch = tp.luders_channel(psis, random_state((3, 2), seed=305))
    return vf.luders_checks, (ch, tp.luders_bounds(ch), random_unit_vector(seeded_rng(304), 2))


def chain_instance():
    stages = [random_state(dims, seed=306 + k) for k, dims in enumerate([(2, 3), (3, 2), (2, 2), (2, 3)])]
    return vf.chain_checks, (stages, tp.chain_teleport(stages), random_unit_vector(seeded_rng(306), 2))


def scaled(module, attr, wrap=lambda out: out * SCALE):
    """The mutant module.attr whose result goes through wrap, by default scaled by SCALE."""

    def mutate(monkeypatch, operands):
        plain = getattr(module, attr)
        monkeypatch.setattr(module, attr, lambda *args: wrap(plain(*args)))
        return operands

    return mutate


def perturbed(k, change):
    """The mutant whose operand k is change(operand)."""

    def mutate(monkeypatch, operands):
        return operands[:k] + (change(operands[k]),) + operands[k + 1 :]

    return mutate


MUTANTS = {
    "epr.projection": (epr_instance, scaled(bp, "project_rank1", lambda v: bp.BipartiteVector(v.coeff * SCALE))),
    "epr.pairing": (epr_instance, scaled(al, "apply")),
    "epr.inner_trace": (epr_instance, scaled(bp, "inner_via_trace")),
    "epr.reduction": (epr_instance, scaled(la, "partial_trace")),
    "teleport.factorization": (teleport_instance, scaled(tp, "teleport_oracle")),
    "teleport.trace_fidelity": (
        teleport_instance,
        perturbed(0, lambda tm: tp.TeleportMap(tm.t * SCALE, tm.source_psi, tm.ancilla_phi)),
    ),
    "luders.decoupling": (luders_instance, scaled(tp, "luders_project")),
    "luders.op_bound": (luders_instance, perturbed(1, lambda b: b._replace(op_bound=b.op_bound * SCALE))),
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


def luders_suite_residuals() -> dict:
    """luders_suite on seeded trials whose ranks include full ones: the residual of each identity."""
    table = vf.ResidualTable()
    vf.luders_suite(table, 7, [2, 3], range(16))
    return {r.name: r.residual for r in table.results()}


def first_term(ch, nu):
    """t_0 nu t_0†, the first map's term of the channel action."""
    t0 = ch.maps[..., 0, :, :]
    return t0 @ nu @ t0.conj().mT


# Each mutant adds a term to luders_apply's output: 1e-6 of the output itself (a scaled action), or 1e-6 of its
# first map's term, which makes the action depend on the decomposition.
SUITE_MUTANTS = {
    "luders.independence": lambda ch, nu, out: (SCALE - 1) * first_term(ch, nu),
    "luders.trace_bound": lambda ch, nu, out: (SCALE - 1) * out,
    "luders.completeness": lambda ch, nu, out: (SCALE - 1) * out,
}


def test_suite_identities_unmutated_within_tolerance():
    got = luders_suite_residuals()
    assert set(SUITE_MUTANTS) < set(got)
    for name in SUITE_MUTANTS:
        assert got[name] <= vf.TOLERANCES[name], name


@pytest.mark.parametrize("name", SUITE_MUTANTS)
def test_suite_mutant_is_caught(monkeypatch, name):
    plain = tp.luders_apply

    def mutant(ch, nu):
        out = plain(ch, nu)
        return out + SUITE_MUTANTS[name](ch, nu, out)

    monkeypatch.setattr(tp, "luders_apply", mutant)
    assert luders_suite_residuals()[name] >= 10 * vf.TOLERANCES[name]
