"""Error-path coverage: every named failure mode raises its declared exception."""

import dataclasses
import re

import numpy as np
import pytest

from eprkit import errors
from eprkit.antilinear import AntilinearMap, apply, chain, compose_mixed
from eprkit.bipartite import (
    BipartiteVector,
    cross_gram,
    inner_via_trace,
    local_transform,
    partner_operator,
    polar_of_state,
    project_rank1,
    purification_from_isometry,
    reconstruct,
    reduced,
    epr_maps,
)
from eprkit.linalg import partial_trace, psd_sqrt, svd
from eprkit.modular import KroneckerProduct, TwistedOperator, twisted_compose, twisted_product
from eprkit.teleport import (
    LudersChannel,
    TeleportMap,
    chain_oracle,
    chain_teleport,
    luders_apply,
    luders_channel,
    luders_project,
    projection_decomposition,
    teleport_map,
    teleport_oracle,
)

from util import basis_state, bell, random_unit_state, seeded_rng


def test_partial_trace_bad_keep():
    with pytest.raises(errors.DimMismatch):
        partial_trace(np.eye(4), 2, 2, "c")


def test_svd_rank_threshold_is_relative():
    assert svd(np.diag([1.0, 1e-13])).rank == 1
    assert svd(np.diag([1e-13, 1e-25])).rank == 1


def test_psd_sqrt_rejects_non_square():
    with pytest.raises(errors.DimMismatch):
        psd_sqrt(np.ones((2, 3)))


def test_compose_mixed_bad_order():
    with pytest.raises(errors.DimMismatch):
        compose_mixed(np.eye(2), AntilinearMap(np.eye(2)), "sideways")


def test_compose_mixed_dim_breaks():
    t = AntilinearMap(np.ones((2, 3)))
    with pytest.raises(errors.DimMismatch):
        compose_mixed(np.eye(3), t, "left")
    with pytest.raises(errors.DimMismatch):
        compose_mixed(np.eye(2), t, "right")


def test_chain_empty():
    with pytest.raises(errors.DimMismatch):
        chain([])


def test_antilinear_map_needs_matrix():
    with pytest.raises(errors.DimMismatch):
        AntilinearMap(np.ones(3))


def test_reduced_bad_side():
    with pytest.raises(errors.DimMismatch):
        reduced(bell(2), "c")


def test_project_rank1_wrong_length():
    with pytest.raises(errors.DimMismatch):
        project_rank1(bell(2), [1.0, 0.0, 0.0])


def test_inner_via_trace_dim_mismatch():
    with pytest.raises(errors.DimMismatch):
        inner_via_trace(bell(2), bell(3))


def test_reconstruct_wrong_operator_size():
    with pytest.raises(errors.DimMismatch):
        reconstruct(epr_maps(bell(2)).s_ba, np.eye(3))


def test_local_transform_wrong_sizes():
    with pytest.raises(errors.DimMismatch):
        local_transform(bell(2), np.eye(3), np.eye(2))
    with pytest.raises(errors.DimMismatch):
        local_transform(bell(2), np.eye(2), np.eye(3))


def test_partner_operator_wrong_size():
    with pytest.raises(errors.DimMismatch):
        partner_operator(np.eye(3), polar_of_state(bell(2)))


def test_purification_wrong_size():
    with pytest.raises(errors.DimMismatch):
        purification_from_isometry(np.eye(3) / 3, AntilinearMap(np.eye(2)))


def test_purification_rejects_non_psd():
    with pytest.raises(errors.NotPositive):
        purification_from_isometry(np.diag([1.0, -1.0]), AntilinearMap(np.eye(2)))


def test_cross_gram_dim_mismatch():
    with pytest.raises(errors.DimMismatch):
        cross_gram(bell(2), bell(3))


def test_teleport_oracle_wrong_input_length():
    with pytest.raises(errors.DimMismatch):
        teleport_oracle(bell(2), bell(2), [1.0, 0.0, 0.0])


def test_luders_channel_empty():
    with pytest.raises(errors.DimMismatch, match=r"^need at least one measured vector$"):
        luders_channel([], bell(2))
    # A projection of rank 0 decomposes into an empty stack.
    with pytest.raises(errors.DimMismatch, match=r"^need at least one measured vector$"):
        luders_channel(projection_decomposition(np.zeros((4, 4)), 2, 2), bell(2))


def test_luders_channel_mixed_spaces():
    with pytest.raises(errors.DimMismatch, match=r"^psis\[1\] lives on \(3, 3\), psis\[0\] on \(2, 2\)$"):
        luders_channel([bell(2), bell(3)], bell(2))
    psis = [bell(2), basis_state(0, 1, 2, 2), basis_state(0, 0, 2, 3)]
    with pytest.raises(errors.DimMismatch, match=r"^psis\[2\] lives on \(2, 3\), psis\[0\] on \(2, 2\)$"):
        luders_channel(psis, bell(2))


def test_luders_channel_stack_without_rank_axis():
    with pytest.raises(errors.DimMismatch, match=r"needs a rank axis -3, got shape \(2, 2\)$"):
        luders_channel(bell(2), bell(2))


def test_luders_channel_ancilla_mismatch():
    with pytest.raises(errors.DimMismatch):
        luders_channel([bell(2)], bell(3))


BIG = BipartiteVector(np.full((2, 2), 1e200))  # the norm 2e200 is a float, its square is not

# Each channel's builder and its public constructor on operands the builder refuses: (id, builder, constructor,
# the exception class and the exact message both raise).
REFUSED_CHANNELS = [
    ("teleport-b-dims", lambda: teleport_map(bell(2), bell(3)), lambda: TeleportMap(bell(2), bell(3)),
     errors.DimMismatch, "shared b-dimension differs: psi_ab has 2, phi_bc has 3"),
    ("teleport-psi-norm", lambda: teleport_map(BIG, bell(2)), lambda: TeleportMap(BIG, bell(2)),
     errors.NonFinite, "squared norm of psi_ab is not finite"),
    ("teleport-phi-norm", lambda: teleport_map(bell(2), BIG), lambda: TeleportMap(bell(2), BIG),
     errors.NonFinite, "squared norm of phi_bc is not finite"),
    ("luders-b-dims", lambda: luders_channel([bell(2)], bell(3)), lambda: LudersChannel(_stack(bell(2)), bell(3)),
     errors.DimMismatch, "shared b-dimension differs: psis have 2, phi_bc has 3"),
    ("luders-psis-norm", lambda: luders_channel([BIG], bell(2)), lambda: LudersChannel(_stack(BIG), bell(2)),
     errors.NonFinite, "squared norm of psis[0] is not finite"),
    ("luders-phi-norm", lambda: luders_channel([bell(2)], BIG), lambda: LudersChannel(_stack(bell(2)), BIG),
     errors.NonFinite, "squared norm of phi_bc is not finite"),
    ("luders-2d-psis", lambda: luders_channel(bell(2), bell(2)), lambda: LudersChannel(bell(2), bell(2)),
     errors.DimMismatch, "a stack of measured vectors needs a rank axis -3, got shape (2, 2)"),
    ("luders-empty-psis", lambda: luders_channel([], bell(2)),
     lambda: LudersChannel(BipartiteVector(np.empty((0, 2, 2))), bell(2)),
     errors.DimMismatch, "need at least one measured vector"),
    ("luders-not-orthonormal", lambda: luders_channel([bell(2)] * 2, bell(2)),
     lambda: LudersChannel(_stack(bell(2), bell(2)), bell(2)),
     errors.NotOrthonormal, "psis are not orthonormal within 1e-10"),
]


def _stack(*psis):
    """The measured vectors as one BipartiteVector, stacked on the rank axis -3."""
    return BipartiteVector(np.stack([p.coeff for p in psis], axis=-3))


@pytest.mark.parametrize("builder, constructor, exc, message", [c[1:] for c in REFUSED_CHANNELS],
                         ids=[c[0] for c in REFUSED_CHANNELS])
def test_channel_constructors_refuse_what_their_builders_refuse(builder, constructor, exc, message):
    for build in (builder, constructor):
        with pytest.raises(exc, match=f"^{re.escape(message)}$"):
            build()


def test_channels_hold_only_their_states():
    assert [f.name for f in dataclasses.fields(TeleportMap)] == ["source_psi", "ancilla_phi"]
    assert [f.name for f in dataclasses.fields(LudersChannel)] == ["psis", "ancilla_phi"]
    # The former (matrix, states) form, which took a t or maps that no state fixes, is gone.
    for build in (lambda: TeleportMap(np.eye(3), bell(2), bell(2)), lambda: LudersChannel(np.eye(2), bell(2), bell(2))):
        with pytest.raises(TypeError):
            build()


def test_luders_apply_wrong_size():
    ch = luders_channel([bell(2)], bell(2))
    with pytest.raises(errors.DimMismatch):
        luders_apply(ch, np.eye(3))


def test_projection_decomposition_wrong_shape():
    with pytest.raises(errors.DimMismatch):
        projection_decomposition(np.eye(3), 2, 2)


@pytest.mark.parametrize(
    "p, worst",
    [(0.7 * np.eye(4), 0.7), (np.diag([1.0, 1.0, 0.4, 0.0]), 0.4), (np.diag([1.0, -1e-9, 0.5, 1.0]), 0.5)],
    ids=["scaled-identity", "one-off-eigenvalue", "worst-named"],
)
def test_projection_decomposition_refuses_a_non_projection(p, worst):
    with pytest.raises(errors.NotProjection) as info:
        projection_decomposition(p, 2, 2)
    assert str(info.value) == f"P has eigenvalue {worst!r}, farther than 1e-10 from 0 and 1"


def test_projection_decomposition_takes_roundoff_and_refuses_after_the_shape_and_hermiticity():
    assert projection_decomposition(np.diag([1.0, 1 + 1e-12, 1e-12, 0.0]), 2, 2).coeff.shape == (2, 2, 2)
    with pytest.raises(errors.DimMismatch):
        projection_decomposition(0.7 * np.eye(3), 2, 2)
    lower = np.tril(np.full((4, 4), 0.7))
    with pytest.raises(errors.NotHermitian):
        projection_decomposition(lower, 2, 2)


def test_chain_teleport_broken_dims():
    rng = seeded_rng(200)
    stages = [bell(2), random_unit_state(rng, 3, 2), bell(2), bell(2)]
    with pytest.raises(errors.DimMismatch, match=r"^stages\[1\] has first dimension 3, stages\[0\] second 2$"):
        chain_teleport(stages)
    with pytest.raises(errors.DimMismatch, match=r"^stages\[1\] has first dimension 3, stages\[0\] second 2$"):
        chain_oracle([1.0, 0.0], stages)


def test_chain_oracle_input_that_does_not_fit_names_phi_a():
    with pytest.raises(errors.DimMismatch, match=r"^stages\[0\] has first dimension 2, phi_a has length 3$"):
        chain_oracle([1.0, 0.0, 0.0], [bell(2), bell(2)])


@pytest.mark.parametrize("stages", [[], [bell(2)] * 3])
def test_chain_functions_share_the_count_check(stages):
    for build in (chain_teleport, lambda s: chain_oracle([1.0, 0.0], s)):
        with pytest.raises(errors.OddParity if stages else errors.DimMismatch, match="stages"):
            build(stages)


def test_squared_norm_that_overflows_is_refused_naming_the_operand():
    big = BipartiteVector(np.full((2, 2), 1e200))  # the norm 2e200 is a float, its square is not
    cases = [
        (lambda: teleport_map(big, bell(2)), "psi_ab"),
        (lambda: teleport_map(bell(2), big), "phi_bc"),
        (lambda: luders_channel([bell(2)], big), "phi_bc"),
        (lambda: luders_channel([big], bell(2)), r"psis\[0\]"),
        (lambda: chain_teleport([bell(2), big]), r"stages\[1\]"),
    ]
    for build, name in cases:
        with pytest.raises(errors.NonFinite, match=rf"^squared norm of {name} is not finite$"):
            build()


def test_mismatched_pairs_name_both_operands():
    with pytest.raises(errors.DimMismatch, match=r"^shared b-dimension differs: psi_ab has 2, phi_bc has 3$"):
        teleport_map(bell(2), bell(3))
    with pytest.raises(errors.DimMismatch, match=r"^shared b-dimension differs: psis have 2, phi_bc has 3$"):
        luders_channel([bell(2)], bell(3))
    with pytest.raises(errors.DimMismatch, match=r"^bipartite dimensions differ: phi \(2, 2\), psi \(3, 3\)$"):
        cross_gram(bell(2), bell(3))


def test_chain_oracle_wrong_counts():
    with pytest.raises(errors.OddParity):
        chain_oracle([1.0, 0.0], [bell(2), bell(2), bell(2)])


def test_chain_oracle_nonunit_measured():
    unnorm = basis_state(0, 0, 2, 2)
    doubled = type(unnorm)(2.0 * unnorm.coeff)
    with pytest.raises(errors.NotUnit):
        chain_oracle([1.0, 0.0], [doubled, bell(2), bell(2), bell(2)])


def test_twisted_compose_mixed_parity():
    anti = twisted_product(AntilinearMap(np.eye(2)), AntilinearMap(np.eye(2)))
    lin = twisted_product(np.eye(2), np.eye(2))
    with pytest.raises(errors.MixedParity):
        twisted_compose(anti, lin)


def test_twisted_compose_dim_mismatch():
    p2 = twisted_product(np.eye(2), np.eye(2))
    p3 = twisted_product(np.eye(3), np.eye(3))
    with pytest.raises(errors.DimMismatch):
        twisted_compose(p2, p3)


def test_lift_operators_dim_mismatch():
    from eprkit.modular import lift_operators

    with pytest.raises(errors.DimMismatch):
        lift_operators(bell(2), bell(3))


def test_twisted_operator_call_wrong_length():
    p = twisted_product(np.eye(2), np.eye(2))
    with pytest.raises(errors.DimMismatch):
        p(np.ones(3))


def test_twisted_as_antilinear_guard():
    lin = twisted_product(np.eye(2), np.eye(2))
    with pytest.raises(errors.MixedParity):
        lin.as_antilinear()


def test_exception_hierarchy():
    assert issubclass(errors.DimMismatch, errors.EprkitError)
    assert issubclass(errors.DimMismatch, ValueError)
    assert issubclass(errors.ToleranceExceeded, ArithmeticError)
    assert issubclass(errors.ParseError, errors.EprkitError)



def _channel():
    return luders_channel([bell(2)], bell(2))


VECTOR = r"^{name} must have length 2, got shape \(3,\)$"
SQUARE = r"^{name} must be 2 square, got \(3, 3\)$"
STAGES = r"^stages\[0\] has first dimension 2, {name} has length 3$"  # chain_oracle's check names both sides

# Every entry point that takes a vector or a square operator: (id, operand name, a valid operand, the call, the refusal
# of one a size too large).
OPERANDS = [
    ("apply", "v", np.ones(2), lambda x: apply(AntilinearMap(np.eye(2)), x), VECTOR),
    ("TwistedOperator.__call__", "v", np.ones(4), lambda x: twisted_product(np.eye(2), np.eye(2))(x),
     r"^v must have length 4, got shape \(5,\)$"),
    ("project_rank1", "phi_a", np.array([1.0, 0.0]), lambda x: project_rank1(bell(2), x), VECTOR),
    ("luders_project", "phi_a", np.array([1.0, 0.0]), lambda x: luders_project(_channel(), x), VECTOR),
    ("chain_oracle", "phi_a", np.array([1.0, 0.0]), lambda x: chain_oracle(x, [bell(2), bell(2)]), STAGES),
    ("teleport_oracle", "phi_a", np.array([1.0, 0.0]), lambda x: teleport_oracle(bell(2), bell(2), x), STAGES),
    ("reconstruct", "A", np.eye(2), lambda x: reconstruct(epr_maps(bell(2)).s_ba, x), SQUARE),
    ("local_transform.A", "A", np.eye(2), lambda x: local_transform(bell(2), x, np.eye(2)), SQUARE),
    ("local_transform.B", "B", np.eye(2), lambda x: local_transform(bell(2), np.eye(2), x), SQUARE),
    ("partner_operator", "A", np.eye(2), lambda x: partner_operator(x, polar_of_state(bell(2))), SQUARE),
    ("purification_from_isometry", "omega_a", np.eye(2) / 2,
     lambda x: purification_from_isometry(x, AntilinearMap(np.eye(2))), SQUARE),
    ("luders_apply", "nu", np.eye(2) / 2, lambda x: luders_apply(_channel(), x), SQUARE),
]


@pytest.mark.parametrize("name, good, call, too_large", [c[1:] for c in OPERANDS], ids=[c[0] for c in OPERANDS])
def test_every_operand_is_refused_naming_it_and_its_member(name, good, call, too_large):
    """A valid operand passes; one a size too large raises DimMismatch naming it; a NaN in member (1, 2) of a
    stack raises NonFinite naming it and that member."""
    call(good)
    with pytest.raises(errors.DimMismatch, match=too_large.format(name=name)):
        call(np.pad(good, [(0, 1)] * good.ndim))
    stack = np.broadcast_to(good, (2, 3, *good.shape)).copy()
    stack[(1, 2) + (0,) * good.ndim] = np.nan
    with pytest.raises(errors.NonFinite, match=rf"^{name}\[1, 2\] contains NaN or Inf entries$"):
        call(stack)



# Every public value type's array fields: (id, the name a refusal gives the field, a valid array, the constructor on it).
FIELDS = [
    ("BipartiteVector.coeff", "coeff", bell(2).coeff, BipartiteVector),
    ("AntilinearMap.mat", "mat", np.eye(2), AntilinearMap),
    ("TwistedOperator.eta", "eta", np.eye(2), lambda x: TwistedOperator((x, np.eye(2)), "linear")),
    ("TwistedOperator.xi", "xi", np.eye(2), lambda x: TwistedOperator((np.eye(2), x), "linear")),
    ("KroneckerProduct.a", "a", np.eye(2), lambda x: KroneckerProduct((x, np.eye(3)))),
    ("KroneckerProduct.b", "b", np.eye(3), lambda x: KroneckerProduct((np.eye(2), x))),
]


@pytest.mark.parametrize("name, good, build", [f[1:] for f in FIELDS], ids=[f[0] for f in FIELDS])
def test_every_value_type_refuses_a_non_finite_or_flat_array_naming_the_field(name, good, build):
    build(good)
    bad = good.astype(complex)
    bad[(0,) * bad.ndim] = np.nan
    label = name + ("[0]" if bad.ndim == 3 else "")  # maps' rank axis is a stack axis
    with pytest.raises(errors.NonFinite, match=f"^{re.escape(label)} contains NaN or Inf entries$"):
        build(bad)
    with pytest.raises(errors.DimMismatch, match=rf"^{name} must be at least two-dimensional, got shape \(2,\)$"):
        build(np.ones(2))
