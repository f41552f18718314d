"""Antilinear maps of bipartite states, teleportation channels, and modular operators."""

from .antilinear import AntilinearMap, PolarParts, adjoint, apply, chain, compose_aa, compose_mixed, polar, trace_product
from .bipartite import (
    BipartiteVector,
    cloning_check,
    cross_gram,
    gns_check,
    inner_via_trace,
    local_transform,
    partner_operator,
    polar_of_state,
    project_rank1,
    purification_from_isometry,
    reconstruct,
    reduced,
)
from .linalg import MatrixNorms, SvdResult, fidelity, norms, partial_trace, psd_sqrt, svd
from .modular import (
    KroneckerProduct,
    LiftedOperators,
    ModularTriple,
    TwistedOperator,
    lift_operators,
    tomita_S,
    twisted_adjoint,
    twisted_compose,
    twisted_product,
)
from .sampling import random_state
from .teleport import (
    LudersBounds,
    LudersChannel,
    TeleportMap,
    chain_oracle,
    chain_teleport,
    luders_apply,
    luders_bounds,
    luders_channel,
    projection_decomposition,
    success_bound,
    teleport_map,
    teleport_oracle,
    trace_norm_fidelity,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
