"""The value-type rule: every value is equal only to itself, and a copy or an unpickled value is rebuilt.

The ten types that hold arrays (or values that hold them) are declared
through `linalg.value`.  Equality and hashing are by identity, so comparing,
hashing or looking up a value never compares arrays.  `copy.copy`,
`copy.deepcopy` and `pickle` rebuild a value through its constructor from its
fields: the copy passes the constructor's checks, holds read-only arrays and
has no cached part until it is read, and what it derives has the bits of the
original's.
"""

import copy
import dataclasses
import importlib
import pickle
import pkgutil
import struct

import numpy as np
import pytest

import eprkit
from eprkit import errors, linalg
from eprkit.antilinear import AntilinearMap, polar
from eprkit.bipartite import BipartiteVector
from eprkit.modular import KroneckerProduct, lift_operators, tomita_S, twisted_product
from eprkit.teleport import LudersChannel, TeleportMap
from eprkit.verify import IdentityResult

from util import random_unit_state, seeded_rng


def _states(stream: int, *shape: int) -> tuple[BipartiteVector, BipartiteVector]:
    rng = seeded_rng(stream)
    return random_unit_state(rng, *shape), random_unit_state(rng, *shape)


def _mat(stream: int, *shape: int) -> np.ndarray:
    rng = seeded_rng(stream)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _luders(stream: int) -> LudersChannel:
    """A stack of two rank-two channels: each member's psis are two orthonormal 2×2 states."""
    q, _ = np.linalg.qr(_mat(stream, 2, 4, 2))
    psis = BipartiteVector(q.mT.reshape(2, 2, 2, 2))
    return LudersChannel(psis, BipartiteVector(_mat(stream + 1, 2, 2, 3) / 3))


# Each value type: a builder taking a stream offset, and the parts it derives, read after a copy.
VALUES = {
    "SvdResult": (lambda k: linalg.svd(_mat(400 + k, 3, 2)), lambda r: [r.sigma, r.u, r.vh, r.v]),
    "AntilinearMap": (lambda k: AntilinearMap(_mat(410 + k, 3, 2)), lambda t: [polar(t).svd.sigma, polar(t).phase.mat]),
    "PolarParts": (lambda k: polar(AntilinearMap(_mat(420 + k, 3, 3))), lambda p: [p.positive, p.phase.mat]),
    "BipartiteVector": (
        lambda k: _states(430 + k, 2, 3)[0],
        lambda psi: [np.asarray(psi.norm()), psi.s_ba.mat, psi.s_ab.mat, polar(psi.s_ba).svd.sigma],
    ),
    "TwistedOperator": (lambda k: twisted_product(_mat(450 + k, 2, 3), _mat(451 + k, 3, 2)), lambda op: [op.mat]),
    "KroneckerProduct": (lambda k: KroneckerProduct((_mat(460 + k, 2, 2), _mat(461 + k, 3, 3))), lambda op: [op.mat]),
    "LiftedOperators": (lambda k: lift_operators(*_states(470 + k, 3, 3)), lambda lo: [lo.s_tilde.mat, lo.j.mat]),
    "ModularTriple": (lambda k: tomita_S(*_states(480 + k, 3, 3)), lambda m: [m.s.mat, m.j.mat, m.delta.mat]),
    "TeleportMap": (
        lambda k: TeleportMap(_states(490 + k, 2, 3)[0], _states(491 + k, 3, 2)[0]),
        lambda tm: [tm.t, *map(np.asarray, tm.norms), *map(np.asarray, tm.root_norms)],
    ),
    "LudersChannel": (_luders, lambda ch: [ch.maps, ch.psis.s_ba.mat]),
}
COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
}


def _held(v) -> tuple[list, list[np.ndarray]]:
    """Every value and every array that v holds through its fields, v included, depth first."""
    values, arrays = [v], []
    for f in dataclasses.fields(v):
        x = getattr(v, f.name)
        for item in x if isinstance(x, tuple) else (x,):
            if isinstance(item, np.ndarray):
                arrays.append(item)
            elif dataclasses.is_dataclass(item):
                more_values, more_arrays = _held(item)
                values += more_values
                arrays += more_arrays
    return values, arrays


def _bits(arrays) -> list[tuple]:
    return [(a.shape, a.dtype, np.ascontiguousarray(a).tobytes()) for a in arrays]


@pytest.mark.parametrize("build, _", VALUES.values(), ids=VALUES.keys())
def test_equality_and_hash_are_by_identity(build, _):
    v, other = build(0), build(0)
    assert v == v and not v != v
    assert (v == copy.copy(v)) is False and (v == other) is False
    assert hash(v) == hash(v) and hash(v) != hash(other)
    assert v in [other, v] and v not in [other] and len({v, other, v}) == 2


@pytest.mark.parametrize("make", COPIES.values(), ids=COPIES.keys())
@pytest.mark.parametrize("build, derived", VALUES.values(), ids=VALUES.keys())
def test_copies_are_rebuilt_through_the_constructor(build, derived, make):
    v = build(0)
    want = _bits(derived(v))  # every cached part of v filled before it is copied
    c = make(v)
    assert type(c) is type(v) and c is not v
    values, arrays = _held(c)
    assert set(vars(c)) == {f.name for f in dataclasses.fields(c)}
    if make is not copy.copy:  # a shallow copy shares v's nested values; the others rebuild them, and check them
        for value in values[1:]:  # a channel's constructor reads its states' norms, each on its own rebuilt state
            assert set(vars(value)) <= {f.name for f in dataclasses.fields(value)} | {"_norm"}
    assert arrays and not any(a.flags.writeable for a in arrays)
    held = _held(v)[1]
    assert _bits(arrays) == _bits(held)
    if make is not copy.copy:
        assert not any(np.shares_memory(a, b) for a in arrays for b in held)
    got = derived(c)
    assert _bits(got) == want
    assert not any(a.flags.writeable for a in got if a.ndim)


def test_a_copy_is_a_fresh_value_whose_arrays_cannot_be_written():
    psi = BipartiteVector(np.eye(2) / np.sqrt(2))
    assert psi.norm() == pytest.approx(1.0)
    for c in (copy.deepcopy(psi), pickle.loads(pickle.dumps(psi))):
        with pytest.raises(ValueError, match="read-only"):
            c.coeff[0, 0] = 5.0
        assert "_norm" not in vars(c) and c.norm() == pytest.approx(1.0)
    tm = copy.deepcopy(TeleportMap(psi, psi))
    assert not tm.t.flags.writeable


def test_an_unpickled_nan_is_refused():
    marker = 1234.5
    payload = pickle.dumps(BipartiteVector(np.array([[marker, 0.0], [0.0, 1.0]])))
    assert payload.count(struct.pack("<d", marker)) == 1
    edited = payload.replace(struct.pack("<d", marker), struct.pack("<d", np.nan))
    with pytest.raises(errors.NonFinite, match="coeff"):
        pickle.loads(edited)


def test_an_unpickled_channel_is_checked_again():
    """A payload whose measured vectors no longer are orthonormal is refused as the constructor refuses it."""
    ch = _luders(0)
    payload = pickle.dumps(ch)
    first = ch.psis.coeff[0, 0].tobytes()
    assert payload.count(first) == 1
    edited = payload.replace(first, (2 * ch.psis.coeff[0, 0]).tobytes())
    with pytest.raises(errors.NotOrthonormal, match=r"psis\[0\]"):
        pickle.loads(edited)


def _dataclasses():
    for info in pkgutil.iter_modules(eprkit.__path__):
        if info.name == "__main__":  # runs the CLI on import
            continue
        module = importlib.import_module(f"eprkit.{info.name}")
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls):
                yield cls


def test_every_value_type_is_declared_through_value():
    """Only IdentityResult, which holds floats, keeps dataclass's field-wise equality and the default pickling."""
    rule = linalg.value(type("Probe", (), {})).__reduce__
    declared = {cls.__name__ for cls in _dataclasses() if cls is not IdentityResult}
    assert declared == set(VALUES)
    for cls in _dataclasses():
        if cls is not IdentityResult:
            assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__, cls
            assert cls.__reduce__ is rule, cls
            assert cls.__dataclass_params__.frozen, cls
    assert IdentityResult.__reduce__ is object.__reduce__
    assert IdentityResult("a", 1.0, 2.0) == IdentityResult("a", 1.0, 2.0)
