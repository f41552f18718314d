"""Tests for the JSON serialization formats."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from eprkit import errors
from eprkit.antilinear import AntilinearMap
from eprkit.formats import (
    antilinear_to_json,
    bipartite_from_json,
    bipartite_to_json,
    kronecker_from_json,
    kronecker_to_json,
    load_json,
    matrix_from_json,
    matrix_to_json,
    twisted_from_json,
    twisted_to_json,
)
from eprkit.modular import KroneckerProduct, tomita_S, twisted_product
from eprkit.sampling import state_from_rng

from util import bell, complex_normal, seeded_rng


def test_matrix_roundtrip():
    rng = seeded_rng(100)
    m = complex_normal(rng, 3, 2)
    obj = matrix_to_json(m)
    assert set(obj) == {"rows", "cols", "data"}
    assert obj["rows"] == 3 and obj["cols"] == 2
    assert len(obj["data"]) == 6
    assert_allclose(matrix_from_json(obj), m)


def test_matrix_row_major_layout():
    obj = matrix_to_json(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert obj["data"] == [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]]


@pytest.mark.parametrize(
    "broken",
    [
        {"rows": 2, "cols": 2},                                        # missing data
        {"rows": 2, "cols": 2, "data": [[1.0, 0.0]]},                  # wrong length
        {"rows": 0, "cols": 2, "data": []},                            # bad dims
        {"rows": 2, "cols": 2, "data": [[1.0], [0.0], [0.0], [0.0]]},  # not pairs
        {"rows": 2.0, "cols": 2, "data": [[1.0, 0.0]] * 4},            # non-int dims
        [1, 2, 3],                                                     # not an object
        {"rows": True, "cols": 2, "data": [[1.0, 0.0]] * 2},           # bool dims
        {"rows": 1, "cols": 2, "data": [[1.0, 0.0], [True, 0.0]]},     # bool entry
        {"rows": 1, "cols": 2, "data": [[1.0, 0.0], ["1", 0.0]]},      # string entry
        {"rows": 1, "cols": 2, "data": [[1.0, 0.0], [None, 0.0]]},     # null entry
    ],
)
def test_matrix_malformed(broken):
    # bools, strings and null all convert to float64, so the entry types must be checked
    with pytest.raises(errors.ParseError):
        matrix_from_json(broken)


def test_matrix_to_json_needs_two_dimensions():
    with pytest.raises(errors.ParseError):
        matrix_to_json(np.ones(3))


def test_matrix_nonfinite():
    with pytest.raises(errors.NonFinite):
        matrix_from_json({"rows": 1, "cols": 1, "data": [[float("inf"), 0.0]]})


def test_matrix_integer_beyond_float64_is_nonfinite():
    # 10**400 is a JSON number, but its float64 conversion overflows
    with pytest.raises(errors.NonFinite, match=r"data\[1\]"):
        matrix_from_json({"rows": 1, "cols": 2, "data": [[1.0, 0.0], [0.0, 10**400]]})


@pytest.mark.parametrize(
    "data, error, k",
    [
        ([[1.0, 0.0], [float("nan"), 0.0], ["x", 0.0]], errors.NonFinite, 1),
        ([[1.0, 0.0], ["x", 0.0], [float("nan"), 0.0]], errors.ParseError, 1),
        ([[1.0, 0.0], [2, 0], [1.0, 2.0, 3.0]], errors.ParseError, 2),
        ([[1.0, 0.0], [0.0, 1.0], 5], errors.ParseError, 2),
        ([[1, 0], [0.0, False], [10**400, 0]], errors.ParseError, 1),
        ([[1, 0], [2**1024, 0.0], [True, 0]], errors.NonFinite, 1),
    ],
)
def test_matrix_names_the_first_bad_entry(data, error, k):
    with pytest.raises(error, match=rf"^m: data\[{k}\] is not"):
        matrix_from_json({"rows": 1, "cols": 3, "data": data}, "m")


def test_matrix_from_integers_tuples_and_large_numbers():
    data = [(1, -2), [2**60 + 1, 0.5], [10**300, -(2**64)]]
    got = matrix_from_json({"rows": 3, "cols": 1, "data": data})
    assert got.dtype == np.complex128 and got.shape == (3, 1)
    assert got[:, 0].tolist() == [complex(re, im) for re, im in data]


def test_matrix_keeps_negative_zeros_bit_for_bit():
    m = np.array([[complex(-0.0, -0.0), complex(-0.0, 1e-300)], [complex(5e-324, -0.0), complex(1.5, -2.0)]])
    got = matrix_from_json(matrix_to_json(m))
    assert got.dtype == np.complex128 and got.shape == (2, 2)
    assert np.array_equal(got.view(np.float64), m.view(np.float64))
    assert np.signbit(got.view(np.float64)).tolist() == np.signbit(m.view(np.float64)).tolist()


_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(2**70), 2**70)
_NUMBERS = _FINITE | st.sampled_from(
    [-0.0, float("nan"), float("inf"), -float("inf"), 10**400, -(2**1024), 2**1024 - 2**970, 2**1024 - 2**971]
)
_NON_NUMBERS = st.booleans() | st.text(max_size=2) | st.none()
_ODD_ENTRY = st.tuples(_NUMBERS, _NUMBERS) | st.lists(_NUMBERS, max_size=3) | _NUMBERS | _NON_NUMBERS


def _pair_lists(entry):
    return st.lists(entry, min_size=1, max_size=6)


def _pairs(number):
    return st.lists(number, min_size=2, max_size=2)


def _outcome(convert):
    try:
        return convert().tobytes()
    except errors.EprkitError as exc:
        return type(exc), str(exc)


def _entry_loop(data: list, what: str) -> np.ndarray:
    """The entry-by-entry converter that matrix_from_json replaced, kept as its reference: pairs or refusal."""
    pairs = []
    try:
        for k, entry in enumerate(data):
            if not isinstance(entry, (list, tuple)) or len(entry) != 2 or not set(map(type, entry)) <= {int, float}:
                raise errors.ParseError(f"{what}: data[{k}] is not a [re, im] pair of numbers")
            if not (math.isfinite(entry[0]) and math.isfinite(entry[1])):
                raise errors.NonFinite(f"{what}: data[{k}] is not finite")
            pairs += entry
    except OverflowError:  # data[k] holds an integer beyond the float64 range
        raise errors.NonFinite(f"{what}: data[{k}] is not finite") from None
    return np.array(pairs, dtype=np.float64).view(np.complex128).reshape(1, len(data))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    _pair_lists(_pairs(_FINITE))
    | _pair_lists(_pairs(_NUMBERS))
    | _pair_lists(_pairs(_NUMBERS | _NON_NUMBERS))
    | _pair_lists(_pairs(_NUMBERS) | _ODD_ENTRY)
)
@example([[2**1024 - 2**971, -0.0], [3, 2**70]])  # the largest finite integer; -0.0 and big ints convert as floats
@example([[1.0, 2.0], (3.0, 4.0)])  # a tuple entry is accepted by the entry loop
@example([(1.0, 2.0), (3, float("nan"))])  # tuples reach the refusal too
def test_matrix_one_pass_agrees_with_the_entry_loop(data):
    # Accepted data gives the loop's bits; refused data the loop's error type and message.
    fast = _outcome(lambda: matrix_from_json({"rows": 1, "cols": len(data), "data": data}, "m"))
    assert fast == _outcome(lambda: _entry_loop(data, "m"))


_CODEC_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.5e-310, 2.2250738585072014e-308, 1.7e308, -1.7e308, 1.7976931348623157e308]
)


@st.composite
def _laid_out_matrices(draw):
    """A complex matrix (or its real part) as C-ordered, Fortran-ordered, transposed or strided array."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    values = draw(st.lists(_CODEC_FLOATS, min_size=8 * rows * cols, max_size=8 * rows * cols))
    big = np.array(values).view(np.complex128).reshape(2 * rows, 2 * cols)
    layout = draw(st.sampled_from(["C", "F", "transposed", "strided", "reversed", "real"]))
    return {
        "C": lambda: np.ascontiguousarray(big[:rows, :cols]),
        "F": lambda: np.asfortranarray(big[:rows, :cols]),
        "transposed": lambda: big[:cols, :rows].T,
        "strided": lambda: big[::2, 1::2],
        "reversed": lambda: big[::-2, ::-2],
        "real": lambda: big.real[:rows, ::2],
    }[layout]()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_laid_out_matrices())
def test_matrix_codec_text_and_bits(m):
    a = np.asarray(m, dtype=np.complex128)
    stacked = {"rows": a.shape[0], "cols": a.shape[1], "data": np.stack([a.real, a.imag], -1).reshape(-1, 2).tolist()}
    text = json.dumps(matrix_to_json(m))
    assert text == json.dumps(stacked)  # the same text as the np.stack encoder it replaced
    obj = json.loads(text)
    bits = np.ascontiguousarray(a).tobytes()
    assert matrix_from_json(obj).tobytes() == bits  # -0.0, subnormals and the float64 extremes survive
    obj["data"] = [tuple(pair) if k % 2 else pair for k, pair in enumerate(obj["data"])]
    assert matrix_from_json(obj).tobytes() == bits  # tuple pairs convert in the same pass


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**309), 2**1024])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=3)
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)
_DIMS = st.integers(min_value=1, max_value=3) | st.booleans() | _JSON
_ENTRY = st.lists(st.floats(-1e3, 1e3) | _SCALARS, min_size=2, max_size=2) | _JSON


@st.composite
def _coeff_fields(draw):
    rows, cols = draw(_DIMS), draw(_DIMS)
    size = rows * cols if type(rows) is int and type(cols) is int and 0 < rows * cols <= 9 else 2
    return rows, cols, draw(st.lists(_ENTRY, min_size=size, max_size=size) | _JSON)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_coeff_fields())
@example((True, 2, [[1.0, 0.0], [0.0, 0.0]]))  # crashed with TypeError
@example((1, 1, [[10**400, 0.0]]))  # crashed with OverflowError
def test_bipartite_from_json_gives_finite_matrix_or_eprkit_error(fields):
    rows, cols, data = fields
    obj = {"dim_a": rows, "dim_b": cols, "coeff": {"rows": rows, "cols": cols, "data": data}}
    try:
        psi = bipartite_from_json(obj)
    except errors.EprkitError:
        return
    assert psi.coeff.dtype == np.complex128
    assert psi.coeff.shape == (rows, cols)
    assert np.isfinite(psi.coeff).all()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_coeff_fields(), st.sampled_from(["linear", "antilinear"]) | _JSON)
@example((True, 2, [[1.0, 0.0], [0.0, 0.0]]), "linear")  # a bool dimension
@example((2, 1, [[1.0, 0.0], [0.0, 0.0]]), "antilinear")  # valid twisted product, non-square Kronecker factor
def test_factored_operators_from_json_give_finite_factors_or_eprkit_error(fields, parity):
    rows, cols, data = fields
    mat = {"rows": rows, "cols": cols, "data": data}
    transposed = {"rows": cols, "cols": rows, "data": data}
    cases = [
        (twisted_from_json, {"parity": parity, "dim_a": rows, "dim_b": cols, "eta": mat, "xi": transposed}),
        (kronecker_from_json, {"dim_a": rows, "dim_b": cols, "a": mat, "b": transposed}),
    ]
    for reader, obj in cases:
        try:
            op = reader(obj)
        except errors.EprkitError:
            continue
        assert op.dim_a == rows and op.dim_b == cols
        for f in op.factors:
            assert f.dtype == np.complex128 and np.isfinite(f).all()
        if reader is twisted_from_json:
            assert op.parity == parity
            assert [f.shape for f in op.factors] == [(rows, cols), (cols, rows)]
        else:
            assert [f.shape for f in op.factors] == [(rows, rows), (cols, cols)]


def test_antilinear_roundtrip():
    rng = seeded_rng(101)
    t = AntilinearMap(complex_normal(rng, 2, 3))
    obj = antilinear_to_json(t)
    assert obj["parity"] == "antilinear"
    assert obj["dim_domain"] == 3 and obj["dim_codomain"] == 2
    assert_allclose(matrix_from_json(obj["mat"]), t.mat)


def test_bipartite_roundtrip():
    obj = bipartite_to_json(bell(3))
    assert set(obj) == {"dim_a", "dim_b", "coeff"}
    assert_allclose(bipartite_from_json(obj).coeff, bell(3).coeff)


def test_bipartite_dimension_check():
    obj = bipartite_to_json(bell(2))
    obj["dim_a"] = 3
    with pytest.raises(errors.ParseError):
        bipartite_from_json(obj)


@pytest.mark.parametrize("dims", [(True, 2.0), (1.0, 2), (1, True)])
def test_declared_dimensions_must_be_integers(dims):
    # True == 1 and 2.0 == 2, so a comparison with the shape alone accepts them
    psi = {"dim_a": dims[0], "dim_b": dims[1], "coeff": matrix_to_json(np.ones((1, 2)))}
    with pytest.raises(errors.ParseError):
        bipartite_from_json(psi)


def test_load_json_errors(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(errors.ParseError):
        load_json(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(errors.ParseError):
        load_json(bad)
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    with pytest.raises(errors.ParseError):
        load_json(array)


@pytest.mark.parametrize(
    "content",
    [
        b"\xff\xfe" + '{"a": 1}'.encode("utf-16-le"),  # UTF-16 with its byte-order mark
        b"[" * 100_000 + b"]" * 100_000,  # nested beyond the decoder's recursion limit
    ],
    ids=["not-utf8", "deeply-nested"],
)
def test_load_json_names_the_file_it_cannot_decode(tmp_path, content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    with pytest.raises(errors.ParseError, match=re.escape(str(path))):
        load_json(path)


def test_load_json_names_an_unprintable_path_by_its_repr():
    with pytest.raises(errors.ParseError) as info:
        load_json("a\x00b")
    assert "\x00" not in str(info.value) and str(info.value).startswith("cannot read 'a\\x00b': ")


class TestFactoredOperators:
    @pytest.mark.parametrize("parity", ["linear", "antilinear"])
    def test_twisted_roundtrip(self, parity):
        rng = seeded_rng(102)
        eta, xi = complex_normal(rng, 2, 3), complex_normal(rng, 3, 2)
        if parity == "antilinear":
            eta, xi = AntilinearMap(eta), AntilinearMap(xi)
        op = twisted_product(eta, xi)
        obj = twisted_to_json(op)
        assert set(obj) == {"parity", "dim_a", "dim_b", "eta", "xi"}
        assert (obj["parity"], obj["dim_a"], obj["dim_b"]) == (parity, 2, 3)
        back = twisted_from_json(obj)
        assert back.parity == parity
        assert np.array_equal(back.mat, op.mat)

    def test_kronecker_roundtrip(self):
        rng = seeded_rng(103)
        op = KroneckerProduct((complex_normal(rng, 2, 2), complex_normal(rng, 3, 3)))
        obj = kronecker_to_json(op)
        assert set(obj) == {"dim_a", "dim_b", "a", "b"}
        assert np.array_equal(kronecker_from_json(obj).mat, op.mat)

    def test_modular_triple_densifies_bit_for_bit_through_json(self):
        rng = seeded_rng(104)
        phi, psi = state_from_rng(rng, 3, 3), state_from_rng(rng, 3, 3, entangled=True)
        triple = tomita_S(phi, psi)
        parsed = json.loads(json.dumps({
            "S": twisted_to_json(triple.s), "Delta": kronecker_to_json(triple.delta), "J": twisted_to_json(triple.j),
        }))
        assert np.array_equal(twisted_from_json(parsed["S"]).mat, triple.s.mat)
        assert np.array_equal(twisted_from_json(parsed["J"]).mat, triple.j.mat)
        assert np.array_equal(kronecker_from_json(parsed["Delta"]).mat, triple.delta.mat)

    @pytest.mark.parametrize("parity", ["Antilinear", "", None, 1])
    def test_twisted_parity_literal(self, parity):
        obj = twisted_to_json(twisted_product(np.eye(2), np.eye(2)))
        obj["parity"] = parity
        with pytest.raises(errors.ParseError, match="parity"):
            twisted_from_json(obj)

    @pytest.mark.parametrize("dims", [(2.0, 2), (2, True), ("2", 2), (2, 3)])
    def test_declared_dimensions_exact_and_matching(self, dims):
        twisted = twisted_to_json(twisted_product(np.eye(2), np.eye(2)))
        kron = kronecker_to_json(KroneckerProduct((np.eye(2), np.eye(2))))
        for reader, obj in ((twisted_from_json, twisted), (kronecker_from_json, kron)):
            obj["dim_a"], obj["dim_b"] = dims
            with pytest.raises(errors.ParseError):
                reader(obj)

    def test_factor_shapes_must_agree(self):
        eye2, eye3 = matrix_to_json(np.eye(2)), matrix_to_json(np.eye(3))
        bad_twisted = {"parity": "linear", "dim_a": 2, "dim_b": 2, "eta": eye2, "xi": eye3}
        with pytest.raises(errors.ParseError, match="xi shape"):
            twisted_from_json(bad_twisted)
        ones = matrix_to_json(np.ones((2, 3)))
        with pytest.raises(errors.ParseError, match="a shape"):
            kronecker_from_json({"dim_a": 2, "dim_b": 3, "a": ones, "b": eye3})

    def test_missing_field(self):
        obj = twisted_to_json(twisted_product(np.eye(2), np.eye(2)))
        del obj["xi"]
        with pytest.raises(errors.ParseError, match="missing"):
            twisted_from_json(obj)
