"""Tests for the JSON serialization formats."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eprkit import errors
from eprkit.antilinear import AntilinearMap
from eprkit.formats import (
    antilinear_from_json,
    antilinear_to_json,
    bipartite_from_json,
    bipartite_to_json,
    load_json,
    matrix_from_json,
    matrix_to_json,
)
from eprkit.sampling import complex_normal

from util import bell, seeded_rng


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
    ],
)
def test_matrix_malformed(broken):
    with pytest.raises(errors.ParseError):
        matrix_from_json(broken)


def test_matrix_nonfinite():
    with pytest.raises(errors.NonFinite):
        matrix_from_json({"rows": 1, "cols": 1, "data": [[float("inf"), 0.0]]})


def test_antilinear_roundtrip():
    rng = seeded_rng(101)
    t = AntilinearMap(complex_normal(rng, 2, 3))
    obj = antilinear_to_json(t)
    assert obj["parity"] == "antilinear"
    assert obj["dim_domain"] == 3 and obj["dim_codomain"] == 2
    assert_allclose(antilinear_from_json(obj).mat, t.mat)


def test_antilinear_wrong_parity():
    obj = antilinear_to_json(AntilinearMap(np.eye(2)))
    obj["parity"] = "linear"
    with pytest.raises(errors.ParseError):
        antilinear_from_json(obj)


def test_antilinear_dimension_check():
    obj = antilinear_to_json(AntilinearMap(np.eye(2)))
    obj["dim_domain"] = 3
    with pytest.raises(errors.ParseError):
        antilinear_from_json(obj)


def test_bipartite_roundtrip():
    obj = bipartite_to_json(bell(3))
    assert set(obj) == {"dim_a", "dim_b", "coeff"}
    assert_allclose(bipartite_from_json(obj).coeff, bell(3).coeff)


def test_bipartite_dimension_check():
    obj = bipartite_to_json(bell(2))
    obj["dim_a"] = 3
    with pytest.raises(errors.ParseError):
        bipartite_from_json(obj)


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

