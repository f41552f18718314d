"""Tests for the JSON serialization formats."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eprkit import errors
from eprkit.antilinear import AntilinearMap
from eprkit.formats import (
    ReportEncoder,
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


class TestReportEncoder:
    """ReportEncoder writes the bytes json.dumps(obj, indent=2) writes."""

    CASES = [
        {},
        [],
        {"a": [], "b": {}, "c": [[]], "d": [{}]},
        {"x": [1.5, -0.0, 1e-300, 1e300, float("nan"), float("inf"), -float("inf")]},
        {"pairs": [[0.1, -0.2], [float("nan"), 3.0]], "mixed": [[0.1, 2], [0.1, 0.2, 0.3], (0.5, 0.5)]},
        {"s": "é\n\"q\"", "t": True, "f": False, "n": None, "i": -3, "big": 10**30, "np": np.float64(0.1)},
        [{"nested": [{"deep": [[1.0, 2.0]]}]}, "tail"],
    ]

    @pytest.mark.parametrize("obj", CASES)
    def test_same_bytes_as_json_dumps(self, obj):
        assert json.dumps(obj, indent=2, cls=ReportEncoder) == json.dumps(obj, indent=2)

    def test_matrix_reports(self):
        rng = seeded_rng(105)
        report = {
            "map": antilinear_to_json(AntilinearMap(complex_normal(rng, 4, 3))),
            "matrix": matrix_to_json(complex_normal(rng, 5, 5)),
            "residuals": {"a": 1.2e-16, "b": 0.0},
            "rank": 2,
        }
        assert json.dumps(report, indent=2, cls=ReportEncoder) == json.dumps(report, indent=2)

    @pytest.mark.parametrize(
        "kwargs",
        [{"indent": 2, "sort_keys": True}, {"indent": 2, "ensure_ascii": False},
         {"indent": 2, "separators": (",", ":")}, {"indent": "\t"}, {"indent": 4}, {}],
    )
    def test_other_settings_keep_the_standard_output(self, kwargs):
        obj = {"b": [[0.5, float("nan")]], "a": "é"}
        assert json.dumps(obj, cls=ReportEncoder, **kwargs) == json.dumps(obj, **kwargs)
        with pytest.raises(ValueError):
            json.dumps(obj, cls=ReportEncoder, allow_nan=False, **kwargs)

    def test_outside_the_report_types_raises(self):
        for obj in ({"a": object()}, {1: "non-string key"}, [np.int64(3)]):
            with pytest.raises(TypeError):
                json.dumps(obj, indent=2, cls=ReportEncoder)
