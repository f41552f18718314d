"""JSON schemas for matrices, antilinear maps, and bipartite vectors.

A matrix is {"rows": int, "cols": int, "data": [[re, im], ...]} with the data
row-major; an antilinear map wraps a matrix together with its two dimensions
and the literal parity tag "antilinear"; a bipartite vector wraps its
coefficient matrix with the two factor dimensions.  Field names are exact.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .antilinear import AntilinearMap
from .bipartite import BipartiteVector
from .errors import NonFinite, ParseError


def matrix_to_json(m) -> dict:
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ParseError(f"matrix must be two-dimensional, got shape {a.shape}")
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "data": [[float(z.real), float(z.imag)] for z in a.reshape(-1)],
    }


def _require(obj, keys: set[str], what: str) -> None:
    if not isinstance(obj, dict):
        raise ParseError(f"{what} must be a JSON object")
    missing = keys - obj.keys()
    if missing:
        raise ParseError(f"{what} is missing fields {sorted(missing)}")


def matrix_from_json(obj, what: str = "matrix") -> np.ndarray:
    _require(obj, {"rows", "cols", "data"}, what)
    rows, cols = obj["rows"], obj["cols"]
    if not isinstance(rows, int) or not isinstance(cols, int) or rows < 1 or cols < 1:
        raise ParseError(f"{what}: rows and cols must be positive integers")
    data = obj["data"]
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ParseError(f"{what}: data must hold {rows * cols} [re, im] pairs")
    out = np.empty(rows * cols, dtype=np.complex128)
    for k, entry in enumerate(data):
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
        ):
            raise ParseError(f"{what}: data[{k}] is not a [re, im] pair of numbers")
        if not (math.isfinite(entry[0]) and math.isfinite(entry[1])):
            raise NonFinite(f"{what}: data[{k}] is not finite")
        out[k] = complex(entry[0], entry[1])
    return out.reshape(rows, cols)


def antilinear_to_json(t: AntilinearMap) -> dict:
    return {
        "dim_domain": t.dim_domain,
        "dim_codomain": t.dim_codomain,
        "mat": matrix_to_json(t.mat),
        "parity": "antilinear",
    }


def antilinear_from_json(obj, what: str = "antilinear map") -> AntilinearMap:
    _require(obj, {"dim_domain", "dim_codomain", "mat", "parity"}, what)
    if obj["parity"] != "antilinear":
        raise ParseError(f"{what}: parity must be 'antilinear', got {obj['parity']!r}")
    mat = matrix_from_json(obj["mat"], f"{what}.mat")
    if mat.shape != (obj["dim_codomain"], obj["dim_domain"]):
        raise ParseError(
            f"{what}: mat shape {mat.shape} does not match declared dimensions "
            f"({obj['dim_codomain']}, {obj['dim_domain']})"
        )
    return AntilinearMap(mat)


def bipartite_to_json(psi: BipartiteVector) -> dict:
    return {
        "dim_a": psi.dim_a,
        "dim_b": psi.dim_b,
        "coeff": matrix_to_json(psi.coeff),
    }


def bipartite_from_json(obj, what: str = "bipartite vector") -> BipartiteVector:
    _require(obj, {"dim_a", "dim_b", "coeff"}, what)
    coeff = matrix_from_json(obj["coeff"], f"{what}.coeff")
    if coeff.shape != (obj["dim_a"], obj["dim_b"]):
        raise ParseError(
            f"{what}: coeff shape {coeff.shape} does not match declared dimensions "
            f"({obj['dim_a']}, {obj['dim_b']})"
        )
    return BipartiteVector(coeff)


def load_json(path) -> dict:
    """Read a JSON object from a file, mapping every failure to ParseError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path} must hold a JSON object")
    return obj


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _floats(values: list) -> list[str]:
    """json's spelling of floats: repr, with NaN and ±Infinity for the non-finite ones."""
    out = list(map(float.__repr__, values))
    return out if all(map(math.isfinite, values)) else [_NONFINITE.get(s, s) for s in out]


class ReportEncoder(json.JSONEncoder):
    """The text of json.dumps(obj, indent=2), built by string joins; the CLI writes its reports with it.

    An indent keeps json.dumps off its C encoder, and a report holds
    thousands of [re, im] pairs, which this writes by one format per pair.
    It takes dicts with string keys, lists, tuples, str, int, float, bool
    and None and raises TypeError on anything else; any setting but
    indent=2 goes to the standard encoder.
    """

    def encode(self, o) -> str:
        settings = (self.indent, self.item_separator, self.key_separator, self.sort_keys, self.skipkeys)
        if settings != (2, ",", ": ", False, False) or not (self.ensure_ascii and self.allow_nan):
            return super().encode(o)
        return self._text(o, "")

    def _text(self, o, ind: str) -> str:
        if isinstance(o, str):
            return json.encoder.encode_basestring_ascii(o)
        if o is None or o is True or o is False:
            return {None: "null", True: "true", False: "false"}[o]
        if isinstance(o, int):
            return int.__repr__(o)
        if isinstance(o, float):
            return _floats([o])[0]
        inner = ind + "  "
        sep = ",\n" + inner
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            if all(type(v) is list and len(v) == 2 and type(v[0]) is float and type(v[1]) is float for v in o):
                pair = "[\n" + inner + "  {},\n" + inner + "  {}\n" + inner + "]"
                text = _floats([x for v in o for x in v])
                return "[\n" + inner + sep.join(map(pair.format, text[0::2], text[1::2])) + "\n" + ind + "]"
            return "[\n" + inner + sep.join([self._text(v, inner) for v in o]) + "\n" + ind + "]"
        if isinstance(o, dict) and all(type(k) is str for k in o):
            if not o:
                return "{}"
            items = [json.encoder.encode_basestring_ascii(k) + ": " + self._text(v, inner) for k, v in o.items()]
            return "{\n" + inner + sep.join(items) + "\n" + ind + "}"
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable by ReportEncoder")
