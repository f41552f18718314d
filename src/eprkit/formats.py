"""JSON schemas for matrices, antilinear maps, bipartite vectors, and factored operators.

A matrix is {"rows": int, "cols": int, "data": [[re, im], ...]} with the data
row-major; an antilinear map wraps a matrix together with its two dimensions
and the literal parity tag "antilinear"; a bipartite vector wraps its
coefficient matrix with the two factor dimensions.  Operators on H_a ⊗ H_b
are written by their d×d factors: a twisted product as {"parity", "dim_a",
"dim_b", "eta", "xi"} with eta dim_a×dim_b and xi dim_b×dim_a, a Kronecker
product a ⊗ b as {"dim_a", "dim_b", "a", "b"} with square factors.  Field
names are exact, and declared dimensions are exact ints matching the shapes.
"""

from __future__ import annotations

import json
import math
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .antilinear import AntilinearMap
from .bipartite import BipartiteVector
from .errors import NonFinite, ParseError
from .modular import KroneckerProduct, TwistedOperator


def matrix_to_json(m) -> dict:
    a = np.asarray(m, dtype=np.complex128, order="C")
    if a.ndim != 2:
        raise ParseError(f"matrix must be two-dimensional, got shape {a.shape}")
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "data": a.view(np.float64).reshape(-1, 2).tolist(),  # row-major [re, im] pairs
    }


def _require(obj, keys: set[str], what: str) -> None:
    if not isinstance(obj, dict):
        raise ParseError(f"{what} must be a JSON object")
    missing = keys - obj.keys()
    if missing:
        raise ParseError(f"{what} is missing fields {sorted(missing)}")


def matrix_from_json(obj, what: str = "matrix") -> np.ndarray:
    """The matrix of a JSON object, converted in one pass; data that does not convert is refused by its first bad entry."""
    _require(obj, {"rows", "cols", "data"}, what)
    rows, cols = obj["rows"], obj["cols"]
    if type(rows) is not int or type(cols) is not int or rows < 1 or cols < 1:
        raise ParseError(f"{what}: rows and cols must be positive integers")
    data = obj["data"]
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ParseError(f"{what}: data must hold {rows * cols} [re, im] pairs")
    pairs = None
    pair_entries = all(map(isinstance, data, repeat((list, tuple)))) and set(map(len, data)) == {2}
    if pair_entries and set(map(type, chain.from_iterable(data))) <= {int, float}:
        try:
            pairs = np.array(data, dtype=np.float64)
        except OverflowError:  # an integer beyond the float64 range
            pass
    if pairs is None or not np.isfinite(pairs).all():
        _refuse_first_bad_entry(data, what)
    return pairs.view(np.complex128).reshape(rows, cols)


def _refuse_first_bad_entry(data: list, what: str) -> None:
    """Raise the refusal that names the first data[k] that is not a finite [re, im] pair of numbers."""
    try:
        for k, entry in enumerate(data):
            if not isinstance(entry, (list, tuple)) or len(entry) != 2 or not set(map(type, entry)) <= {int, float}:
                raise ParseError(f"{what}: data[{k}] is not a [re, im] pair of numbers")
            if not (math.isfinite(entry[0]) and math.isfinite(entry[1])):
                raise NonFinite(f"{what}: data[{k}] is not finite")
    except OverflowError:  # data[k] holds an integer beyond the float64 range
        raise NonFinite(f"{what}: data[{k}] is not finite") from None


def _check_shape(what: str, field: str, m: np.ndarray, dims: tuple) -> None:
    if m.shape != dims or not all(type(d) is int for d in dims):  # True == 1 and 2.0 == 2 are no dimensions
        raise ParseError(f"{what}: {field} shape {m.shape} does not match declared dimensions {dims}")


def antilinear_to_json(t: AntilinearMap) -> dict:
    return {
        "dim_domain": t.dim_domain,
        "dim_codomain": t.dim_codomain,
        "mat": matrix_to_json(t.mat),
        "parity": "antilinear",
    }


def bipartite_to_json(psi: BipartiteVector) -> dict:
    return {
        "dim_a": psi.dim_a,
        "dim_b": psi.dim_b,
        "coeff": matrix_to_json(psi.coeff),
    }


def bipartite_from_json(obj, what: str = "bipartite vector") -> BipartiteVector:
    _require(obj, {"dim_a", "dim_b", "coeff"}, what)
    coeff = matrix_from_json(obj["coeff"], f"{what}.coeff")
    _check_shape(what, "coeff", coeff, (obj["dim_a"], obj["dim_b"]))
    return BipartiteVector(coeff)


def twisted_to_json(op: TwistedOperator) -> dict:
    eta, xi = op.factors
    return {
        "parity": op.parity,
        "dim_a": op.dim_a,
        "dim_b": op.dim_b,
        "eta": matrix_to_json(eta),
        "xi": matrix_to_json(xi),
    }


def twisted_from_json(obj, what: str = "twisted operator") -> TwistedOperator:
    _require(obj, {"parity", "dim_a", "dim_b", "eta", "xi"}, what)
    parity = obj["parity"]
    if parity not in ("linear", "antilinear"):
        raise ParseError(f"{what}: parity must be 'linear' or 'antilinear', got {parity!r}")
    eta = matrix_from_json(obj["eta"], f"{what}.eta")
    xi = matrix_from_json(obj["xi"], f"{what}.xi")
    _check_shape(what, "eta", eta, (obj["dim_a"], obj["dim_b"]))
    _check_shape(what, "xi", xi, (obj["dim_b"], obj["dim_a"]))
    return TwistedOperator((eta, xi), parity)


def kronecker_to_json(op: KroneckerProduct) -> dict:
    a, b = op.factors
    return {"dim_a": op.dim_a, "dim_b": op.dim_b, "a": matrix_to_json(a), "b": matrix_to_json(b)}


def kronecker_from_json(obj, what: str = "Kronecker product") -> KroneckerProduct:
    _require(obj, {"dim_a", "dim_b", "a", "b"}, what)
    a = matrix_from_json(obj["a"], f"{what}.a")
    b = matrix_from_json(obj["b"], f"{what}.b")
    _check_shape(what, "a", a, (obj["dim_a"], obj["dim_a"]))
    _check_shape(what, "b", b, (obj["dim_b"], obj["dim_b"]))
    return KroneckerProduct((a, b))


def load_json(path) -> dict:
    """Read a JSON object from a file, mapping every way the file can fail to be read or decoded to ParseError."""
    name = str(path) if str(path).isprintable() else repr(str(path))  # no raw newline, NUL or escape in messages
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL byte in the path
        raise ParseError(f"cannot read {name}: {exc}") from exc
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # malformed, an integer beyond int()'s digit limit, or nested too deep
        raise ParseError(f"{name} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{name} must hold a JSON object")
    return obj
