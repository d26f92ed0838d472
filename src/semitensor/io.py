"""JSON and CSV serialization for matrices, classes, coordinates and reports.

Matrix JSON: {"rows": m, "cols": n, "scalar": "rational"|"float64",
"data": [row-major entries]}, data a JSON array, with rationals as
"num/den" strings (plain integers are accepted on input). A coordinates
object's "terms" is a JSON array too. CSV holds one
matrix row per line.
Every entry, coefficient and ratio read follows ``matrix.as_scalar``, so
a float is never taken as a rational; a matrix's entries are read by
``matrix._read``, each distinct literal once, straight to the stored
ints. Shape and index fields must be JSON integers. Every reader raises
``ValueError`` for a bad entry, and the class and coordinates readers
name the field and the value. A rational matrix is written from its
stored ints, one string per distinct value. JSON output is the standard
library's ``indent=2`` layout, byte for byte.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from functools import partial
from math import gcd

from .basis import BasisElement, Coordinates
from .matrix import FLOAT64, RATIONAL, Matrix, _integers, _read, as_scalar, from_rows
from .metric import GapReport
from .quotient import MatrixClass, canonicalize


def _integer(value, name: str) -> int:
    """A shape or index field, which must be a JSON integer (not a bool)."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError as exc:
        raise ValueError(f"{name} must be an integer, got {value!r}") from exc


def _strings(A: Matrix) -> list[str]:
    # str of every entry of a rational A, as its Fraction prints ("n" or
    # "n/d"), from the stored ints: one string per distinct value.
    ints, d = _integers(A)
    text = {}
    for v in set(ints):
        g = gcd(v, d)
        text[v] = str(v // g) if g == d else f"{v // g}/{d // g}"
    return list(map(text.__getitem__, ints))


def matrix_to_dict(A: Matrix) -> dict:
    return {
        "rows": A.rows,
        "cols": A.cols,
        "scalar": A.scalar,
        "data": _strings(A) if A.scalar == RATIONAL else list(A.data),
    }


# What as_scalar raises for a value no number is read from, besides
# ValueError: TypeError for a null, array or object, ZeroDivisionError for
# "1/0", OverflowError for an int too large for a float.
_UNREADABLE = (TypeError, ZeroDivisionError, OverflowError)


def matrix_from_dict(d: dict) -> Matrix:
    """The matrix a dict states; a bad entry raises ValueError."""
    try:
        return _matrix_from_dict(d)
    except _UNREADABLE as exc:
        raise ValueError(str(exc)) from exc


def _bad_value(where: str, field: str, value, exc: Exception) -> ValueError:
    # The error of a field whose value as_scalar refuses, naming both.
    why = "zero denominator" if isinstance(exc, ZeroDivisionError) else str(exc)
    return ValueError(f"{where}: bad {field} {value!r} ({why})")


def _matrix_from_dict(d: dict) -> Matrix:
    # A bad entry raises what as_scalar raises: ValueError or _UNREADABLE.
    try:
        rows, cols, scalar, data = d["rows"], d["cols"], d["scalar"], d["data"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"matrix object missing field: {exc}") from exc
    if scalar not in (RATIONAL, FLOAT64):
        raise ValueError(f"unknown scalar kind {scalar!r}")
    if not isinstance(data, list):
        raise ValueError(f"data must be a JSON array, got {type(data).__name__}")
    return _read(_integer(rows, "rows"), _integer(cols, "cols"), data, scalar)


def matrix_to_csv(A: Matrix) -> str:
    cells, cols = _strings(A) if A.scalar == RATIONAL else list(map(str, A.data)), A.cols
    lines = [",".join(cells[i * cols : (i + 1) * cols]) for i in range(A.rows)]
    return "\n".join(lines) + "\n"


def matrix_from_csv(text: str, scalar: str = RATIONAL) -> Matrix:
    """The matrix of one CSV row per line; a bad entry raises ValueError."""
    try:
        return from_rows([line.split(",") for line in text.strip().splitlines()], scalar)
    except ZeroDivisionError as exc:
        raise ValueError(str(exc)) from exc


def class_to_dict(x: MatrixClass) -> dict:
    return {"mu": str(x.mu), "k0": x.k0, "rep": matrix_to_dict(x.rep)}


def class_from_dict(d: dict) -> MatrixClass:
    """The class a dict states; its representative must be irreducible
    under exact comparison, or the stated k0 and the pairing would be
    wrong."""
    try:
        mu, rep = d["mu"], d["rep"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"class object missing field: {exc}") from exc
    try:
        mu = as_scalar(mu, RATIONAL)
    except _UNREADABLE as exc:
        raise _bad_value("class object", "mu", mu, exc) from exc
    try:
        rep = _matrix_from_dict(rep)
    except _UNREADABLE as exc:
        entry = next(v for v in rep["data"] if _refused(v, rep["scalar"]))
        raise _bad_value("class object", "rep.data entry", entry, exc) from exc
    cls = MatrixClass(mu, rep)
    if canonicalize(rep, rtol=0.0).rep.shape != rep.shape:
        raise ValueError(f"representative of shape {rep.shape} is reducible")
    if "k0" in d and _integer(d["k0"], "k0") != cls.k0:
        raise ValueError(f"stated k0={d['k0']} disagrees with rep shape {rep.shape}")
    return cls


def _refused(value, kind: str) -> bool:
    # Whether as_scalar raises one of _UNREADABLE for value; called on the
    # entries before the one a read failed on, which raise nothing.
    try:
        as_scalar(value, kind)
    except _UNREADABLE:
        return True
    return False


def element_to_dict(e: BasisElement) -> dict:
    return {"kind": e.kind, "k": e.k, "l": e.l, "i": e.i, "j1": e.j1, "j2": e.j2}


def coords_to_dict(c: Coordinates) -> dict:
    terms = [
        {**element_to_dict(e), "coeff": str(c.terms[e])}
        for e in sorted(c.terms, key=BasisElement.sort_key)
    ]
    return {"mu": str(c.mu), "terms": terms}


_TERM_FIELDS = ("k", "l", "i", "j1", "j2", "coeff")


def coords_from_dict(d: dict) -> Coordinates:
    try:
        mu, raw = d["mu"], d["terms"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"coordinates object missing field: {exc}") from exc
    try:
        mu = as_scalar(mu, RATIONAL)
    except _UNREADABLE as exc:
        raise _bad_value("coordinates object", "mu", mu, exc) from exc
    if not isinstance(raw, list):
        raise ValueError(f"terms must be a JSON array, got {type(raw).__name__}")
    terms = {}
    for t in raw:
        try:
            *indices, coeff = (t[key] for key in _TERM_FIELDS)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"term {t} missing field: {exc}") from exc
        e = BasisElement(mu, *map(_integer, indices, _TERM_FIELDS))
        try:
            coeff = as_scalar(coeff, RATIONAL)
        except _UNREADABLE as exc:
            raise _bad_value(f"term {t}", "coeff", coeff, exc) from exc
        if e in terms:
            raise ValueError(f"duplicate term {t}")
        if ("kind" in t) and t["kind"] != e.kind:
            raise ValueError(f"term {t} mislabels its kind (expected {e.kind})")
        terms[e] = coeff
    return Coordinates(mu, terms)


GAP_CSV_HEADER = "n,rows,cols,gap_measured,gap_predicted,rel_err"


def gap_reports_to_csv(reports: list[GapReport]) -> str:
    rows = [f"{r.n},{r.rows},{r.cols},{r.gap_measured!r},{r.gap_predicted!r},{r.rel_err!r}"
            for r in reports]
    return "\n".join([GAP_CSV_HEADER, *rows]) + "\n"


# The C function that writes every item of a list of one scalar type.
_ESCAPE = json.encoder.encode_basestring_ascii
_LEAVES = {str: _ESCAPE, int: int.__repr__, float: float.__repr__}


def _indented(obj, pad: str) -> str:
    """``json.dumps(obj, indent=2, allow_nan=False)`` of a document of
    dicts with string keys, lists, tuples and JSON scalars, as if it began
    on a line indented by ``pad``. Containers are walked here and every
    scalar is written by a C function, a list of one scalar type by one
    ``map``."""
    if isinstance(obj, str):
        return _ESCAPE(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"Out of range float values are not JSON compliant: {obj!r}")
        return float.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        kinds = set(map(type, obj))
        leaf = _LEAVES.get(kinds.pop()) if len(kinds) == 1 else None
        if leaf is float.__repr__ and not all(map(math.isfinite, obj)):
            leaf = None  # item by item, so the first NaN or infinity raises
        items, ends = map(leaf, obj) if leaf else [_indented(v, inner) for v in obj], "[]"
    elif isinstance(obj, dict):
        items, ends = [f"{_ESCAPE(k)}: {_indented(v, inner)}" for k, v in obj.items()], "{}"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not obj:
        return ends
    return f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{ends[1]}"


# Python 3.13's json writes indent=2 in C, faster than _indented; before
# 3.13 it writes it in pure Python, slower than _indented.
_json_text = (partial(json.dumps, indent=2, allow_nan=False) if sys.version_info >= (3, 13)
              else partial(_indented, pad=""))


def dump_json(obj: dict) -> str:
    """Strict JSON in the standard library's indent=2 layout: a NaN or
    infinite float raises ValueError instead of printing the non-standard
    ``NaN``/``Infinity`` tokens."""
    return _json_text(obj) + "\n"
