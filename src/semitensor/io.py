"""JSON and CSV serialization for matrices, classes, coordinates and reports.

Matrix JSON: {"rows": m, "cols": n, "scalar": "rational"|"float64",
"data": [row-major entries]}, data a JSON array, with rationals as
"num/den" strings (plain integers are accepted on input). A coordinates
object's "terms" is a JSON array too. CSV holds one
matrix row per line.
Every entry, coefficient and ratio read goes through ``matrix.as_scalar``,
so a float is never taken as a rational; shape and index fields must be
JSON integers.
"""

from __future__ import annotations

import json
import operator

from .basis import BasisElement, Coordinates
from .matrix import FLOAT64, RATIONAL, Matrix, as_scalar, from_rows
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


def matrix_to_dict(A: Matrix) -> dict:
    return {
        "rows": A.rows,
        "cols": A.cols,
        "scalar": A.scalar,
        "data": [str(v) for v in A.data] if A.scalar == RATIONAL else list(A.data),
    }


def matrix_from_dict(d: dict) -> Matrix:
    try:
        rows, cols, scalar, data = d["rows"], d["cols"], d["scalar"], d["data"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"matrix object missing field: {exc}") from exc
    if scalar not in (RATIONAL, FLOAT64):
        raise ValueError(f"unknown scalar kind {scalar!r}")
    if not isinstance(data, list):
        raise ValueError(f"data must be a JSON array, got {type(data).__name__}")
    entries = tuple(as_scalar(v, scalar) for v in data)
    return Matrix(_integer(rows, "rows"), _integer(cols, "cols"), entries, scalar)


def matrix_to_csv(A: Matrix) -> str:
    lines = [",".join(map(str, A.row(i))) for i in range(A.rows)]
    return "\n".join(lines) + "\n"


def matrix_from_csv(text: str, scalar: str = RATIONAL) -> Matrix:
    return from_rows([line.split(",") for line in text.strip().splitlines()], scalar)


def class_to_dict(x: MatrixClass) -> dict:
    return {"mu": str(x.mu), "k0": x.k0, "rep": matrix_to_dict(x.rep)}


def class_from_dict(d: dict) -> MatrixClass:
    """The class a dict states; its representative must be irreducible
    under exact comparison, or the stated k0 and the pairing would be
    wrong."""
    try:
        mu = as_scalar(d["mu"], RATIONAL)
        rep = matrix_from_dict(d["rep"])
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"class object missing field or zero denominator: {exc}") from exc
    cls = MatrixClass(mu, rep)
    if canonicalize(rep, rtol=0.0).rep.shape != rep.shape:
        raise ValueError(f"representative of shape {rep.shape} is reducible")
    if "k0" in d and _integer(d["k0"], "k0") != cls.k0:
        raise ValueError(f"stated k0={d['k0']} disagrees with rep shape {rep.shape}")
    return cls


def element_to_dict(e: BasisElement) -> dict:
    return {"kind": e.kind, "k": e.k, "l": e.l, "i": e.i, "j1": e.j1, "j2": e.j2}


def coords_to_dict(c: Coordinates) -> dict:
    terms = [
        {**element_to_dict(e), "coeff": str(c.terms[e])}
        for e in sorted(c.terms, key=BasisElement.sort_key)
    ]
    return {"mu": str(c.mu), "terms": terms}


def coords_from_dict(d: dict) -> Coordinates:
    try:
        mu = as_scalar(d["mu"], RATIONAL)
        raw = d["terms"]
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"coordinates object missing field or zero denominator: {exc}") from exc
    if not isinstance(raw, list):
        raise ValueError(f"terms must be a JSON array, got {type(raw).__name__}")
    terms = {}
    for t in raw:
        try:
            e = BasisElement(mu, *(_integer(t[key], key) for key in ("k", "l", "i", "j1", "j2")))
            coeff = as_scalar(t["coeff"], RATIONAL)
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            raise ValueError(f"bad term {t} (missing field or zero denominator)") from exc
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


def dump_json(obj: dict) -> str:
    """Strict JSON: a NaN or infinite float raises ValueError instead of
    printing the non-standard ``NaN``/``Infinity`` tokens."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"
