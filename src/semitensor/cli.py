"""Command-line surface: file-based matrix I/O over every operation.

Inputs are JSON/CSV files or inline JSON array literals. Exit codes:
0 success, 1 domain error (bad ratios, float reducibility ambiguity, a
result too large for binary64), 2 parse/IO error; failures also print
one machine-readable line {"error": code, "message": ...} on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import io as sio
from .basis import decompose_class, enumerate_basis, reconstruct
from .matrix import FLOAT64, RATIONAL, DEFAULT_RTOL, Matrix, from_rows
from .metric import (
    CauchyConfig,
    cauchy_sequence,
    dist,
    fill_value,
    gap_reports,
    inner,
    nonconvergence_probe,
)
from .quotient import MatrixClass, canonicalize, equivalent, lie_bracket, try_unkron
from .stp import lminus, lplus, ltimes, rminus, rplus, rtimes

TOL_ENV = "SEMITENSOR_TOL"


class _ParseFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a parse failure after the usage text, so
    it ends in the same JSON error line as every other failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _ParseFailure(f"{self.prog}: {message}")


def _resolve_tol(flag: float | None) -> float:
    """--tol, else SEMITENSOR_TOL (read on every call), else the default.
    A tolerance that is not finite or is negative is a parse error."""
    tol = flag
    if tol is None:
        raw = os.environ.get(TOL_ENV)
        try:
            tol = DEFAULT_RTOL if raw is None else float(raw)
        except ValueError as exc:
            raise _ParseFailure(f"bad {TOL_ENV} value {raw!r}") from exc
    if not (math.isfinite(tol) and tol >= 0):
        raise _ParseFailure(f"tolerance must be finite and >= 0, got {tol!r}")
    return tol


def _load_matrix(arg: str, scalar: str) -> Matrix:
    """A path (JSON or CSV by content) or an inline JSON array literal."""
    try:
        if arg.lstrip().startswith("["):
            rows = json.loads(arg)
            if rows and not isinstance(rows[0], list):
                rows = [rows]
            A = from_rows(rows, scalar)
        else:
            text = Path(arg).read_text()
            if text.lstrip().startswith("{"):
                A = sio.matrix_from_dict(json.loads(text))
            else:
                A = sio.matrix_from_csv(text, scalar)
    except (OSError, ValueError, TypeError, ZeroDivisionError, json.JSONDecodeError) as exc:
        raise _ParseFailure(f"cannot read matrix from {arg!r}: {exc}") from exc
    if A.scalar == FLOAT64 and not all(math.isfinite(v) for v in A.data):
        raise _ParseFailure(f"matrix from {arg!r} has a NaN or infinite entry")
    return A


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise _ParseFailure(f"cannot write {out!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_matrix(A: Matrix, args) -> None:
    if args.format == "csv":
        _emit(sio.matrix_to_csv(A), args.out)
    else:
        _emit(sio.dump_json(sio.matrix_to_dict(A)), args.out)


def _to_class(A: Matrix, tol: float) -> MatrixClass:
    """Canonicalize a CLI input once, at tol. A float peel depended on the
    tolerance exactly when A is not rep x I_s exactly; only then is the
    exact form computed, to word the error."""
    x = canonicalize(A, rtol=tol)
    s = A.rows // x.rep.rows
    if A.scalar == FLOAT64 and s > 1 and try_unkron(A, s, rtol=0.0) is None:
        exact = canonicalize(A, rtol=0.0)
        raise ValueError(
            f"reducibility of this float matrix is ambiguous: exact "
            f"comparison gives a {exact.rep.shape} representative but "
            f"tolerance {tol} gives {x.rep.shape}"
        )
    return x


def _scalar_json(v) -> dict:
    if isinstance(v, Fraction):
        return {"value": str(v)}
    return {"value": v}


@functools.cache  # one parser per process; parse_args keeps no state in it
def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="semitensor",
        description="Semi-tensor product/addition algebra on matrix quotient spaces.",
    )
    p.add_argument("--scalar", choices=[RATIONAL, FLOAT64], default=RATIONAL,
                   help="scalar kind for inline/CSV inputs (default: rational)")
    p.add_argument("--tol", type=float, default=None,
                   help=f"relative tolerance for float comparisons (default {DEFAULT_RTOL}, "
                        f"override via {TOL_ENV})")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=["json", "csv"], default="json",
                   help="output format for matrix results")
    sub = p.add_subparsers(dest="verb", required=True)

    two = argparse.ArgumentParser(add_help=False)
    two.add_argument("a", help="matrix file or inline JSON array")
    two.add_argument("b", help="matrix file or inline JSON array")
    one = argparse.ArgumentParser(add_help=False)
    one.add_argument("a", help="matrix file or inline JSON array")

    sp = sub.add_parser("stp", parents=[two], help="semi-tensor product")
    sp.add_argument("--right", action="store_true", help="use the right-product variant")
    sa = sub.add_parser("sta", parents=[two], help="semi-tensor addition")
    sa.add_argument("--minus", action="store_true", help="subtract instead of add")
    sa.add_argument("--right", action="store_true", help="use the right-addition variant")
    sub.add_parser("canon", parents=[one], help="canonical irreducible representative")
    sub.add_parser("equiv", parents=[two], help="identity-equivalence test")
    sub.add_parser("decompose", parents=[one], help="basis coordinates of a class")
    rec = sub.add_parser("reconstruct", help="class from basis coordinates")
    rec.add_argument("coords", help="coordinates JSON file")
    sub.add_parser("bracket", parents=[two], help="Lie bracket of two ratio-1 classes")
    sub.add_parser("inner", parents=[two], help="quotient pairing of two classes")
    sub.add_parser("dist", parents=[two], help="quotient distance between two classes")

    ca = sub.add_parser("cauchy", help="run the non-convergent Cauchy-sequence experiment")
    ca.add_argument("--a1", required=True, help="seed matrix (inline array or file), all nonzero")
    ca.add_argument("--nmax", type=int, default=6, help="sequence length (<= 9)")

    bl = sub.add_parser("basis-list", help="enumerate basis elements up to an index bound")
    bl.add_argument("--mu", required=True, help="space ratio p/q")
    bl.add_argument("--imax", type=int, required=True)
    return p


def _run(args) -> None:
    tol = _resolve_tol(args.tol)
    verb = args.verb

    if verb in ("stp", "sta", "equiv"):
        A, B = (_load_matrix(m, args.scalar) for m in (args.a, args.b))
        if verb == "equiv":
            _emit(sio.dump_json({"equivalent": equivalent(A, B, tol)}), args.out)
            return
        if verb == "stp":
            op = rtimes if args.right else ltimes
        elif args.right:
            op = rminus if args.minus else rplus
        else:
            op = lminus if args.minus else lplus
        _emit_matrix(op(A, B), args)
    elif verb in ("bracket", "inner", "dist"):
        x, y = (_to_class(_load_matrix(m, args.scalar), tol) for m in (args.a, args.b))
        if verb == "bracket":
            result = sio.class_to_dict(lie_bracket(x, y, tol))
        else:
            result = _scalar_json(inner(x, y) if verb == "inner" else dist(x, y, tol))
        _emit(sio.dump_json(result), args.out)
    elif verb == "canon":
        x = _to_class(_load_matrix(args.a, args.scalar), tol)
        _emit(sio.dump_json(sio.class_to_dict(x)), args.out)
    elif verb == "decompose":
        A = _load_matrix(args.a, args.scalar)
        if A.scalar != RATIONAL:
            raise ValueError("decompose needs exact-rational input; rationalize first")
        _emit(sio.dump_json(sio.coords_to_dict(decompose_class(canonicalize(A)))), args.out)
    elif verb == "reconstruct":
        try:
            coords = sio.coords_from_dict(json.loads(Path(args.coords).read_text()))
        except (OSError, ValueError, TypeError) as exc:
            raise _ParseFailure(f"cannot read coordinates from {args.coords!r}: {exc}") from exc
        _emit(sio.dump_json(sio.class_to_dict(reconstruct(coords))), args.out)
    elif verb == "cauchy":
        seq = cauchy_sequence(CauchyConfig(_load_matrix(args.a1, FLOAT64), args.nmax))
        _emit(sio.gap_reports_to_csv(gap_reports(seq)), args.out)
        for m in range(1, len(seq) - 1):
            values = nonconvergence_probe(seq, m)
            floor = fill_value(m + 1)
            nondecreasing = all(a <= b for a, b in zip(values, values[1:]))
            ok = nondecreasing and all(v > floor for v in values)
            sys.stdout.write(
                f"probe m={m}: min_dist={min(values):.6g} floor={floor:.6g} "
                f"nondecreasing={nondecreasing} {'ok' if ok else 'VIOLATED'}\n"
            )
    else:  # basis-list; argparse enforces the verb set
        try:
            mu = Fraction(args.mu)
        except (ValueError, ZeroDivisionError) as exc:
            raise _ParseFailure(f"bad --mu: {exc}") from exc
        elems = enumerate_basis(mu, args.imax)
        _emit(sio.dump_json({
            "mu": str(mu),
            "i_max": args.imax,
            "elements": [
                {"kind": e.kind, "k": e.k, "l": e.l, "i": e.i, "j1": e.j1, "j2": e.j2}
                for e in elems
            ],
        }), args.out)


def _fail(code: str, message: str, status: int) -> int:
    sys.stderr.write(json.dumps({"error": code, "message": message}) + "\n")
    return status


def main(argv=None) -> int:
    try:
        _run(build_parser().parse_args(argv))
    except _ParseFailure as exc:
        return _fail("parse", str(exc), 2)
    except (ValueError, OverflowError) as exc:
        return _fail("domain", str(exc), 1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
