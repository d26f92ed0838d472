"""Parity digests: one sha256 per public operation of ``semitensor``.

    PYTHONPATH=src python tests/parity.py [--seed N] [--calls K]

For every callable that ``semitensor.__all__`` names, a seeded generator
draws K calls, and the operation's digest hashes, one line per call, the
``repr`` of the result or the type name of the exception it raised. The
output is one JSON object, ``{name: sha256}``. Each operation draws from
its own ``random.Random``, seeded from N and a CRC-32 of its name, so a
new operation leaves the other digests as they are.

The inputs are the union of what bit-equality checks of the library have
drawn: ratios 1, 1/2, 2/3, 2 and 3/2; dense, 85%-sparse and zero
matrices; denominators 1-9, 97 and primes near 10^4; identity lifts up to
level 30, some with one diagonal entry zeroed or changed mid-block, an
off-diagonal entry set, or (in float) one entry drifting by a relative
5e-10; in float, +-0.0, +-inf, NaN, +-1e308 and 5e-324; the tolerances
0, the default and 1e-3; and inputs each boundary refuses.

``tests/parity_digests.json`` holds the digests at its seed and call
count, and ``tests/test_parity.py`` recomputes them, so a change to any
result bit, or to which exception a call raises, fails the suite until
that file is updated on purpose. Needs only the standard library and the
package, so plain ``python`` runs it on every supported version.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import zlib
from fractions import Fraction
from math import gcd, inf, nan

import semitensor as st
from semitensor import FLOAT64, RATIONAL

RATIOS = (Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(2), Fraction(3, 2))
SMALL_DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 8, 9)
LARGE_DENOMINATORS = (97, 9973, 10007, 10009)
SPECIALS = (0.0, -0.0, inf, -inf, nan, 1e308, -1e308, 5e-324)
TOLERANCES = (None, 0.0, 1e-3)
KINDS = (RATIONAL, FLOAT64)

SEED, CALLS = 0, 100  # the committed digests' seed and calls per operation


class Draw:
    """Seeded drawing of the library's inputs from one ``random.Random``."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def chance(self, p: float) -> bool:
        return self.rng.random() < p

    def pick(self, seq):
        return self.rng.choice(seq)

    def int(self, lo: int, hi: int) -> int:
        return self.rng.randint(lo, hi)

    def kind(self) -> str:
        return self.pick(KINDS)

    def rtol(self):
        return self.pick(TOLERANCES)

    def ratio(self) -> Fraction:
        return self.pick(RATIOS)

    def value(self, kind: str):
        """A nonzero entry (in float, 10% of the time a special value)."""
        num = self.int(1, 9) * self.pick((1, -1))
        den = self.pick(LARGE_DENOMINATORS if self.chance(0.2) else SMALL_DENOMINATORS)
        if kind == RATIONAL:
            return Fraction(num, den)
        return self.pick(SPECIALS) if self.chance(0.1) else num / den

    def zero(self, kind: str):
        return Fraction(0) if kind == RATIONAL else self.pick((0.0, 0.0, -0.0))

    def matrix(self, kind: str, rows: int, cols: int) -> st.Matrix:
        """A dense, 85%-sparse or zero matrix."""
        p_zero = self.pick((0.1, 0.1, 0.85, 0.85, 1.0))
        data = tuple(self.zero(kind) if self.chance(p_zero) else self.value(kind)
                     for _ in range(rows * cols))
        return st.Matrix(rows, cols, data, kind)

    def lift(self, B: st.Matrix, s: int) -> st.Matrix:
        """B x I_s, entry by entry, 40% of the time with one entry disturbed."""
        kind, zero = B.scalar, self.zero(B.scalar)
        data = [B.entry(r // s, c // s) if r % s == c % s else zero
                for r in range(B.rows * s) for c in range(B.cols * s)]
        if s > 1 and self.chance(0.4):
            on = [p // (B.cols * s) % s == p % s for p in range(len(data))]
            diagonal = [p for p in range(len(data)) if on[p]]
            how = self.pick(("zero", "change", "off") + (("drift",) if kind == FLOAT64 else ()))
            if how == "off":
                p = self.pick([p for p in range(len(data)) if not on[p]])
                data[p] = self.value(kind)
            else:
                p = self.pick(diagonal)
                data[p] = {"zero": zero, "change": self.value(kind),
                           "drift": data[p] * (1 + 5e-10)}[how]
        return st.Matrix(B.rows * s, B.cols * s, tuple(data), kind)

    def operand(self, kind: str, mu: Fraction | None = None) -> st.Matrix:
        """A matrix of ratio mu (drawn if None), 40% of the time a lift."""
        mu = self.ratio() if mu is None else mu
        k = self.int(1, 2)
        B = self.matrix(kind, mu.numerator * k, mu.denominator * k)
        if not self.chance(0.4):
            return B
        if B.rows == B.cols == 1:
            return self.lift(B, self.pick((2, 3, 5, 6, 30)))
        return self.lift(B, self.pick((2, 3, 6) if B.rows * B.cols <= 4 else (2, 3)))

    def cls(self, kind: str, mu: Fraction | None = None) -> st.MatrixClass:
        return st.canonicalize(self.operand(kind, mu), rtol=0.0)

    def pair(self, same: float = 0.9):
        """Two classes of one kind, of one ratio with probability ``same``."""
        kind, mu = self.kind(), self.ratio()
        return self.cls(kind, mu), self.cls(kind, mu if self.chance(same) else self.ratio())

    def element(self, mu: Fraction) -> st.BasisElement:
        """A valid basis element of ratio mu, with i <= 6."""
        while True:
            i = self.int(1, 6)
            j1, j2 = self.int(1, i), self.int(1, i)
            if gcd(i, j1, j2) == 1:
                return st.BasisElement(mu, self.int(1, mu.numerator),
                                       self.int(1, mu.denominator), i, j1, j2)

    def coordinates(self, mu: Fraction) -> st.Coordinates:
        terms = {self.element(mu): self.value(RATIONAL) for _ in range(self.int(0, 4))}
        return st.Coordinates(mu, terms)

    def config(self, valid: bool = False) -> tuple[st.Matrix, int]:
        """CauchyConfig's arguments; unless ``valid``, 30% of the time refused."""
        rows, cols = self.int(1, 2), self.int(1, 2)
        data = [self.int(1, 9) * self.pick((1, -1)) / self.pick(SMALL_DENOMINATORS)
                for _ in range(rows * cols)]
        n_max, kind = self.int(1, 5), FLOAT64
        if not valid and self.chance(0.3):
            bad = self.pick(("zero", "inf", "nan", "n_max", "kind"))
            if bad == "n_max":
                n_max = self.pick((0, 10))
            elif bad == "kind":
                data, kind = list(map(Fraction, data)), RATIONAL
            else:
                data[self.int(0, len(data) - 1)] = {"zero": 0.0, "inf": inf, "nan": nan}[bad]
        return st.Matrix(rows, cols, tuple(data), kind), n_max

    def sequence(self) -> list[st.MatrixClass]:
        return st.cauchy_sequence(st.CauchyConfig(*self.config(valid=True)))


# --- one generator per public operation: Draw -> its arguments ------------

GENERATORS = {}


def generator(*names):
    def register(fn):
        for name in names:
            GENERATORS[name] = fn
        return fn
    return register


@generator("Matrix")
def _matrix(d):
    kind = d.kind()
    rows, cols = d.int(1, 3), d.int(1, 3)
    data = d.matrix(kind, rows, cols).data
    bad = d.pick((None, None, "length", "int", "other kind", "bool", "kind", "shape"))
    if bad == "length":
        data = data[1:]
    elif bad in ("int", "other kind", "bool"):
        wrong = {"int": 1, "bool": True,
                 "other kind": 1.0 if kind == RATIONAL else Fraction(1)}[bad]
        p = d.int(0, len(data) - 1)
        data = data[:p] + (wrong,) + data[p + 1:]
    elif bad == "kind":
        kind = "int64"
    elif bad == "shape":
        rows, data = 0, ()
    return rows, cols, data, kind


@generator("MatrixClass")
def _matrix_class(d):
    rep = d.operand(d.kind())
    mu = st.ratio_of(rep) if d.chance(0.7) else d.ratio()
    return mu, rep


@generator("BasisElement")
def _basis_element(d):
    mu = d.ratio() if d.chance(0.9) else d.pick((Fraction(0), Fraction(-1, 2)))
    p, q = max(mu.numerator, 1), mu.denominator
    i = d.int(1, 8)
    if d.chance(0.6):  # in range, gcd(i, j1, j2) = 1 or not
        return mu, d.int(1, p), d.int(1, q), i, d.int(1, i), d.int(1, i)
    return mu, d.int(0, p + 1), d.int(0, q + 1), i, d.int(0, i + 1), d.int(0, i + 1)


@generator("Coordinates")
def _coordinates_ctor(d):
    mu = d.ratio()
    terms = {}
    for _ in range(d.int(0, 4)):
        e = d.element(mu if d.chance(0.9) else d.ratio())
        terms[e] = d.pick((d.value(RATIONAL), d.value(RATIONAL), d.int(-3, 3), Fraction(0),
                           "5/7", 0.5))
    return (mu if d.chance(0.95) else Fraction(0)), terms


@generator("CauchyConfig")
def _cauchy_config(d):
    return d.config()


@generator("GapReport")
def _gap_report(d):
    return (d.int(1, 9), d.int(1, 64), d.int(1, 64), d.value(FLOAT64), d.value(FLOAT64),
            d.value(FLOAT64))


@generator("canonicalize")
def _canonicalize(d):
    return d.operand(d.kind()), d.rtol()


@generator("try_unkron")
def _try_unkron(d):
    A = d.operand(d.kind())
    if d.chance(0.5):
        A = d.lift(A, d.pick((2, 3)))
    divisors = [s for s in range(2, A.rows + 1) if A.rows % s == 0 == A.cols % s]
    s = d.pick(divisors) if divisors and d.chance(0.7) else d.int(1, 7)
    return A, s, d.rtol()


@generator("equivalent", "eq_within")
def _equivalent(d):
    kind = d.kind()
    A = d.operand(kind)
    how = d.pick(("lift", "same", "other"))
    if how == "lift":
        B = d.lift(A, d.int(1, 3))
    elif how == "same":
        B = A
    else:
        B = d.operand(kind, st.ratio_of(A) if d.chance(0.7) else None)
    return A, B, d.rtol()


@generator("class_add", "class_sub", "class_mul", "dist")
def _class_pair(d):
    x, y = d.pair()
    return (x, y, d.rtol()) if d.chance(0.5) else (x, y)


@generator("inner")
def _inner(d):
    return d.pair()


@generator("lie_bracket")
def _lie_bracket(d):
    kind, mu = d.kind(), d.ratio() if d.chance(0.15) else Fraction(1)
    return d.cls(kind, mu), d.cls(kind, mu), d.rtol()


@generator("norm")
def _norm(d):
    return (d.cls(d.kind()),)


@generator("scalar_mul")
def _scalar_mul(d):
    x = d.cls(d.kind())
    return _factor(d, x.scalar), x, d.rtol()


@generator("scale")
def _scale(d):
    A = d.operand(d.kind())
    return _factor(d, A.scalar), A


def _factor(d, kind):
    return d.pick((d.value(kind), d.value(kind), d.zero(kind), 2, "2/3", 0.5, Fraction(3, 97)))


@generator("ltimes", "rtimes", "kron")
def _product(d):
    kind = d.kind()
    A, B = d.operand(kind), d.operand(kind)
    if d.chance(0.05):
        B = d.operand(FLOAT64 if kind == RATIONAL else RATIONAL)
    return A, B


@generator("lplus", "lminus", "rplus", "rminus")
def _sum(d):
    kind, mu = d.kind(), d.ratio()
    A = d.operand(kind, mu)
    B = d.operand(kind, mu if d.chance(0.9) else d.ratio())
    return A, B


@generator("ratio_of")
def _ratio_of(d):
    return (d.operand(d.kind()),)


@generator("to_rational")
def _to_rational(d):
    return d.operand(d.kind()), d.pick((10, 1000, 10**12))


@generator("identity")
def _identity(d):
    return d.pick((-1, 0, 1, 2, 3, 5, 10**4)), d.pick(KINDS + ("int64",))


@generator("zeros")
def _zeros(d):
    return d.pick((0, 1, 2, 3)), d.pick((-1, 1, 2, 4, 10**8)), d.pick(KINDS + ("int64",))


@generator("from_rows")
def _from_rows(d):
    kind = d.kind()
    rows, cols = d.int(1, 3), d.int(1, 3)
    pool = (0, 1, -2, "3/4", "-5/97", "1/0", 0.5, "nan", "-0.0", "inf", True, "x")
    out = [[d.pick(pool) if d.chance(0.3) else d.int(-9, 9) for _ in range(cols)]
           for _ in range(rows)]
    if d.chance(0.1):
        out[-1] = out[-1] + [1]
    return (out if d.chance(0.95) else []), kind


@generator("zero_class")
def _zero_class(d):
    return d.pick(RATIOS + (Fraction(0), "3/2", 2)), d.pick(KINDS)


@generator("decompose_class")
def _decompose_class(d):
    return (d.cls(RATIONAL if d.chance(0.85) else FLOAT64),)


@generator("decompose_unit")
def _decompose_unit(d):
    mu = d.ratio()
    i = d.int(1, 12)
    p, q = mu.numerator, mu.denominator
    if d.chance(0.9):
        return mu, d.int(1, p), d.int(1, q), i, d.int(1, i), d.int(1, i)
    return mu, d.int(0, p + 1), d.int(0, q + 1), i, d.int(0, i + 1), d.int(0, i + 1)


@generator("enumerate_basis")
def _enumerate_basis(d):
    return d.pick(RATIOS + (Fraction(0),)), d.int(0, 5)


def _classes(d, mu):
    # Unit classes and drawn classes of ratio mu, and their combination.
    classes = [st.unit_class(d.element(mu)) if d.chance(0.5) else d.cls(RATIONAL, mu)
               for _ in range(d.int(0, 5))]
    combination = classes[0] if classes else st.zero_class(mu)
    for x in classes[1:]:
        combination = st.class_add(combination, st.scalar_mul(d.value(RATIONAL), x))
    return classes, combination


def _spoil(d, classes, mu):
    # 5% of the time a float class, 5% of the time one of another ratio.
    if classes and d.chance(0.05):
        classes[-1] = d.cls(FLOAT64, mu)
    if d.chance(0.05):
        classes.append(d.cls(RATIONAL, d.ratio()))
    return classes


@generator("in_span")
def _in_span(d):
    mu = d.ratio()
    classes, combination = _classes(d, mu)
    target = combination if d.chance(0.5) else d.cls(RATIONAL, mu)
    return target, _spoil(d, classes, mu)


@generator("independent")
def _independent(d):
    mu = d.ratio()
    classes, combination = _classes(d, mu)
    if d.chance(0.3):
        classes.append(combination)
    return (_spoil(d, classes, mu),)


@generator("reconstruct")
def _reconstruct(d):
    return (d.coordinates(d.ratio()),)


@generator("unit_class")
def _unit_class(d):
    return (d.element(d.ratio()),)


@generator("fill_value")
def _fill_value(d):
    return (d.int(0, 12),)


@generator("predicted_gap", "tail_bound")
def _gap_formula(d):
    return d.int(0, 10), d.int(1, 3), d.int(1, 3)


@generator("cauchy_sequence")
def _cauchy_sequence(d):
    return (st.CauchyConfig(*d.config(valid=True)),)


@generator("gap_reports")
def _gap_reports(d):
    seq = d.sequence()
    return (seq[: d.int(0, len(seq))],)


@generator("nonconvergence_probe")
def _nonconvergence_probe(d):
    seq = d.sequence()
    return seq, d.int(1, len(seq) - 2) if len(seq) > 2 and d.chance(0.8) else d.int(0, 3)


# --- digests -------------------------------------------------------------

def operations() -> list[str]:
    """The public names the digests cover: every callable in __all__."""
    return sorted(n for n in st.__all__ if callable(getattr(st, n)))


def calls(name: str, seed: int, count: int) -> list[tuple]:
    """The arguments of one operation's ``count`` seeded calls."""
    draw = Draw(random.Random(seed * 2**32 + zlib.crc32(name.encode())))
    return [GENERATORS[name](draw) for _ in range(count)]


def outcome(fn, args):
    """The call's result, or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # every refusal is part of the behaviour pinned
        return exc


def line(result) -> str:
    return "!" + type(result).__name__ if isinstance(result, Exception) else repr(result)


def digests(seed: int = SEED, count: int = CALLS) -> dict[str, str]:
    missing = [n for n in operations() if n not in GENERATORS]
    if missing:
        raise KeyError(f"no parity generator for {missing}")
    out = {}
    for name in operations():
        fn, h = getattr(st, name), hashlib.sha256()
        for args in calls(name, seed, count):
            h.update(line(outcome(fn, args)).encode() + b"\n")
        out[name] = h.hexdigest()
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=SEED)
    ap.add_argument("--calls", type=int, default=CALLS, help="calls per operation")
    args = ap.parse_args(argv)
    json.dump({"seed": args.seed, "calls": args.calls, "digests": digests(args.seed, args.calls)},
              sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
