"""The four seeded workloads: inputs, top-level calls and output checks.

Every workload is a fixed list of top-level public calls (one round).
The seed draws the entries, denominators, unit positions and
coefficients; shapes, ratios and the call mix are fixed per workload, so
two seeds put the same load on the library and differ only in values.
Calls reach the library through module attributes looked up at call
time (``st.class_add``), which is what lets the tracer see them.

Checks run outside the timed region against the nested-list oracle in
``oracle.py``. Chained calls (a ``reconstruct`` of the coordinates that
the preceding ``decompose_class`` returned, the probes of a generated
Cauchy sequence) pass values through a ``Slot``.
"""

from __future__ import annotations

import io as _stdio
import json
import math
import os
import shutil
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from random import Random
from typing import Callable

import oracle as O


@dataclass
class Call:
    """One top-level public call and what is known about its input."""

    op: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    t: int
    scalar: str = "rational"
    dense: bool = True
    reducible: bool = False
    after: Callable[[object], object] | None = None  # untimed post-step

    def passes(self, result) -> bool:
        """The check's verdict; an output the check cannot even read fails."""
        try:
            return bool(self.check(result))
        except Exception:
            return False


@dataclass
class Workload:
    calls: list
    warm: list  # small calls run once, in round order, as part of set-up
    probes: Callable[[], dict] = lambda: {}
    cleanup: Callable[[], None] = lambda: None

    def traffic(self):
        """Call mix, t histogram and input shares of one round."""
        n = len(self.calls)
        mix, t_hist, kinds = {}, {}, {}
        for c in self.calls:
            mix[c.op] = mix.get(c.op, 0) + 1
            t_hist[c.t] = t_hist.get(c.t, 0) + 1
            kinds[c.scalar] = kinds.get(c.scalar, 0) + 1
        return {
            "calls_per_round": n,
            "call_mix": dict(sorted(mix.items())),
            "t_hist": {str(t): k for t, k in sorted(t_hist.items())},
            "reducible_share": sum(c.reducible for c in self.calls) / n,
            "dense_share": sum(c.dense for c in self.calls) / n,
            "scalar_share": {k: v / n for k, v in sorted(kinds.items())},
        }


class Slot:
    value = None


def _nonzero(rng, den):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, den))


def dense(rng, m, n, den=3):
    return [[_nonzero(rng, den) for _ in range(n)] for _ in range(m)]


def unit(rng, m, n, den=3):
    out = [[Fraction(0)] * n for _ in range(m)]
    out[rng.randrange(m)][rng.randrange(n)] = _nonzero(rng, den)
    return out


def sparse(rng, m, n, nonzeros, den=3):
    out = [[Fraction(0)] * n for _ in range(m)]
    for pos in rng.sample(range(m * n), nonzeros):
        out[pos // n][pos % n] = _nonzero(rng, den)
    return out


def floats(rng, m, n):
    return [[rng.choice((-1.0, 1.0)) * rng.uniform(0.25, 4.0) for _ in range(n)] for _ in range(m)]


def spread(mu, terms):
    """Generator-side sum of coeff * unit, lifted to the lcm of unit sizes.

    A lifted unit is one diagonal run of s = R / (p i) positions, so the
    sum is written entry by entry instead of through full lifts.
    """
    p, q = mu.numerator, mu.denominator
    R = lcm(*(p * idx[2] for idx, _ in terms))
    out = [[Fraction(0)] * (R * q // p) for _ in range(R)]
    for (k, l, i, j1, j2), c in terms:
        s = R // (p * i)
        r0, c0 = ((k - 1) * i + j1 - 1) * s, ((l - 1) * i + j2 - 1) * s
        for d in range(s):
            out[r0 + d][c0 + d] += c
    return out


def pick_by_i(rng, mu, sizes):
    """One random basis index per entry of ``sizes`` (its i), all distinct.

    Fixing the i values fixes the lift size lcm(p i) of whatever is built
    from the picks, so the seed changes values but not the load.
    """
    out = []
    for i in sizes:
        choices = [idx for idx in O.basis_indices(mu, i) if idx[2] == i and idx not in out]
        out.append(rng.choice(choices))
    return out


def build(name, seed, st, workdir):
    rng = Random(f"{name}:{seed}")
    if name == "algebra_exact":
        return algebra_exact(rng, st)
    if name == "basis_exact":
        return basis_exact(rng, st)
    if name == "cauchy_float":
        return cauchy_float(rng, st)
    if name == "cli_small":
        return cli_small(rng, st, workdir)
    raise ValueError(f"unknown workload {name!r}")


# --- algebra_exact ------------------------------------------------------
#
# The call mix is a grid, not a set of hand weights: every operation runs
# once per round on every operand pair of its list. The lists cover the
# input properties the workload's description names (nested and coprime
# sizes, ratios 1 and non-1, dense and single-entry inputs, small and
# large denominators) on a ladder of lift sizes t that takes the t = 36
# pair, the 35 x 35 operand and the k = 30 lift of the ROADMAP baseline
# rows. Its top is a coprime pair at t = 210, which, like the ROADMAP's
# t = 420 row, runs only class_add and inner. The t = 420 pair itself is
# left out: its calls take 1.1 to 3.4 s each, so a run of under half a
# minute would repeat them too few times for a steady best time.

# Class pairs (shape_x, shape_y, kind_x, kind_y, max denominator) for
# class_add, class_sub, inner and dist.
PAIRS = (
    ((2, 2), (4, 4), dense, dense, 3),
    ((2, 2), (3, 3), dense, dense, 97),
    ((4, 4), (6, 6), unit, dense, 3),
    ((4, 4), (9, 9), dense, dense, 3),
    ((5, 5), (7, 7), unit, unit, 97),
    ((4, 2), (6, 3), dense, dense, 3),
    ((2, 3), (4, 6), dense, unit, 97),
    ((12, 12), (15, 15), dense, dense, 3),
)
TOP_PAIR = ((6, 6), (35, 35), dense, dense, 3)  # t = 210: class_add and inner
# Product pairs for class_mul, and for lie_bracket where both ratios are
# 1; t = lcm(cols x, rows y) from 6 to 60. At t = 90 a bracket takes
# 0.9 s, too long to repeat enough, as for t = 420 above.
MUL_PAIRS = (
    ((2, 2), (3, 3)),
    ((4, 4), (6, 6)),
    ((4, 2), (3, 6)),
    ((2, 3), (9, 6)),
    ((6, 6), (10, 10)),
    ((4, 4), (9, 9)),
    ((10, 10), (12, 12)),
)
# (shape, kind) of scalar_mul operands
SCALED = (((3, 3), dense), ((4, 2), dense), ((5, 5), unit), ((12, 12), dense), ((2, 3), dense))
# (shape of X, lift k, kind): canonicalize(X x I_k); k = 1 is irreducible.
CANON = (
    ((3, 3), 2, dense),
    ((4, 4), 3, dense),
    ((4, 2), 6, dense),
    ((6, 6), 30, dense),
    ((5, 5), 7, dense),
    ((4, 4), 5, unit),
    ((6, 6), 1, dense),
)
# (shape, k_a, k_b, equivalent?)
EQUIV = (((3, 3), 2, 3, True), ((4, 4), 4, 2, False), ((4, 4), 6, 9, True), ((3, 3), 2, 5, True))
# Raw products for ltimes and rtimes, and raw sums for lplus and lminus.
RAW_PRODUCTS = (((2, 3), (2, 2)), ((3, 4), (6, 3)), ((4, 4), (9, 9)), ((1, 2), (3, 1)))
RAW_SUMS = (((4, 4), (6, 6)), ((2, 4), (3, 6)), ((4, 4), (9, 9)))


def algebra_exact(rng, st):
    calls = []

    def klass(lists):
        return st.canonicalize(st.from_rows(lists))

    def class_call(op, X, Y, want, t, is_dense):
        x, y = klass(X), klass(Y)
        mu = x.mu * y.mu if op in ("class_mul", "lie_bracket") else x.mu
        calls.append(Call(
            op, lambda: getattr(st, op)(x, y),
            lambda r: r.mu == mu and O.same_class(r.rep.to_lists(), want(X, Y)), t, dense=is_dense,
        ))
        return x, y

    for sx, sy, kx, ky, den in PAIRS + (TOP_PAIR,):
        X, Y = kx(rng, *sx, den), ky(rng, *sy, den)
        is_dense = kx is dense and ky is dense
        t = lcm(sx[0], sy[0])
        top = (sx, sy) == TOP_PAIR[:2]
        x, y = class_call("class_add", X, Y, O.lplus, t, is_dense)
        if not top:
            class_call("class_sub", X, Y, O.lminus, t, is_dense)
        for op, want in (("inner", O.inner),) if top else (("inner", O.inner), ("dist", O.dist)):
            calls.append(Call(
                op, lambda op=op, x=x, y=y: getattr(st, op)(x, y),
                lambda r, X=X, Y=Y, want=want: r == want(O.canonical(X), O.canonical(Y)), t, dense=is_dense,
            ))
    for shape, kind in SCALED:
        X = kind(rng, *shape, 97)
        c = _nonzero(rng, 7)
        x = klass(X)
        calls.append(Call(
            "scalar_mul", lambda c=c, x=x: st.scalar_mul(c, x),
            lambda r, X=X, c=c, mu=x.mu: r.mu == mu and O.same_class(r.rep.to_lists(), O.scale(c, X)),
            len(X), dense=kind is dense,
        ))
    X = dense(rng, 4, 4)
    x = klass(X)
    calls.append(Call(
        "scalar_mul", lambda x=x: st.scalar_mul(0, x),
        lambda r, X=X: r.mu == 1 and O.same_class(r.rep.to_lists(), O.scale(0, X)), 4,
    ))
    for op, want in (("class_mul", O.ltimes), ("lie_bracket", bracket)):
        for sx, sy in MUL_PAIRS:
            if op == "lie_bracket" and (sx[0] != sx[1] or sy[0] != sy[1]):
                continue  # the bracket is defined for ratio 1 only
            X, Y = dense(rng, *sx), dense(rng, *sy)
            class_call(op, X, Y, want, lcm(sx[1], sy[0]), True)
    for shape, k, kind in CANON:
        X = kind(rng, *shape, 97)
        L = st.from_rows(O.lift(X, k))
        calls.append(Call(
            "canonicalize", lambda L=L: st.canonicalize(L),
            lambda r, X=X, k=k: r.mu == Fraction(len(X), len(X[0])) and O.same_class(r.rep.to_lists(), O.lift(X, k)),
            len(X) * k, dense=kind is dense, reducible=k > 1,
        ))
    for shape, ka, kb, same in EQUIV:
        X = dense(rng, *shape)
        Y = X if same else [row[:] for row in X]
        if not same:
            Y[0][0] += 1
        A, B = st.from_rows(O.lift(X, ka)), st.from_rows(O.lift(Y, kb))
        calls.append(Call(
            "equivalent", lambda A=A, B=B: st.equivalent(A, B), lambda r, same=same: r is same,
            len(X) * max(ka, kb), reducible=True,
        ))
    for op, want in (("ltimes", O.ltimes), ("rtimes", O.rtimes)):
        for sa, sb in RAW_PRODUCTS:
            X, Y = dense(rng, *sa, 97), dense(rng, *sb, 97)
            A, B = st.from_rows(X), st.from_rows(Y)
            calls.append(Call(
                op, lambda op=op, A=A, B=B: getattr(st, op)(A, B),
                lambda r, X=X, Y=Y, want=want: r.to_lists() == want(X, Y), lcm(sa[1], sb[0]),
            ))
    for op, want in (("lplus", O.lplus), ("lminus", O.lminus)):
        for sa, sb in RAW_SUMS:
            X, Y = dense(rng, *sa), unit(rng, *sb)
            A, B = st.from_rows(X), st.from_rows(Y)
            calls.append(Call(
                op, lambda op=op, A=A, B=B: getattr(st, op)(A, B),
                lambda r, X=X, Y=Y, want=want: r.to_lists() == want(X, Y), lcm(sa[0], sb[0]),
                dense=False,
            ))
    return Workload(calls, [c for c in calls if c.t <= 6])


# --- basis_exact --------------------------------------------------------

# Round trips (mu, k0, kind): dense and sparse representatives.
TRIPS = (
    [(Fraction(1), k, "dense") for k in range(1, 13)]
    + [(Fraction(1), k, "sparse") for k in (4, 6, 8, 12)]
    + [(Fraction(2), k, "dense") for k in (2, 3, 4)]
    + [(Fraction(2, 3), k, "dense") for k in (2, 3)]
    + [(Fraction(1, 2), 6, "sparse")]
)


def _index_ok(mu, idx):
    k, l, i, j1, j2 = idx
    if not (1 <= k <= mu.numerator and 1 <= l <= mu.denominator and 1 <= j1 <= i and 1 <= j2 <= i):
        return False
    return gcd(i, j1) == 1 if j1 == j2 else i >= 2 and gcd(i, j1, j2) == 1


def _terms_of(coords):
    return [((e.k, e.l, e.i, e.j1, e.j2), c) for e, c in coords.terms.items()]


def basis_exact(rng, st):
    calls = []

    def klass(lists):
        return st.canonicalize(st.from_rows(lists))

    def coords_match(r, X, mu):
        terms = _terms_of(r)
        if r.mu != mu or not all(_index_ok(mu, idx) and c != 0 for idx, c in terms):
            return False
        if not terms:
            return all(v == 0 for row in X for v in row)
        got = O.combination(mu, terms, rows=len(X))
        return got == O.lift(X, len(got) // len(X))

    for mu, k0, kind in TRIPS:
        p, q = mu.numerator, mu.denominator
        m, n = k0 * p, k0 * q
        X = dense(rng, m, n) if kind == "dense" else sparse(rng, m, n, 3, 7)
        x = klass(X)
        slot = Slot()

        def decompose(x=x, slot=slot):
            slot.value = st.decompose_class(x)
            return slot.value

        calls.append(Call("decompose_class", decompose, lambda r, X=X, mu=mu: coords_match(r, X, mu),
                          m, dense=kind == "dense"))
        calls.append(Call("reconstruct", lambda slot=slot: st.reconstruct(slot.value),
                          lambda r, x=x: r == x, m, dense=kind == "dense"))

    # Generated coordinates, one set per ratio, over basis indices with the
    # given i values.
    generated = ((Fraction(1), (2, 3, 4, 5, 6)), (Fraction(2, 3), (2, 3, 4)), (Fraction(2), (1, 3, 5, 5)))
    for mu, sizes in generated:
        picks = pick_by_i(rng, mu, sizes)
        terms = [(idx, _nonzero(rng, 5)) for idx in picks]
        coords = st.Coordinates(mu, {st.BasisElement(mu, *idx): c for idx, c in terms})
        R = lcm(*(mu.numerator * idx[2] for idx in picks))
        calls.append(Call(
            "reconstruct", lambda coords=coords: st.reconstruct(coords),
            lambda r, mu=mu, terms=terms: r.mu == mu and O.same_class(r.rep.to_lists(), O.combination(mu, terms)),
            R, dense=False,
        ))

    for mu, i_max in ((Fraction(1), 6), (Fraction(2, 3), 3)):
        want = sorted(O.basis_indices(mu, i_max))
        calls.append(Call(
            "enumerate_basis", lambda mu=mu, i_max=i_max: st.enumerate_basis(mu, i_max),
            lambda r, want=want: sorted((e.k, e.l, e.i, e.j1, e.j2) for e in r) == want,
            mu.numerator * lcm(*range(1, i_max + 1)), dense=False,
        ))

    units = {}

    def unit_cls(mu, idx):
        if (mu, idx) not in units:
            units[(mu, idx)] = klass(O.unit(mu, *idx))
        return units[(mu, idx)]

    def combo_class(mu, picks):
        return klass(spread(mu, [(idx, _nonzero(rng, 5)) for idx in picks]))

    def span_calls(mu, i_max, kinds):
        """Span checks over the basis family with i <= i_max whose verdicts
        follow from the basis theorem: the family is independent ("indep"),
        a combination of members is in its span ("in"), a combination using
        a dropped member is not in the span of the rest ("out"), and the
        family plus a combination of members is dependent ("dep")."""
        family = O.basis_indices(mu, i_max)
        t = mu.numerator * lcm(*range(1, i_max + 1))
        fam = [unit_cls(mu, idx) for idx in family]
        if "indep" in kinds:
            calls.append(Call("independent", lambda: st.independent(fam), lambda r: r is True, t, dense=False))
        if "in" in kinds:
            inside = combo_class(mu, rng.sample(family, 8))
            calls.append(Call("in_span", lambda: st.in_span(inside, fam), lambda r: r is True, t, dense=False))
        if "out" in kinds:
            dropped = rng.choice([idx for idx in family if idx[2] >= 2])
            rest = [idx for idx in family if idx != dropped]
            outside = combo_class(mu, [dropped] + rng.sample(rest, 3))
            rest_cls = [unit_cls(mu, idx) for idx in rest]
            calls.append(Call("in_span", lambda: st.in_span(outside, rest_cls), lambda r: r is False, t,
                              dense=False))
        if "dep" in kinds:
            dependent = fam + [combo_class(mu, rng.sample(family, 4))]
            calls.append(Call("independent", lambda: st.independent(dependent), lambda r: r is False, t,
                              dense=False))

    one = Fraction(1)
    span_calls(one, 6, ("indep",))
    span_calls(one, 4, ("in", "out", "dep"))
    span_calls(Fraction(2, 3), 3, ("indep", "in", "out"))

    # Random class sets: triangular combinations of distinct basis units are
    # independent; replacing the last member by a combination of the others
    # makes the set dependent.
    for verdict in (True, True, True, False, False):
        picks = pick_by_i(rng, one, (2, 3, 4, 5, 6, 6))
        members = []
        for j, idx in enumerate(picks):
            members.append([(idx, _nonzero(rng, 5))] + [(p, _nonzero(rng, 5)) for p in picks[:j]])
        if not verdict:
            members[-1] = [(idx, _nonzero(rng, 5)) for idx in picks[:3]]
        classes = [klass(spread(one, m)) for m in members]
        R = lcm(*(x.rep.rows for x in classes))
        calls.append(Call("independent", lambda classes=classes: st.independent(classes),
                          lambda r, v=verdict: r is v, R))
    return Workload(calls, [c for c in calls if c.t <= 4])


# --- cauchy_float -------------------------------------------------------

CAUCHY_SEEDS = ((1, 1, 7), (1, 2, 7), (2, 1, 7), (2, 2, 7), (1, 3, 7), (3, 1, 7), (1, 1, 8))


def oracle_sequence(a1, n_max):
    out = [a1]
    for n in range(2, n_max + 1):
        fill = math.exp(-(2.0 ** (n - 1)))
        out.append([[v if v != 0.0 else fill for v in row] for row in O.lift(out[-1], 2)])
    return out


def gap_ok(measured, n, p, q):
    predicted = math.sqrt(2.0 ** (2 * n - 1) * p * q) * math.exp(-(2.0 ** n))
    return abs(measured - predicted) <= 1e-12 * predicted


def probe_ok(values, m, count):
    floor = math.exp(-(2.0 ** m))
    return (len(values) == count and all(v > floor for v in values)
            and all(a <= b for a, b in zip(values, values[1:])))


def cauchy_float(rng, st):
    calls = []
    for p, q, n_max in CAUCHY_SEEDS:
        a1 = floats(rng, p, q)
        cfg = st.CauchyConfig(st.from_rows(a1, st.FLOAT64), n_max)
        t = p * 2 ** (n_max - 1)
        slot = Slot()

        def sequence(cfg=cfg, slot=slot):
            slot.value = st.cauchy_sequence(cfg)
            return slot.value

        def seq_ok(r, a1=a1, n_max=n_max, p=p, q=q):
            want = oracle_sequence(a1, n_max)
            return len(r) == n_max and all(
                x.mu == Fraction(p, q) and x.rep.to_lists() == w for x, w in zip(r, want)
            )

        def gaps_ok(r, n_max=n_max, p=p, q=q):
            return len(r) == n_max - 1 and all(
                g.n == n and (g.rows, g.cols) == (p * 2 ** (n - 1), q * 2 ** (n - 1))
                and gap_ok(g.gap_measured, n, p, q)
                for n, g in enumerate(r, start=1)
            )

        calls.append(Call("cauchy_sequence", sequence, seq_ok, t, scalar="float64"))
        calls.append(Call("gap_reports", lambda slot=slot: st.gap_reports(slot.value), gaps_ok, t,
                          scalar="float64"))
        for m in range(1, n_max - 1):
            calls.append(Call(
                "nonconvergence_probe", lambda slot=slot, m=m: st.nonconvergence_probe(slot.value, m),
                lambda r, m=m, n_max=n_max: probe_ok(r, m, n_max - m - 1), t, scalar="float64",
            ))
    # warm-up: the first seed's chain, which is n_max calls long
    return Workload(calls, calls[:CAUCHY_SEEDS[0][2]])


# --- cli_small ----------------------------------------------------------

def _fmt(v):
    return repr(v) if isinstance(v, float) else str(v)


def _matrix_json(X):
    kind = "float64" if isinstance(X[0][0], float) else "rational"
    data = [v if kind == "float64" else str(v) for row in X for v in row]
    return json.dumps({"rows": len(X), "cols": len(X[0]), "scalar": kind, "data": data})


def _matrix_csv(X):
    return "".join(",".join(_fmt(v) for v in row) + "\n" for row in X)


def parse_matrix_json(d):
    if not isinstance(d, dict) or d.get("scalar") not in ("rational", "float64"):
        raise ValueError("not a matrix object")
    conv = Fraction if d["scalar"] == "rational" else float
    rows, cols, data = d["rows"], d["cols"], [conv(v) for v in d["data"]]
    if len(data) != rows * cols:
        raise ValueError("bad matrix data length")
    return [data[i * cols:(i + 1) * cols] for i in range(rows)]


def parse_rational_csv(text):
    return [[Fraction(c) for c in line.split(",")] for line in text.strip().splitlines()]


def _finite(X):
    return all(not isinstance(v, float) or math.isfinite(v) for row in X for v in row)


def matches(got, want):
    if not _finite(got):
        return False
    if isinstance(want[0][0], float):
        return O.lists_close(got, want)
    return got == want


def bracket(X, Y):
    return O.lminus(O.ltimes(X, Y), O.ltimes(Y, X))


def class_matches(d, want_lifted):
    """A class JSON object whose representative is ``want_lifted``'s class."""
    rep = parse_matrix_json(d["rep"])
    p = Fraction(d["mu"]).numerator
    if d["k0"] != len(rep) // p or Fraction(len(rep), len(rep[0])) != Fraction(d["mu"]):
        return False
    if isinstance(rep[0][0], float):
        return _finite(rep) and O.lists_close(rep, O.canonical(want_lifted))
    return O.same_class(rep, want_lifted)


def cli_small(rng, st, workdir):
    """Verbs of the command line run in process over files in ``workdir``.

    The ``bench`` verb is left out: it times the library instead of using
    it, and its output is timings that no oracle can check.
    """
    import semitensor.cli as cli

    os.makedirs(workdir, exist_ok=True)
    calls = []
    counter = iter(range(10**6))

    def put(text, ext):
        path = os.path.join(workdir, f"in{next(counter)}.{ext}")
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def jfile(X):
        return put(_matrix_json(X), "json")

    def cfile(X):
        return put(_matrix_csv(X), "csv")

    def invoke(argv):
        out, err = _stdio.StringIO(), _stdio.StringIO()
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, err
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        finally:
            sys.stdout, sys.stderr = saved
        return code, out.getvalue(), err.getvalue()

    def add(op, argv, check, t, scalar="rational", expect=0, out_path=None, dense=True, reducible=False):
        def after(raw, out_path=out_path):
            code, out, err = raw
            text = None
            if out_path is not None and os.path.exists(out_path):
                with open(out_path) as fh:
                    text = fh.read()
                os.remove(out_path)
            return code, out, err, text

        def full_check(res, expect=expect):
            code, out, err, text = res
            if code != expect:
                return False
            if expect != 0:
                lines = err.strip().splitlines()
                if out or not lines:
                    return False
                msg = O.strict_json_loads(lines[-1])
                return msg.get("error") == ("domain" if expect == 1 else "parse")
            return check(text if out_path is not None else out)

        calls.append(Call(op, lambda argv=argv: invoke(argv), full_check, t, scalar=scalar,
                          dense=dense, reducible=reducible, after=after))

    def outfile(ext):
        return os.path.join(workdir, f"out{next(counter)}.{ext}")

    def json_matrix(want, *args):
        return lambda text: matches(parse_matrix_json(O.strict_json_loads(text)), want(*args))

    def csv_matrix(want, *args):
        return lambda text: matches(parse_rational_csv(text), want(*args))

    # semi-tensor products
    A, B = dense(rng, 2, 4), dense(rng, 6, 2)
    add("stp", ["stp", jfile(A), cfile(B)], json_matrix(O.ltimes, A, B), 12)
    A2, B2 = dense(rng, 3, 2), unit(rng, 4, 3)
    add("stp", ["--format", "csv", "stp", "--right", cfile(A2), jfile(B2)],
        csv_matrix(O.rtimes, A2, B2), 4, dense=False)
    Af, Bf = floats(rng, 3, 2), floats(rng, 4, 3)
    add("stp", ["--scalar", "float64", "stp", cfile(Af), jfile(Bf)],
        json_matrix(O.ltimes, Af, Bf), 4, scalar="float64")
    # semi-tensor additions
    S1, S2 = dense(rng, 2, 2), dense(rng, 3, 3)
    add("sta", ["sta", jfile(S1), cfile(S2)], json_matrix(O.lplus, S1, S2), 6)
    S3, S4 = dense(rng, 4, 4), unit(rng, 6, 6)
    add("sta", ["--format", "csv", "sta", "--minus", jfile(S3), jfile(S4)],
        csv_matrix(O.lminus, S3, S4), 12, dense=False)
    S5, S6 = dense(rng, 2, 4), dense(rng, 3, 6)
    path = outfile("json")
    add("sta", ["--out", path, "sta", "--right", cfile(S5), cfile(S6)],
        json_matrix(O.rplus, S5, S6), 6, out_path=path)
    F1, F2 = floats(rng, 2, 2), floats(rng, 4, 4)
    add("sta", ["--scalar", "float64", "sta", "--minus", "--right", jfile(F1), cfile(F2)],
        json_matrix(O.rminus, F1, F2), 4, scalar="float64")
    # canonical forms
    X1 = dense(rng, 2, 2)
    L1 = O.lift(X1, 3)
    add("canon", ["canon", jfile(L1)], lambda text, L=L1: class_matches(O.strict_json_loads(text), L), 6,
        reducible=True)
    U1 = unit(rng, 3, 3)
    L2 = O.lift(U1, 4)
    path = outfile("json")
    add("canon", ["--out", path, "canon", cfile(L2)],
        lambda text, L=L2: class_matches(O.strict_json_loads(text), L), 12, out_path=path, dense=False,
        reducible=True)
    Xf = floats(rng, 2, 3)
    L3 = O.lift(Xf, 2)
    add("canon", ["--scalar", "float64", "canon", cfile(L3)],
        lambda text, L=L3: class_matches(O.strict_json_loads(text), L), 4, scalar="float64", reducible=True)
    # equivalence
    E1 = dense(rng, 2, 2)
    E2 = [row[:] for row in E1]
    E2[1][0] += 1
    for a, b, same, t in ((O.lift(E1, 2), O.lift(E1, 3), True, 6), (O.lift(E1, 2), O.lift(E2, 3), False, 6)):
        add("equiv", ["equiv", jfile(a), cfile(b)],
            lambda text, same=same: O.strict_json_loads(text) == {"equivalent": same}, t, reducible=True)
    Ef = floats(rng, 2, 2)
    add("equiv", ["--scalar", "float64", "equiv", cfile(O.lift(Ef, 2)), jfile(O.lift(Ef, 4))],
        lambda text: O.strict_json_loads(text) == {"equivalent": True}, 8, scalar="float64", reducible=True)
    # coordinates
    def coords_check(X):
        def check(text):
            d = O.strict_json_loads(text)
            mu = Fraction(d["mu"])
            terms = [((t["k"], t["l"], t["i"], t["j1"], t["j2"]), Fraction(t["coeff"])) for t in d["terms"]]
            if not all(_index_ok(mu, idx) for idx, _ in terms):
                return False
            got = O.combination(mu, terms, rows=len(X))
            return got == O.lift(X, len(got) // len(X))
        return check

    D1, D2, D3, D4 = dense(rng, 4, 4), sparse(rng, 6, 6, 3), O.lift(dense(rng, 2, 2), 3), dense(rng, 12, 12)
    add("decompose", ["decompose", jfile(D1)], coords_check(D1), 4)
    add("decompose", ["decompose", cfile(D4)], coords_check(D4), 12)
    path = outfile("json")
    add("decompose", ["--out", path, "decompose", cfile(D2)], coords_check(D2), 6, out_path=path,
        dense=False)
    add("decompose", ["decompose", jfile(D3)], coords_check(D3), 6, reducible=True)
    for mu, sizes in ((Fraction(1), (2, 3, 4)), (Fraction(2, 3), (2, 3, 3))):
        picks = pick_by_i(rng, mu, sizes)
        terms = [(idx, _nonzero(rng, 5)) for idx in picks]
        doc = {"mu": str(mu), "terms": [
            {"k": k, "l": l, "i": i, "j1": j1, "j2": j2, "coeff": str(c)} for (k, l, i, j1, j2), c in terms
        ]}
        add("reconstruct", ["reconstruct", put(json.dumps(doc), "json")],
            lambda text, mu=mu, terms=terms: class_matches(O.strict_json_loads(text), O.combination(mu, terms)),
            lcm(*(mu.numerator * idx[2] for idx in picks)), dense=False)
    # bracket, pairing, distance
    B1, B2 = dense(rng, 2, 2), dense(rng, 3, 3)
    add("bracket", ["bracket", jfile(B1), cfile(B2)],
        lambda text, X=B1, Y=B2: class_matches(O.strict_json_loads(text), bracket(X, Y)), 6)
    B3, B4 = dense(rng, 4, 4), dense(rng, 6, 6)
    add("bracket", ["bracket", cfile(B3), jfile(B4)],
        lambda text, X=B3, Y=B4: class_matches(O.strict_json_loads(text), bracket(X, Y)), 12)
    Bf1, Bf2 = floats(rng, 2, 2), floats(rng, 4, 4)
    add("bracket", ["--scalar", "float64", "bracket", jfile(Bf1), jfile(Bf2)],
        lambda text, X=Bf1, Y=Bf2: class_matches(O.strict_json_loads(text), bracket(X, Y)),
        4, scalar="float64")

    def value_check(want, *args):
        def check(text):
            v = O.strict_json_loads(text)["value"]
            w = want(*args)
            return Fraction(v) == w if isinstance(w, Fraction) else O.close(float(v), w)
        return check

    I1, I2 = dense(rng, 3, 3), dense(rng, 4, 4)
    add("inner", ["inner", jfile(I1), cfile(I2)], value_check(O.inner, I1, I2), 12)
    If1, If2 = floats(rng, 2, 2), floats(rng, 6, 6)
    add("inner", ["--scalar", "float64", "inner", cfile(If1), jfile(If2)],
        value_check(O.inner, If1, If2), 6, scalar="float64")
    T1, T2 = dense(rng, 2, 2), dense(rng, 3, 3)
    add("dist", ["dist", jfile(T1), jfile(T2)], value_check(O.dist, T1, T2), 6)
    Tf1, Tf2 = floats(rng, 4, 4), floats(rng, 6, 6)
    add("dist", ["--scalar", "float64", "dist", cfile(Tf1), cfile(Tf2)],
        value_check(O.dist, Tf1, Tf2), 12, scalar="float64")
    # the experiment
    def cauchy_check(p, q, n_max):
        def check(text):
            lines = text.strip().splitlines()
            if lines[0] != "n,rows,cols,gap_measured,gap_predicted,rel_err" or len(lines) != 2 * n_max - 2:
                return False
            for n, line in enumerate(lines[1:n_max], start=1):
                cells = line.split(",")
                vals = [float(c) for c in cells[3:]]
                if [int(c) for c in cells[:3]] != [n, p * 2 ** (n - 1), q * 2 ** (n - 1)]:
                    return False
                if not all(map(math.isfinite, vals)) or not gap_ok(vals[0], n, p, q):
                    return False
            return all(line.startswith(f"probe m={m}:") and line.endswith(" ok")
                       for m, line in enumerate(lines[n_max:], start=1))
        return check

    C1 = floats(rng, 1, 2)
    add("cauchy", ["cauchy", "--a1", json.dumps(C1), "--nmax", "4"], cauchy_check(1, 2, 4), 8, scalar="float64")
    C2 = floats(rng, 2, 2)
    add("cauchy", ["cauchy", "--a1", cfile(C2), "--nmax", "3"], cauchy_check(2, 2, 3), 8, scalar="float64")
    # basis listing
    for mu, i_max in ((Fraction(1), 4), (Fraction(2, 3), 2)):
        want = sorted(O.basis_indices(mu, i_max))
        add("basis-list", ["basis-list", "--mu", str(mu), "--imax", str(i_max)],
            lambda text, want=want: sorted(
                (e["k"], e["l"], e["i"], e["j1"], e["j2"]) for e in O.strict_json_loads(text)["elements"]
            ) == want,
            mu.numerator * i_max, dense=False)
    # documented error cases: ratio mismatch and a float decompose exit 1,
    # malformed or ragged input exits 2
    add("error", ["sta", jfile(dense(rng, 2, 2)), jfile(dense(rng, 2, 4))], None, 2, expect=1)
    add("error", ["--scalar", "float64", "decompose", cfile(floats(rng, 2, 2))], None, 2,
        scalar="float64", expect=1)
    add("error", ["canon", put('{"rows": 2, "cols": 2, "scalar": "rational", "data": [1, 2', "json")],
        None, 2, expect=2)
    add("error", ["stp", cfile(dense(rng, 2, 2)), put("1,2\n3\n", "csv")], None, 2, expect=2)
    add("error", ["canon", "[[1,2],[3]]"], None, 2, expect=2)

    def probes():
        """Documented exits for non-finite input; known to fail at the seed."""
        report = {}
        for label, argv, expect in (
            ("nan_input", ["--scalar", "float64", "canon", "[[NaN,0],[0,NaN]]"], 2),
            ("overflow_result", ["--scalar", "float64", "inner", "[[1e200]]", "[[1e200]]"], 1),
        ):
            code, out, err = invoke(argv)
            try:
                O.strict_json_loads(out or err.strip().splitlines()[-1])
                strict = True
            except (ValueError, IndexError):
                strict = False
            report[label] = {"argv": argv, "expected_exit": expect, "exit": code,
                             "strict_json": strict, "ok": code == expect and strict}
        return report

    return Workload(calls, list(calls), probes=probes,
                    cleanup=lambda: shutil.rmtree(workdir, ignore_errors=True))
