"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per
criterion. Each criterion computes its verdict in full before reporting,
so the pass/fail line always prints.
"""

import math
import random
from fractions import Fraction
from math import gcd, lcm

from helpers import (
    add,
    counting_entries,
    e_matrix,
    matmul,
    o_lplus,
    o_ltimes,
    o_rplus,
    o_rtimes,
    rand_lists,
    rand_matrix,
    as_matrix,
    ref_ltimes,
)

from semitensor import (
    BasisElement,
    CauchyConfig,
    FLOAT64,
    canonicalize,
    cauchy_sequence,
    class_add,
    class_mul,
    class_sub,
    decompose_class,
    decompose_unit,
    dist,
    enumerate_basis,
    from_rows,
    gap_reports,
    identity,
    in_span,
    independent,
    inner,
    kron,
    lie_bracket,
    lminus,
    lplus,
    ltimes,
    nonconvergence_probe,
    reconstruct,
    rminus,
    rplus,
    rtimes,
    scalar_mul,
    tail_bound,
    try_unkron,
    unit_class,
    zero_class,
    zeros,
)
from semitensor.matrix import scale


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}{tail}")
    assert ok, f"criterion {num} failed: {desc}{tail}"


def test_criterion_01_definitional_suite():
    rng = random.Random(1001)
    ok = True
    for _ in range(200):
        a = rand_lists(rng, rng.randint(1, 3), rng.randint(1, 3))
        b = rand_lists(rng, rng.randint(1, 3), rng.randint(1, 3))
        A, B = as_matrix(a), as_matrix(b)
        ok &= ltimes(A, B).to_lists() == o_ltimes(a, b)
        ok &= rtimes(A, B).to_lists() == o_rtimes(a, b)
        p, q = rng.randint(1, 2), rng.randint(1, 3)
        s, t = rng.randint(1, 3), rng.randint(1, 3)
        c = rand_lists(rng, s * p, s * q)
        d = rand_lists(rng, t * p, t * q)
        C, D = as_matrix(c), as_matrix(d)
        ok &= lplus(C, D).to_lists() == o_lplus(c, d)
        ok &= rplus(C, D).to_lists() == o_rplus(c, d)
        neg_d = [[-v for v in row] for row in d]
        ok &= lminus(C, D).to_lists() == o_lplus(c, neg_d)
        ok &= rminus(C, D).to_lists() == o_rplus(c, neg_d)
        n = rng.randint(1, 4)
        E = rand_matrix(rng, rng.randint(1, 4), n)
        F = rand_matrix(rng, n, rng.randint(1, 4))
        ok &= ltimes(E, F) == matmul(E, F)
    _report(1, "product/addition definitions vs independent expansion, 200 cases", ok)


def test_criterion_02_congruence():
    rng = random.Random(1002)
    ok = True
    mu = Fraction(2, 3)
    for _ in range(100):
        A0 = canonicalize(rand_matrix(rng, 2, 3)).rep
        B0 = canonicalize(rand_matrix(rng, 2, 3)).rep
        s, t, p, q = (rng.randint(1, 3) for _ in range(4))
        left = canonicalize(lplus(kron(A0, identity(s)), kron(B0, identity(p))))
        right = canonicalize(lplus(kron(A0, identity(t)), kron(B0, identity(q))))
        ok &= left == right and left.mu == mu
    for _ in range(100):
        A0 = canonicalize(rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))).rep
        B0 = canonicalize(rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))).rep
        s, t, p, q = (rng.randint(1, 3) for _ in range(4))
        left = canonicalize(ltimes(kron(A0, identity(s)), kron(B0, identity(p))))
        right = canonicalize(ltimes(kron(A0, identity(t)), kron(B0, identity(q))))
        ok &= left == right
    _report(2, "addition and product are class-invariant, 100 lift trials each", ok)


def test_criterion_03_vector_space_and_lie_axioms():
    rng = random.Random(1003)
    ok = True
    mu = Fraction(1, 2)

    def rnd_cls(m, max_k0=3):
        k0 = rng.randint(1, max_k0)
        return canonicalize(rand_matrix(rng, k0 * m.numerator, k0 * m.denominator))

    for _ in range(50):
        x, y, z = (rnd_cls(mu) for _ in range(3))
        c, d = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
        ok &= class_add(class_add(x, y), z) == class_add(x, class_add(y, z))
        ok &= class_add(x, y) == class_add(y, x)
        ok &= class_add(x, zero_class(mu)) == x
        ok &= class_add(x, scalar_mul(-1, x)) == zero_class(mu)
        ok &= scalar_mul(c, class_add(x, y)) == class_add(scalar_mul(c, x), scalar_mul(c, y))
        ok &= scalar_mul(c + d, x) == class_add(scalar_mul(c, x), scalar_mul(d, x))
    one = Fraction(1)
    for _ in range(50):
        x, y, z = (rnd_cls(one, max_k0=2) for _ in range(3))
        c = Fraction(rng.randint(-2, 2))
        ok &= lie_bracket(class_add(x, y), z) == class_add(lie_bracket(x, z), lie_bracket(y, z))
        ok &= lie_bracket(x, class_add(y, z)) == class_add(lie_bracket(x, y), lie_bracket(x, z))
        ok &= lie_bracket(scalar_mul(c, x), z) == scalar_mul(c, lie_bracket(x, z))
        ok &= class_add(lie_bracket(x, y), lie_bracket(y, x)) == zero_class(one)
        jac = class_add(
            class_add(lie_bracket(x, lie_bracket(y, z)), lie_bracket(y, lie_bracket(z, x))),
            lie_bracket(z, lie_bracket(x, y)),
        )
        ok &= jac == zero_class(one)
        ok &= class_mul(x, class_add(y, z)) == class_add(class_mul(x, y), class_mul(x, z))
    _report(3, "vector-space axioms and Lie axioms, 50 exact trials each", ok)


def _primes(n):
    """Distinct prime factors of n, ascending, by trial division."""
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))]


def _peel_descending(A):
    rep = A
    while True:
        g = gcd(rep.rows, rep.cols)
        for s in reversed(_primes(g)):
            peeled = try_unkron(rep, s)
            if peeled is not None:
                rep = peeled
                break
        else:
            return rep


def test_criterion_04_canonicalization():
    rng = random.Random(1004)
    ok = True
    for _ in range(200):
        A0 = canonicalize(rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))).rep
        s = rng.randint(2, 12)
        A = kron(A0, identity(s))
        asc = canonicalize(A).rep
        desc = _peel_descending(A)
        oneshot = try_unkron(A, s)
        ok &= asc == desc == A0
        ok &= oneshot == A0
        ok &= canonicalize(asc).rep == asc  # idempotent
    _report(4, "canonicalization: peel order, recovery, idempotence, 200 lifts", ok)


def test_criterion_05_basis_decomposition():
    rng = random.Random(1005)
    ok = True
    for mu in (Fraction(1), Fraction(1, 2), Fraction(2, 3)):
        for _ in range(12):
            k0 = rng.randint(1, 6)
            x = canonicalize(rand_matrix(rng, k0 * mu.numerator, k0 * mu.denominator))
            coords = decompose_class(x)
            for e in coords.terms:
                if e.j1 == e.j2:
                    ok &= gcd(e.i, e.j1) == 1
                else:
                    ok &= e.i >= 2 and gcd(e.i, e.j1, e.j2) == 1
            ok &= reconstruct(coords) == x
    # telescoping by explicit lifting, every unit index up to size 8
    for i in range(1, 9):
        for j1 in range(1, i + 1):
            for j2 in range(1, i + 1):
                coords = decompose_unit(Fraction(1), 1, 1, i, j1, j2)
                acc = zeros(i, i)
                for e, c in coords.terms.items():
                    lifted = kron(e_matrix(e.i, e.i, e.j1 - 1, e.j2 - 1), identity(i // e.i))
                    acc = add(acc, scale(c, lifted))
                ok &= acc == e_matrix(i, i, j1 - 1, j2 - 1)
    _report(5, "basis round trips, gcd conditions, telescoping up to size 8", ok)


def test_criterion_06_independence_and_witness():
    elems = enumerate_basis(Fraction(1), 4)
    family = [unit_class(e) for e in elems]
    lifts = 1
    for x in family:
        lifts = lcm(lifts, x.rep.rows)
    ok = lifts == 12 and independent(family)
    witness_target = unit_class(BasisElement(Fraction(1), 1, 1, 2, 1, 2))
    coarse = unit_class(BasisElement(Fraction(1), 1, 1, 1, 1, 1))
    ok &= not in_span(witness_target, [coarse])
    _report(6, "basis independence at truncation 4; non-generation witness", ok,
            f"{len(family)} elements, lift {lifts}")


def _worked_sequence(n_max):
    return cauchy_sequence(CauchyConfig(from_rows([[1.0, 2.0]], FLOAT64), n_max))


def test_criterion_07_gap_law():
    seq = _worked_sequence(7)
    c = 2.0 ** (-2.0 / math.log(2.0))
    d = 2.0 ** (-4.0 / math.log(2.0))
    expected_a2 = [[1.0, c, 2.0, c], [c, 1.0, c, 2.0]]
    expected_a3 = [
        [1.0, d, c, d, 2.0, d, c, d],
        [d, 1.0, d, c, d, 2.0, d, c],
        [c, d, 1.0, d, c, d, 2.0, d],
        [d, c, d, 1.0, d, c, d, 2.0],
    ]

    def close(got, want):
        return all(
            math.isclose(g, w, rel_tol=1e-12) for gr, wr in zip(got, want) for g, w in zip(gr, wr)
        )

    ok = close(seq[1].rep.to_lists(), expected_a2)
    ok &= close(seq[2].rep.to_lists(), expected_a3)
    reports = gap_reports(seq)
    ok &= [r.n for r in reports] == [1, 2, 3, 4, 5, 6]
    worst = max(r.rel_err for r in reports)
    ok &= worst <= 1e-12
    gaps = [r.gap_measured for r in reports]
    for n in range(1, len(seq)):
        ok &= sum(gaps[n - 1 :]) <= tail_bound(n, 1, 2)
    _report(7, "worked-example steps, gap law at 1e-12, geometric tail bound", ok,
            f"worst rel err {worst:.2e}")


def test_criterion_08_nonconvergence_probes():
    seq = _worked_sequence(7)
    ok = True
    for m in (1, 2):
        values = nonconvergence_probe(seq, m)
        floor = math.exp(-(2.0**m))
        ok &= all(v > floor for v in values)
        ok &= all(a <= b for a, b in zip(values, values[1:]))
    _report(8, "probe distances exceed their floor and are nondecreasing", ok)


def test_criterion_09_pinned_counterexamples():
    one = canonicalize(as_matrix([[1]]))
    dm = canonicalize(as_matrix([[1, 0], [0, -1]]))
    s = class_add(one, dm)
    ok = inner(s, one) == 2 and inner(one, one) + inner(dm, one) == 1
    d23 = canonicalize(as_matrix([[2, 0], [0, 3]]))
    z = zero_class(Fraction(1))
    ok &= inner(class_sub(d23, z), class_sub(d23, z)) == 13
    ok &= inner(class_sub(d23, one), class_sub(d23, one)) == 5
    ok &= inner(class_sub(one, z), class_sub(one, z)) == 1
    ok &= dist(d23, z) > dist(d23, one) + dist(one, z)
    _report(9, "pairing additivity and triangle-inequality failures reproduce", ok)


def test_criterion_10_kernels():
    rng = random.Random(1010)
    ok = True
    trials = 0
    while trials < 200:
        A = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        B = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        t = lcm(A.cols, B.rows)
        if t // A.cols > 12 or t // B.rows > 12:
            continue
        trials += 1
        ok &= ltimes(A, B) == ref_ltimes(A, B)
    extras = []
    for n, p in ((4, 9), (8, 9)):
        A, B = rand_matrix(rng, n, n), rand_matrix(rng, p, p)
        t = n * p
        with counting_entries() as naive:
            out = ref_ltimes(A, B)
        with counting_entries() as fast:
            out2 = ltimes(A, B)
        naive_alloc, fast_alloc = naive.entries, fast.entries
        out_elems = out.rows * out.cols
        ok &= out == out2
        ok &= naive_alloc - out_elems >= t * t
        ok &= fast_alloc == out_elems
        extras.append(f"t={t}: extra entries, reference {naive_alloc - out_elems}, "
                      f"lift-free {fast_alloc - out_elems}")
    _report(10, "lift-free product bit-equal on 200 trials, allocation bounds", ok,
            "; ".join(extras))


PUBLIC = [
    "ABS_FLOOR", "BasisElement", "CauchyConfig", "Coordinates", "DEFAULT_RTOL",
    "FLOAT64", "GapReport", "Matrix", "MatrixClass", "RATIONAL", "canonicalize",
    "cauchy_sequence", "class_add", "class_mul", "class_sub", "decompose_class",
    "decompose_unit", "dist", "enumerate_basis", "eq_within", "equivalent",
    "fill_value", "from_rows", "gap_reports", "identity", "in_span", "independent",
    "inner", "kron", "lie_bracket", "lminus", "lplus", "ltimes",
    "nonconvergence_probe", "norm", "predicted_gap", "ratio_of", "reconstruct",
    "rminus", "rplus", "rtimes", "scalar_mul", "scale", "tail_bound", "to_rational",
    "try_unkron", "unit_class", "zero_class", "zeros",
]


def test_public_surface_is_pinned():
    # a change to the package's API has to change this list too
    import semitensor

    assert sorted(semitensor.__all__) == PUBLIC
    removed = ("is_reducible", "gcd_chain", "GcdChain", "delta_n", "e_matrix", "to_float",
               "allocated_elems")
    for gone in removed:
        assert not hasattr(semitensor, gone), gone
    for name in PUBLIC:
        assert getattr(semitensor, name) is not None, name
