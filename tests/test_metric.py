"""Quotient pairing, norm, distance and the Cauchy-sequence experiment."""

import math
import random
from fractions import Fraction

import pytest

from helpers import as_matrix, rand_matrix, ref_delta_n, ref_norm

from semitensor import (
    CauchyConfig,
    FLOAT64,
    RATIONAL,
    Matrix,
    canonicalize,
    cauchy_sequence,
    class_add,
    class_sub,
    dist,
    fill_value,
    from_rows,
    gap_reports,
    identity,
    inner,
    kron,
    nonconvergence_probe,
    norm,
    predicted_gap,
    scalar_mul,
    tail_bound,
    zero_class,
)


def test_inner_examples():
    x = canonicalize(as_matrix([[1, 2]]))
    y = canonicalize(as_matrix([[3, 4]]))
    assert inner(x, y) == 11
    one = canonicalize(as_matrix([[1]]))
    d12 = canonicalize(as_matrix([[1, 0], [0, 2]]))
    assert inner(one, d12) == 3
    assert inner(one, one) == 1
    with pytest.raises(ValueError):
        inner(x, one)


def test_norm_examples():
    assert norm(zero_class(Fraction(1))) == 0.0
    assert norm(canonicalize(as_matrix([[1, 2]]))) == math.sqrt(5)
    assert norm(canonicalize(identity(6))) == 1.0


def _float_class(rows):
    return canonicalize(from_rows(rows, FLOAT64), rtol=0.0)


def test_float_norm_is_within_one_ulp_of_the_exact_norm():
    # classes whose entries span 1e-300 to 1e300, within one class or
    # around one magnitude, with +-0.0 and subnormals mixed in; the norm
    # against the correctly rounded square root of the exact sum of squares
    rng = random.Random(23)
    specials = (0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 2.2250738585072014e-308)
    for k in range(2400):
        rows, cols = rng.randint(1, 3), rng.randint(1, 4)
        base, spread = rng.randint(-300, 300), (0, 2, 30, 600)[k % 4]

        def entry():
            if rng.random() < 0.1:
                return rng.choice(specials)
            e = min(300, max(-300, base + rng.randint(-spread, spread)))
            return rng.uniform(-9.9, 9.9) * 10.0**e

        data = tuple(entry() for _ in range(rows * cols))
        x = canonicalize(Matrix(rows, cols, data, FLOAT64), rtol=0.0)
        got, want = norm(x), ref_norm(x.rep.data)
        assert abs(got - want) <= math.ulp(want), (x.rep.data, got, want)


def test_float_norm_has_no_intermediate_overflow_or_underflow():
    # the squares 1e400 and 9e-400, 16e-400 are out of binary64's range,
    # the norms are not
    assert norm(_float_class([[1e200]])) == 1e200
    assert norm(_float_class([[3e-200, 4e-200]])) == 5e-200
    assert norm(_float_class([[-1e300, 1e300]])) == ref_norm((-1e300, 1e300))
    assert dist(_float_class([[1e200]]), _float_class([[-1e200]]), rtol=0.0) == 2e200


def test_float_norm_non_finite_rule():
    # an infinity gives inf even next to a NaN (hypot's IEEE rule); a NaN
    # alone gives nan
    for rows in ([[math.inf, math.nan]], [[math.nan, -math.inf]], [[-math.inf, 1.0]]):
        assert norm(_float_class(rows)) == math.inf
    assert math.isnan(norm(_float_class([[math.nan, 1.0]])))


def test_exact_norm_is_the_root_of_the_self_pairing():
    # bit for bit, with one common denominator over primes near 10^4
    rng = random.Random(29)
    dens = (1, 2, 3, 7, 9, 97, 9973, 10007, 10009)
    for _ in range(400):
        (p, q), k = rng.choice(((1, 1), (1, 2), (2, 3), (3, 2))), rng.randint(1, 2)
        rows, cols = p * k, q * k
        x = canonicalize(from_rows([[Fraction(rng.randint(-9, 9) * (rng.random() < 0.6),
                                              rng.choice(dens)) for _ in range(cols)]
                                    for _ in range(rows)]))
        assert norm(x) == math.sqrt(inner(x, x))


def test_dist_examples():
    d23 = canonicalize(as_matrix([[2, 0], [0, 3]]))
    one = canonicalize(as_matrix([[1]]))
    assert dist(d23, d23) == 0.0
    assert dist(d23, one) == math.sqrt(5)


# nested and coprime pairs of sizes, t = lcm up to 64
DIST_SIZES = [(1, 1), (1, 2), (2, 4), (1, 64), (4, 32), (16, 64), (2, 3), (3, 4), (4, 9), (7, 8)]


@pytest.mark.parametrize("m, n", DIST_SIZES, ids=[f"{m}x{n}" for m, n in DIST_SIZES])
@pytest.mark.parametrize("rtol", [0.0, None], ids=["rtol0", "default_rtol"])
def test_dist_in_either_order_is_the_norm_of_either_difference(m, n, rtol):
    # dist subtracts toward the class with more rows; the difference the
    # other way is its negation, with the same level and the same norm,
    # so both orders give the caller-order difference's norm bit for bit.
    rng = random.Random(131 * m + n)
    pool = (0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0)
    for trial in range(12):
        special = trial % 3
        def entry():
            if special and rng.random() < 0.15 * special:
                return rng.choice(pool)
            return rng.uniform(-2, 2) * (rng.random() < 0.8)
        x, y = (canonicalize(from_rows([[entry() for _ in range(k)] for _ in range(k)], FLOAT64),
                             rtol=0.0) for k in (m, n))
        want = repr(norm(class_sub(x, y, rtol)))
        assert repr(norm(class_sub(y, x, rtol))) == want
        assert repr(dist(x, y, rtol)) == want
        assert repr(dist(y, x, rtol)) == want


def test_dist_checks_its_operands_in_the_callers_order():
    one = canonicalize(as_matrix([[1]]))
    half = canonicalize(as_matrix([[1, 2, 0, 0], [0, 3, 0, 1]]))
    assert half.rep.rows > one.rep.rows
    with pytest.raises(ValueError, match="^classes live in different spaces: 1 vs 1/2$"):
        dist(one, half)
    with pytest.raises(ValueError, match="^classes live in different spaces: 1/2 vs 1$"):
        dist(half, one)
    f = canonicalize(from_rows([[1.0]], FLOAT64))
    r = canonicalize(as_matrix([[1, 2], [3, 4]]))
    assert r.scalar == RATIONAL and r.rep.rows > f.rep.rows
    with pytest.raises(ValueError, match="^scalar kinds differ: float64 vs rational$"):
        dist(f, r)
    with pytest.raises(ValueError, match="^scalar kinds differ: rational vs float64$"):
        dist(r, f)


def test_pinned_inner_additivity_failure():
    # pairing with a fixed class is not additive: the sum class collapses
    # to a smaller representative and pairs differently
    one = canonicalize(as_matrix([[1]]))
    dm = canonicalize(as_matrix([[1, 0], [0, -1]]))
    s = class_add(one, dm)
    assert s.rep == as_matrix([[2, 0], [0, 0]])
    assert inner(s, one) == 2
    assert inner(one, one) + inner(dm, one) == 1


def test_pinned_triangle_failure():
    # 13 > (sqrt5 + 1)^2 = 6 + 2 sqrt5  <=>  49 > 20, checked exactly
    d23 = canonicalize(as_matrix([[2, 0], [0, 3]]))
    one = canonicalize(as_matrix([[1]]))
    z = zero_class(Fraction(1))
    from semitensor import class_sub

    assert inner(class_sub(d23, z), class_sub(d23, z)) == 13
    assert inner(class_sub(d23, one), class_sub(d23, one)) == 5
    assert inner(class_sub(one, z), class_sub(one, z)) == 1
    assert Fraction(13 - 5 - 1, 2) ** 2 > 5  # (7/2)^2 > 5 <=> sqrt13 > sqrt5 + 1
    assert dist(d23, z) > dist(d23, one) + dist(one, z)


def test_metric_symmetry_and_separation():
    rng = random.Random(211)
    for _ in range(15):
        s, t = rng.randint(1, 3), rng.randint(1, 3)
        x = canonicalize(rand_matrix(rng, s, 2 * s))
        y = canonicalize(rand_matrix(rng, t, 2 * t))
        assert inner(x, y) == inner(y, x)
        assert dist(x, y) == dist(y, x)
        assert (dist(x, y) == 0.0) == (x == y)
        c = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        assert math.isclose(norm(scalar_mul(c, x)), float(c) * norm(x), rel_tol=1e-12)
        assert inner(x, x) == sum(v * v for v in x.rep.data)


def test_fill_value_closed_form():
    # 1 / 2^(2^(n-1)/ln 2) is exactly exp(-2^(n-1))
    for n in range(1, 9):
        alt = 2.0 ** (-(2.0 ** (n - 1)) / math.log(2.0))
        assert math.isclose(fill_value(n), alt, rel_tol=1e-12)


def _worked_sequence(n_max=7):
    return cauchy_sequence(CauchyConfig(from_rows([[1.0, 2.0]], FLOAT64), n_max))


def test_sequence_matches_worked_example():
    seq = _worked_sequence(3)
    c = fill_value(2)
    d = fill_value(3)
    assert seq[1].rep.to_lists() == [
        [1.0, c, 2.0, c],
        [c, 1.0, c, 2.0],
    ]
    assert seq[2].rep.to_lists() == [
        [1.0, d, c, d, 2.0, d, c, d],
        [d, 1.0, d, c, d, 2.0, d, c],
        [c, d, 1.0, d, c, d, 2.0, d],
        [d, c, d, 1.0, d, c, d, 2.0],
    ]


def test_sequence_generation_rules():
    seq = _worked_sequence(6)
    for n, cls in enumerate(seq, start=1):
        assert cls.rep.shape == (2 ** (n - 1), 2**n)
        assert canonicalize(cls.rep, rtol=0.0).rep == cls.rep
        assert cls.mu == Fraction(1, 2)
    # second step is the fill of the lifted first step
    assert seq[1].rep == ref_delta_n(kron(seq[0].rep, identity(2, FLOAT64)), 2)


@pytest.mark.parametrize("seed", [
    [[-1.5]],
    [[1.0, -2.0]],
    [[-3.0], [0.25]],
    [[1.0, -2.0, 3.0], [-4.0, 0.1, -1e-300]],
], ids=["1x1", "1x2", "2x1", "2x3"])
def test_every_step_is_the_fill_of_the_lifted_step(seed):
    # kron gives a negative entry times 0.0 = -0.0 off the diagonal, which
    # the fill must replace like 0.0; compared bit for bit
    seq = cauchy_sequence(CauchyConfig(from_rows(seed, FLOAT64), 8))
    for n in range(2, 9):
        lifted = kron(seq[n - 2].rep, identity(2, FLOAT64))
        assert repr(seq[n - 1].rep) == repr(ref_delta_n(lifted, n)), n


def test_cauchy_config_validation():
    with pytest.raises(ValueError):
        CauchyConfig(from_rows([[1.0, 0.0]], FLOAT64), 3)
    with pytest.raises(ValueError):
        CauchyConfig(from_rows([[1.0]], FLOAT64), 10)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            CauchyConfig(from_rows([[1.0, bad]], FLOAT64), 3)
    with pytest.raises(ValueError):
        CauchyConfig(as_matrix([[1, 2]]), 3)


def test_cauchy_config_checks_size_before_building():
    # a 13 x 13 seed ends at 13 * 2^8 = 3328 rows at n_max 9: 11,075,584
    # entries, over the budget; at n_max 8 it ends at 1664 x 1664
    seed = from_rows([[1.0] * 13] * 13, FLOAT64)
    with pytest.raises(ValueError, match="budget"):
        CauchyConfig(seed, 9)
    assert CauchyConfig(seed, 8).n_max == 8


def test_predicted_gap_examples():
    assert math.isclose(predicted_gap(1, 1, 2), 2 * math.exp(-2), rel_tol=1e-15)
    assert math.isclose(predicted_gap(2, 1, 2), 4 * math.exp(-4), rel_tol=1e-15)
    gaps = [predicted_gap(n, 1, 2) for n in range(1, 8)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    with pytest.raises(ValueError, match="n must be >= 1"):
        predicted_gap(0, 1, 1)


def test_gap_law():
    seq = _worked_sequence(7)
    assert gap_reports(seq[:1]) == []
    for r in gap_reports(seq):
        assert r.rel_err <= 1e-12, f"gap law off at n={r.n}: rel={r.rel_err}"


def test_tail_bound_majorizes_gap_sums():
    # the geometric closed form dominates every summed tail of measured
    # consecutive gaps
    seq = _worked_sequence(7)
    gaps = [r.gap_measured for r in gap_reports(seq)]
    for n in range(1, len(seq)):
        assert sum(gaps[n - 1 :]) <= tail_bound(n, 1, 2)


def test_tail_bound_holds_for_nearby_pairs():
    seq = _worked_sequence(6)
    for n in range(1, len(seq)):
        for m in range(n + 1, len(seq) + 1):
            assert dist(seq[n - 1], seq[m - 1], rtol=0.0) <= tail_bound(n, 1, 2)


def test_pinned_tail_bound_violation_at_distance_six():
    # chaining gaps needs the triangle inequality, which this distance
    # lacks: lifting doubles a squared norm, so direct pair distances
    # eventually outgrow the geometric bound
    seq = _worked_sequence(7)
    assert dist(seq[0], seq[6], rtol=0.0) > tail_bound(1, 1, 2)
    # the doubling recurrence behind that growth, on measured values:
    # d(1, n+1)^2 = 2 d(1, n)^2 + 2^(2n-1) p q fill(n+1)^2
    for n in (2, 3, 4):
        d_n = dist(seq[0], seq[n - 1], rtol=0.0)
        d_next = dist(seq[0], seq[n], rtol=0.0)
        extra = 2.0 ** (2 * n - 1) * 1 * 2 * fill_value(n + 1) ** 2
        assert math.isclose(d_next**2, 2 * d_n**2 + extra, rel_tol=1e-12)


def test_nonconvergence_probe():
    seq = _worked_sequence(6)
    for m in (1, 2):
        values = nonconvergence_probe(seq, m)
        assert len(values) == len(seq) - m - 1
        floor = math.exp(-(2.0**m))
        assert all(v > floor for v in values)
        assert all(a <= b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        nonconvergence_probe(seq, 5)
