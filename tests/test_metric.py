"""Quotient pairing, norm, distance and the Cauchy-sequence experiment."""

import math
import random
from fractions import Fraction

import pytest

from helpers import as_matrix, rand_matrix

from semitensor import (
    CauchyConfig,
    FLOAT64,
    canonicalize,
    cauchy_sequence,
    class_add,
    delta_n,
    dist,
    fill_value,
    from_rows,
    gap_reports,
    identity,
    inner,
    is_reducible,
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


def test_dist_examples():
    d23 = canonicalize(as_matrix([[2, 0], [0, 3]]))
    one = canonicalize(as_matrix([[1]]))
    assert dist(d23, d23) == 0.0
    assert dist(d23, one) == math.sqrt(5)


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


def test_delta_n():
    A = from_rows([[1.0, 0.0, 2.0, 0.0], [0.0, 1.0, 0.0, 2.0]], FLOAT64)
    out = delta_n(A, 2)
    fill = fill_value(2)
    assert out.to_lists() == [[1.0, fill, 2.0, fill], [fill, 1.0, fill, 2.0]]
    # all-nonzero input is untouched at any step
    B = from_rows([[1.0, 2.0]], FLOAT64)
    assert delta_n(B, 5) == B
    with pytest.raises(ValueError):
        delta_n(as_matrix([[1, 0]]), 2)
    with pytest.raises(ValueError):
        delta_n(B, 10)


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
        assert is_reducible(cls.rep, rtol=0.0) == (False, None)
        assert cls.mu == Fraction(1, 2)
    # second step is the fill of the lifted first step
    assert seq[1].rep == delta_n(kron(seq[0].rep, identity(2, FLOAT64)), 2)


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
        assert repr(seq[n - 1].rep) == repr(delta_n(lifted, n)), n


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


def test_gap_law():
    seq = _worked_sequence(7)
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
