"""Tests of the benchmark itself: its checks, its tracer and its statistics.

Run from the repository root: ``python -m pytest stbench/tests -q``.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import oracle as O  # noqa: E402
import semitensor as st  # noqa: E402
import summary  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402


def first_call(wl, op):
    return next(c for c in wl.calls if c.op == op)


def outcome(call):
    res = call.run()
    return call.after(res) if call.after is not None else res


@pytest.fixture(scope="module")
def algebra():
    return W.build("algebra_exact", 0, st, None)


@pytest.fixture
def cli(tmp_path):
    wl = W.build("cli_small", 0, st, str(tmp_path / "cli"))
    yield wl
    wl.cleanup()


def test_class_check_rejects_wrong_and_reducible_classes(algebra):
    call = first_call(algebra, "class_add")
    good = call.run()
    assert call.passes(good)
    data = list(good.rep.data)
    data[0] += 1
    wrong = st.MatrixClass(good.mu, st.Matrix(good.rep.rows, good.rep.cols, tuple(data)))
    assert not call.passes(wrong)
    lifted = st.MatrixClass(good.mu, st.kron(good.rep, st.identity(2)))
    assert not call.passes(lifted)  # a lift of the right class is not irreducible


def test_value_check_is_exact(algebra):
    call = first_call(algebra, "inner")
    value = call.run()
    assert isinstance(value, Fraction) and call.passes(value)
    assert not call.passes(value + Fraction(1, 10**30))


def test_gap_check_rejects_a_wrong_float_gap():
    wl = W.build("cauchy_float", 0, st, None)
    seq_call, gap_call = wl.calls[0], wl.calls[1]
    assert seq_call.passes(seq_call.run())
    reports = gap_call.run()
    assert gap_call.passes(reports)
    off = dataclasses.replace(reports[2], gap_measured=reports[2].gap_measured * (1 + 1e-9))
    assert not gap_call.passes(reports[:2] + [off] + reports[3:])
    probe = wl.calls[2]
    values = probe.run()
    assert probe.passes(values)
    assert not probe.passes(list(reversed(values)))


def test_cli_check_rejects_nan_output_and_wrong_exit(cli):
    call = first_call(cli, "canon")
    code, out, err, text = outcome(call)
    assert code == 0 and call.passes((code, out, err, text))
    doc = json.loads(out)
    doc["rep"]["data"][0] = float("nan")
    assert "NaN" in json.dumps(doc)
    assert not call.passes((code, json.dumps(doc), err, text))
    assert not call.passes((1, out, err, text))
    with pytest.raises(ValueError):
        O.strict_json_loads('{"value": Infinity}')


def test_every_cli_call_passes_its_check(cli):
    for call in cli.calls:
        assert call.passes(outcome(call)), call.op


def test_error_cases_expect_documented_exit_codes(cli):
    errors = [c for c in cli.calls if c.op == "error"]
    codes = sorted(outcome(c)[0] for c in errors)
    assert codes == [1, 1, 2, 2, 2]


def test_same_seed_same_inputs():
    a = W.build("basis_exact", 5, st, None)
    b = W.build("basis_exact", 5, st, None)
    c = W.build("basis_exact", 6, st, None)
    assert a.traffic() == b.traffic() == c.traffic()

    def k0_12(wl):  # the dense 12 x 12 round trip
        return next(x for x in wl.calls if x.op == "decompose_class" and x.t == 12 and x.dense).run()

    assert k0_12(a) == k0_12(b)
    assert k0_12(a) != k0_12(c)


def test_self_times_sum_to_traced_wall_minus_gaps(algebra):
    tracer = tracing.Tracer(st)
    calls = [c for c in algebra.calls if c.t <= 12][:20]
    tracer.install()
    try:
        w0 = time.perf_counter_ns()
        for call in calls:
            call.run()
            time.sleep(0.001)  # an untraced gap between top-level calls
        w1 = time.perf_counter_ns()
    finally:
        tracer.uninstall()
    spans = tracer.spans
    roots = sorted((s for s in spans if s[1] == 0), key=lambda s: s[3])
    assert len(roots) == len(calls)
    assert all(a[4] <= b[3] for a, b in zip(roots, roots[1:]))
    assert w0 <= roots[0][3] and roots[-1][4] <= w1
    gaps = (w1 - w0) - sum(s[4] - s[3] for s in roots)
    assert gaps >= len(calls) * 1_000_000
    selfs = tracing.self_times(spans)
    assert all(v >= 0 for v in selfs.values())
    assert sum(selfs.values()) == (w1 - w0) - gaps


def test_tracer_sees_calls_between_layers_and_uninstalls():
    tracer = tracing.Tracer(st)
    original = st.quotient.lplus
    A = st.from_rows([[1, 2], [3, 4]])
    B = st.from_rows([[1, 0, 2], [0, 1, 0], [5, 0, 1]])
    tracer.install()
    try:
        x = st.class_sub(st.canonicalize(A), st.canonicalize(B))
    finally:
        tracer.uninstall()
    assert st.quotient.lplus is original
    names = {s[0]: s[2] for s in tracer.spans}
    edges = {(names.get(s[1]), s[2]) for s in tracer.spans}
    assert ("quotient.class_sub", "stp.lminus") in edges
    assert ("stp.lminus", "stp.lplus") in edges
    assert ("stp.lplus", "matrix.kron") in edges
    assert not any(n.endswith(("scalar_eq", "ratio_of")) for n in names.values())
    m = tracing.layer_metrics(tracer.spans, 1)
    # lminus delegates to lplus: the lift of t = 6 is counted once
    assert m["stp.lift_t_max"][0] == 6
    assert m["stp.lift_entries"][0] == 2 * 36
    assert m["quotient.peel_attempts"][0] >= 1
    assert m["quotient.peel_hit_ratio"][0] == m["quotient.peel_hits"][0] / m["quotient.peel_attempts"][0]
    assert x.rep.rows == 6


@pytest.mark.parametrize(
    "n, rank, percentile",
    [(1000, 990, 99.0), (79, 69, 87.34), (35, 25, 71.43), (20, 10, 50.0), (15, 8, 53.33), (5, 3, 60.0)],
)
def test_tail_rule_picks_the_right_rank(n, rank, percentile):
    values = list(range(n, 0, -1))
    assert summary.tail_rank(n) == rank
    assert summary.tail_percentile(n) == percentile
    tail = sorted(values)[rank - 1]
    if n >= 2 * summary.MIN_BEYOND:
        assert sum(v > tail for v in values) == summary.MIN_BEYOND
    else:  # too few calls for ten beyond: the median
        assert rank == -(-n // 2)


def test_latency_summary_uses_each_calls_best_repetition():
    base = [float(v) for v in range(1, 101)]  # one round of 100 calls, in ns
    rounds = [[v * (1 + 0.1 * ((r + i) % 3)) for i, v in enumerate(base)] for r in range(6)]
    rounds[3] = [v * 50 for v in base]  # a slow period covering a whole round
    ops, p50, p, tail, n = summary.latency_summary(rounds)
    assert summary.best_per_call(rounds) == base
    assert n == 100 and p == 90.0
    assert p50 == 50.5 and tail == 90.0
    # the tail is taken from the same 100 values, with 10 of them beyond it
    assert sum(v > tail for v in base) == summary.MIN_BEYOND
    assert ops == 100 / (sum(base) / 1e9)


def test_refuses_to_run_without_library_source(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "stbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "stbench/run.py", "--workload", "cli_small", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
