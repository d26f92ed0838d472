"""Traced spans of the ROADMAP baseline rows, beside the ROADMAP's figures.

    python3 stbench/roadmap_rows.py [--seed N] [--repeat R]

A sanity check of the tracer and of this host against the baseline table
in ROADMAP.md: each row's call runs R times (default 2) under the tracer
on inputs drawn from the seed, and the fastest top-level span is printed
beside the ROADMAP's time. Some rows (t = 420) take seconds per call, so
the workloads leave them out; this script is where they are measured.
Run it from the repository root.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from random import Random

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

import semitensor as st  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
import oracle as O  # noqa: E402


def rows(rng):
    """(label, ROADMAP ms, span name, call) for each baseline row."""
    def klass(m, n):
        return st.canonicalize(st.from_rows(W.dense(rng, m, n)))

    a4, b9, a12, b35 = klass(4, 4), klass(9, 9), klass(12, 12), klass(35, 35)
    lift30 = st.from_rows(O.lift(W.dense(rng, 6, 6, 97), 30))
    c12 = klass(12, 12)
    coords = st.decompose_class(c12)
    cfg = st.CauchyConfig(st.from_rows(W.floats(rng, 1, 1), st.FLOAT64), 9)
    seq = st.cauchy_sequence(cfg)
    family = [st.unit_class(e) for e in st.enumerate_basis(Fraction(1), 6)]
    return (
        ("canonicalize, 180x180 lift of a 6x6", 50, "quotient.canonicalize", lambda: st.canonicalize(lift30)),
        ("class_add 4x4 + 9x9 (t = 36)", 6.9, "quotient.class_add", lambda: st.class_add(a4, b9)),
        ("class_add 12x12 + 35x35 (t = 420)", 1367, "quotient.class_add", lambda: st.class_add(a12, b35)),
        ("class_mul 4x4 . 9x9", 20.7, "quotient.class_mul", lambda: st.class_mul(a4, b9)),
        ("inner 4x4, 9x9", 9.7, "metric.inner", lambda: st.inner(a4, b9)),
        ("inner 12x12, 35x35 (t = 420)", 2233, "metric.inner", lambda: st.inner(a12, b35)),
        ("cauchy_sequence n_max = 9", 68, "metric.cauchy_sequence", lambda: st.cauchy_sequence(cfg)),
        ("gap_reports of it", 405, "metric.gap_reports", lambda: st.gap_reports(seq)),
        ("decompose_class 12x12", 6.0, "basis.decompose_class", lambda: st.decompose_class(c12)),
        ("reconstruct 12x12", 0.8, "basis.reconstruct", lambda: st.reconstruct(coords)),
        ("independent, 72 basis classes, i <= 6", 1144, "basis.independent", lambda: st.independent(family)),
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=2)
    args = ap.parse_args(argv)
    tracer = tracing.Tracer(st)
    print(f"{'row':42} {'ROADMAP ms':>11} {'traced ms':>10} {'ratio':>6}")
    for label, roadmap_ms, name, call in rows(Random(f"roadmap:{args.seed}")):
        best = None
        for _ in range(args.repeat):
            tracer.spans.clear()
            tracer.install()
            try:
                call()
            finally:
                tracer.uninstall()
            top = [s for s in tracer.spans if s[1] == 0 and s[2] == name]
            if len(top) != 1:
                raise SystemExit(f"{label}: expected one top-level {name} span, got {len(top)}")
            ms = (top[0][4] - top[0][3]) / 1e6
            best = ms if best is None else min(best, ms)
        print(f"{label:42} {roadmap_ms:11.1f} {best:10.1f} {best / roadmap_ms:6.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
