"""One fresh process that sets up one workload and, unless asked only for
set-up, measures it.

    python3 stbench/measure.py <workload> <seed> <setup|run> <seconds> <trace 0|1>

Prints one JSON object as its last stdout line. Set-up time runs from the
first statement of this file through importing the library, generating
the inputs from the seed and the warm-up calls. The measured loop is one
caller in a closed loop: each call starts when the previous one returned.
Whole rounds of the workload's call list run, at least MIN_ROUNDS of
them, until the next round would end nearer to ``seconds`` past the
start than the current one does.

With trace 1, untraced and traced rounds alternate; the untraced ones
give the tracing overhead and the traced ones the per-layer metrics.
"""

import sys
import time

T0 = time.perf_counter()

import os  # noqa: E402
from fractions import Fraction  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
ALL_CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()
MIN_ROUNDS = 3  # untraced rounds; each call's best of at least three


def _probe_ns():
    """Time of a fixed small piece of Fraction arithmetic, in ns."""
    t0 = time.perf_counter_ns()
    acc = 0
    for i in range(200):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
    return time.perf_counter_ns() - t0


def to_fastest_cpu():
    """Move this process, and the processes it starts afterwards, to the
    CPU it may use on which a fixed probe now runs fastest.

    On a shared host each CPU has slow periods of its own, from a
    fraction of a second to tens of seconds, when other tenants use it
    too. Each round (with tracing: each pair of an untraced and a traced
    round) and each set-up sample starts on the CPU that is fast at that
    moment; the probe runs outside the timed region.
    """
    if len(ALL_CPUS) < 2:
        return
    timed = []
    for cpu in sorted(ALL_CPUS):
        os.sched_setaffinity(0, {cpu})
        timed.append((min(_probe_ns() for _ in range(3)), cpu))
    os.sched_setaffinity(0, {min(timed)[1]})


def all_cpus():
    """Let this process, and those it starts afterwards, use every CPU again."""
    if len(ALL_CPUS) > 1:
        os.sched_setaffinity(0, ALL_CPUS)


def import_library(workload):
    sys.path.insert(0, SRC)
    import semitensor

    where = os.path.abspath(semitensor.__file__)
    if not where.startswith(os.path.join(SRC, "semitensor") + os.sep):
        raise SystemExit(f"semitensor imported from {where}, not from {SRC}")
    if workload == "cli_small":
        import semitensor.cli  # noqa: F401
    return semitensor


def measure(wl, seconds, tracer):
    """Run whole rounds; return per-call records and per-round latencies."""
    clock = time.perf_counter_ns
    calls = wl.calls
    first = [None] * len(calls)
    reps = [0] * len(calls)
    mismatches = [0] * len(calls)
    latencies = {False: [], True: []}  # per-round lists, untraced and traced
    start = time.perf_counter()
    r = 0
    while True:
        traced = tracer is not None and r % 2 == 1
        if traced:
            tracer.install()
        else:
            to_fastest_cpu()
        lat = []
        for i, call in enumerate(calls):
            t0 = clock()
            try:
                res = call.run()
            except Exception as exc:  # a raise the workload did not expect
                res = ("raised", repr(exc))
            t1 = clock()
            lat.append(t1 - t0)
            if call.after is not None:
                res = call.after(res)
            if r == 0:
                first[i] = res
            elif res != first[i]:
                mismatches[i] += 1
            reps[i] += 1
        if traced:
            tracer.uninstall()
        latencies[traced].append(lat)
        r += 1
        if tracer is not None and r % 2:
            continue
        if len(latencies[False]) < MIN_ROUNDS:
            continue
        if time.perf_counter() - start + sum(lat) / 2e9 >= seconds:
            break
    return first, reps, mismatches, latencies


def check(wl, first, reps, mismatches):
    """Failed calls: every repetition of an input whose first output is
    wrong, plus repetitions whose output differs from the first."""
    failed = 0
    bad = []
    for call, res, n, diff in zip(wl.calls, first, reps, mismatches):
        ok = call.passes(res)
        if not ok:
            bad.append(call.op)
        failed += diff if ok else n
    return failed, sorted(set(bad))


def main(argv):
    workload, seed, mode, seconds, trace = argv[0], int(argv[1]), argv[2], float(argv[3]), argv[4] == "1"
    st = import_library(workload)
    sys.path.insert(0, BENCH_DIR)
    import workloads

    workdir = os.path.join(OUT_DIR, f"cli-{os.getpid()}")
    wl = workloads.build(workload, seed, st, workdir)
    try:
        for call in wl.warm:
            res = call.run()
            if call.after is not None:
                call.after(res)
        setup_s = time.perf_counter() - T0
        if mode == "setup":
            return {"setup_s": setup_s}
        return run(wl, workload, seed, seconds, trace, st, setup_s)
    finally:
        wl.cleanup()


def run(wl, workload, seed, seconds, trace, st, setup_s):
    import resource

    import summary
    import tracing

    tracer = tracing.Tracer(st) if trace else None
    first, reps, mismatches, latencies = measure(wl, seconds, tracer)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, bad_ops = check(wl, first, reps, mismatches)
    untraced, traced = latencies[False], latencies[True]
    out = {
        "setup_s": setup_s,
        "attempted": sum(reps),
        "failed": failed,
        "bad_ops": bad_ops,
        "rounds": len(untraced) + len(traced),
        "traffic": wl.traffic(),
        "probes": wl.probes(),
    }
    if tracer is None:
        ops, p50_ns, pct, tail_ns, n = summary.latency_summary(untraced)
        out["metrics"] = {
            "ops_per_s": (ops, "1/s"),
            "call_p50_ms": (p50_ns / 1e6, "ms"),
            "call_tail_ms": (tail_ns / 1e6, "ms"),
            "peak_rss_mib": (rss_mib, "MiB"),
        }
        out["tail"] = {"percentile": pct, "calls": n, "repetitions": len(untraced)}
        out["round_busy_s"] = [sum(lat) / 1e9 for lat in untraced]
    else:
        best_untraced = sum(summary.best_per_call(untraced))
        best_traced = sum(summary.best_per_call(traced))
        metrics = tracing.layer_metrics(tracer.spans, len(traced))
        metrics["trace.overhead_frac"] = (best_traced / best_untraced - 1, "frac")
        out["metrics"] = metrics
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.tsv")
        tracing.write_spans(tracer.spans, path)
        out["spans_file"] = os.path.relpath(path, ROOT)
        out["spans"] = len(tracer.spans)
    return out


if __name__ == "__main__":
    import json

    result = main(sys.argv[1:])
    sys.stdout.write(json.dumps(result) + "\n")
