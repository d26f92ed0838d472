"""The semitensor benchmark: one seeded workload, measured end to end or traced.

    python3 stbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the library from ``src/``
there and writes only under ``stbench/out/``. Each workload runs in fresh
processes, one after another: with ``--trace 0`` five set-up-only
processes, one measured process and five more set-up-only processes.
The measured process's own set-up is the eleventh set-up sample and
``setup_s`` is their median. Each set-up-only process starts on the CPU
that is fast at that moment, and the samples lie on both sides of the
measurement, so one slow period of the host does not set them all. With
``--trace 1``, one process alternates untraced and traced rounds.

The last stdout line is the result:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
The line before it describes the run: the call mix, t histogram and
input shares, the tail percentile and call count, the known-defect
probes, and which operations failed their checks.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from statistics import median

from measure import all_cpus, to_fastest_cpu

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("algebra_exact", "basis_exact", "cauchy_float", "cli_small")
SETUP_EACH_SIDE = 5  # set-up-only processes before and after the measured one
BUDGET_S = 170.0


def worker(args, mode, deadline):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "measure.py"), args.workload, str(args.seed),
           mode, str(args.seconds), str(args.trace)]
    left = deadline - time.monotonic()
    if left <= 0:
        raise RuntimeError("out of time before starting a worker")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=left)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running worker instead of leaving it orphaned.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "semitensor", "__init__.py")):
        sys.stderr.write(f"no library source at {os.path.join(ROOT, 'src', 'semitensor')}\n")
        return 2
    deadline = time.monotonic() + BUDGET_S
    try:
        setups = []

        def sample_setups(first):
            for i in range(first, first + SETUP_EACH_SIDE):
                to_fastest_cpu()
                setups.append(worker(args, "setup", deadline)["setup_s"])
            all_cpus()

        if not args.trace:
            sample_setups(0)
        res = worker(args, "run", deadline)
        if not args.trace:
            sample_setups(SETUP_EACH_SIDE)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in res["metrics"].items()}
    if not args.trace:
        metrics["setup_s"] = {"value": median(setups + [res["setup_s"]]), "unit": "s"}
    keys = ("rounds", "tail", "round_busy_s", "traffic", "probes", "bad_ops", "spans_file", "spans")
    info = {k: res[k] for k in keys if k in res}
    info["workload"], info["seed"], info["trace"] = args.workload, args.seed, args.trace
    print(json.dumps(info))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
