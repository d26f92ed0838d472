"""Alternated benchmark pairs of two checkouts, written to one JSON file.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_N.json

Runs the benchmark's own command (``BENCHMARK.json``'s ``command``, in the
change's checkout) unchanged in each checkout, as
``... --workload W --seed 2 --seconds 25 --trace 0``, one workload after
another, in pairs whose first side alternates: pair 0 runs the parent
first, pair 1 the change, and so on. ``cauchy_float`` gets 10 pairs and
every other workload 5.

The file holds every run (its checkout, pair, order and the result line
``run.py`` printed), then, per workload and end-to-end metric, each
side's median and quartiles (inclusive method), the change's median over
the parent's, how many pairs the change won by the metric's direction
(ties win for neither), and whether the medians differ by more than the
parent's quartile spread. It also holds the Python version the command
runs under and each checkout's ``git rev-parse HEAD`` and ``HEAD:src``
(null outside git).
The file is rewritten after every run, so an interrupted run keeps what
it measured.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median, quantiles

PAIRS = {"algebra_exact": 5, "basis_exact": 5, "cauchy_float": 10, "cli_small": 5}
SEED, SECONDS = 2, 25
SIDES = ("parent", "change")


def head(tree: str) -> dict:
    # The checkout's commit, and its src/ tree, which names the measured
    # library across rebases; null outside git.
    def rev(name):
        proc = subprocess.run(["git", "rev-parse", name], cwd=tree, capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None
    return {"commit": rev("HEAD"), "src": rev("HEAD:src")}


def run(tree: str, command: list[str], workload: str) -> dict:
    args = [*command, "--workload", workload, "--seed", str(SEED), "--seconds", str(SECONDS),
            "--trace", "0"]
    proc = subprocess.run(args, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {' '.join(args)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(runs: list[dict], metrics: list[dict]) -> dict:
    # Over the pairs both sides have run.
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        value = {(r["pair"], r["side"]): r["result"]["metrics"]
                 for r in runs if r["workload"] == workload}
        pairs = sorted(p for p, side in value if side == "parent" and (p, "change") in value)
        if not pairs:
            continue
        out[workload] = {}
        for m in metrics:
            name, higher = m["name"], m["better"] == "higher"
            row = {"pairs": len(pairs)}
            for side in SIDES:
                vals = [value[p, side][name]["value"] for p in pairs]
                q1, _, q3 = quantiles(vals, n=4, method="inclusive") if len(vals) > 1 else vals * 3
                row[side] = {"median": median(vals), "q1": q1, "q3": q3}
            diff = [value[p, "change"][name]["value"] - value[p, "parent"][name]["value"]
                    for p in pairs]
            parent, change = row["parent"], row["change"]
            row["ratio"] = change["median"] / parent["median"]
            row["change_wins"] = sum(d > 0 if higher else d < 0 for d in diff)
            row["beyond_parent_iqr"] = (abs(change["median"] - parent["median"])
                                        > parent["q3"] - parent["q1"])
            out[workload][name] = row
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    trees = dict(zip(SIDES, map(os.path.abspath, (args.parent, args.change))))
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as f:
        bench = json.load(f)
    command = bench["command"]
    version = subprocess.run([command[0], "-c", "import sys; print(sys.version)"],
                             capture_output=True, text=True, check=True).stdout.strip()
    doc = {
        "command": command, "seed": SEED, "seconds": SECONDS, "python": version,
        "heads": {side: head(tree) for side, tree in trees.items()},
        "runs": [], "summary": {},
    }
    for workload in PAIRS:
        for pair in range(PAIRS[workload]):
            for order, side in enumerate(SIDES if pair % 2 == 0 else SIDES[::-1]):
                result = run(trees[side], command, workload)
                doc["runs"].append({"workload": workload, "pair": pair, "side": side,
                                    "order": order, "result": result})
                doc["summary"] = summary(doc["runs"], bench["end_to_end"])
                with open(args.out, "w") as f:
                    json.dump(doc, f, indent=1)
                    f.write("\n")
                ops = result["metrics"]["ops_per_s"]["value"]
                print(f"{workload} pair {pair} {side}: ops_per_s {ops:.1f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
