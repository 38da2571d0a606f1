#!/usr/bin/env python3
"""Record the baseline: ten untraced runs and one traced run per workload
into baseline.json.

    python3 bench/baseline.py                      # seeds 1..10, --seconds 15
    python3 bench/baseline.py --workloads cli-scenes --seeds 3 4 5

Runs ``run.py`` once per (workload, seed), one process at a time, and
stores every run with the median and the interquartile range as a share of
the median (``statistics.quantiles(values, n=4)``) of each end-to-end
metric, both host-corrected and in plain wall time, and the per-layer
metrics of one ``--trace 1`` run with seed 1 (``traced_seed_1``).  Workloads
not run keep their entry.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

OUT = BENCH / "baseline.json"


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def _run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr[-2000:]}")
    return proc.stdout.splitlines()


def run_traced(workload, seconds):
    result = json.loads(_run(workload, 1, seconds, 1)[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload}: traced run failed")
    return {k: m["value"] for k, m in result["metrics"].items()}


def run_once(workload, seed, seconds):
    lines = _run(workload, seed, seconds, 0)
    meta = json.loads(next(ln for ln in lines if ln.startswith("meta "))[5:])
    result = json.loads(lines[-1])
    return {"seed": seed, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "wall": meta["wall"], "host_speed": meta["host_speed"],
            "op_tail_percentile": meta["op_tail_percentile"],
            "samples": meta["ops"]}, meta


def summarize(runs, meta):
    names = list(runs[0]["metrics"])
    return {
        "rounds": meta["rounds"], "ops_per_round": meta["ops_per_round"],
        "python": meta["python"], "nproc": meta["nproc"], "cpu": meta["cpu"],
        "median": {k: statistics.median(r["metrics"][k] for r in runs)
                   for k in names},
        "iqr_share": {k: spread([r["metrics"][k] for r in runs]) for k in names},
        "wall_median": {k: statistics.median(r["wall"][k] for r in runs)
                        for k in runs[0]["wall"]},
        "wall_iqr_share": {k: spread([r["wall"][k] for r in runs])
                           for k in runs[0]["wall"]},
        "runs": runs,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS),
                    choices=workloads.WORKLOADS)
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=15)
    args = ap.parse_args()

    data = json.loads(OUT.read_text()) if OUT.exists() else {"workloads": {}}
    data["about"] = (
        f"Seed-commit figures: untraced runs per workload (seeds "
        f"{args.seeds[0]}..{args.seeds[-1]}, --seconds {args.seconds}), "
        "host-corrected and in wall time, and one traced run per workload "
        "(seed 1).")
    for w in args.workloads:
        runs, meta = [], None
        for seed in args.seeds:
            run, meta = run_once(w, seed, args.seconds)
            runs.append(run)
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v:.5g}" for k, v in run["metrics"].items()), flush=True)
        entry = summarize(runs, meta)
        entry["traced_seed_1"] = run_traced(w, args.seconds)
        data["workloads"][w] = entry
        print(f"{w} spread: " + " ".join(
            f"{k}={v:.3f}" for k, v in entry["iqr_share"].items()), flush=True)
    OUT.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
