"""Run the benchmark over one or more seeds and report every end-to-end metric.

    python3 perfbench/spread.py --workload all --seeds 1      # one table, every workload
    python3 perfbench/spread.py --workload ref-4x4-b8-k4 --seeds 1-10
    python3 perfbench/spread.py --workload all --seeds 1-10 --out .perfbench_out/spread.json

Each run is `run.py --workload <w> --seed <n> --seconds <run_seconds>
--trace 0`, with run_seconds from BENCHMARK.json, one process at a time.
Every run's fail_share is printed.  For every end-to-end metric this
prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the quartile distance as a share
of the median, next to the metric's bound in BENCHMARK.json; with one
seed the three are that run's value and there is no spread.  Exits 1 if
any run missed or failed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import WORKLOADS  # noqa: E402


def parse_seeds(tokens):
    seeds = []
    for tok in tokens:
        lo, _, hi = tok.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(name, seed, seconds):
    """One benchmark process; returns its result, exit code and miss lines."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    env = next((json.loads(ln[5:]) for ln in lines if ln.startswith("env: ")), None)
    misses = [ln for ln in lines if ln.startswith("miss: ")]
    return result, proc.returncode, env, misses


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", action="append", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seeds", nargs="+", required=True, help="e.g. 1 2 3 or 1-10")
    parser.add_argument("--out", help="write every run's values and the summary here")
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if "all" in args.workload else args.workload
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {}
    status = 0
    for name in names:
        runs = []
        for seed in parse_seeds(args.seeds):
            result, code, env, misses = run_once(name, seed, spec["run_seconds"])
            for miss in misses:
                print(f"{name} seed {seed}: {miss}")
            if result is None:
                print(f"{name} seed {seed}: no result (exit {code})", flush=True)
                status = 1
                continue
            if code or not result["correct"] or result["failed"]:
                status = 1
            runs.append(dict(result, seed=seed, exit=code, env=env))
            print(f"{name} seed {seed}: exit {code}, fail_share "
                  f"{result['failed'] / result['attempted']:.4g} "
                  f"({result['failed']}/{result['attempted']})", flush=True)
        if not runs:
            continue
        summary = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            unit = runs[0]["metrics"][metric]["unit"]
            q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                           else values * 3)
            share = (q3 - q1) / abs(med) if med and len(values) > 1 else None
            summary[metric] = {"median": med, "q1": q1, "q3": q3, "spread": share,
                               "unit": unit}
            verdict = ("n/a" if share is None
                       else "below a third of it" if share < bound / 3
                       else "within it" if share <= bound else "OVER IT")
            spread = "n/a" if share is None else f"{share:.4f}"
            print(f"{name:<16} {metric:<22} {unit:<4} median {med:<12.6g} "
                  f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread}  "
                  f"bound {bound:g}: {verdict}", flush=True)
        report[name] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
