#!/usr/bin/env python3
"""Steadiness check of the benchmark: runs each workload repeatedly, one
seed per run, and compares every end-to-end metric's spread with its
bound from BENCHMARK.json.

    python3 perfbench/steadiness.py [--runs 10] [--workload W ...]
        [--seconds S] [--seed-base N] [--save FILE] [--compare FILE]
    python3 perfbench/steadiness.py --smoke

spread = (Q3 - Q1) / median of a metric's values over the runs, with the
quartiles of statistics.quantiles(values, n=4). A metric whose spread
exceeds its bound is named and fails the check; setup_s is reported but
not gated, as the bound there applies to the median only. --save writes
the values; --compare FILE also checks that no median is worse than the
saved set's by more than the bound (setup_s included). --smoke makes
three short runs per workload and checks only that every run is correct
and prints every metric with its unit.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if proc.returncode in (0, 1) else None
    if result is None or proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"FAIL {workload} seed {seed}: exit "
                         f"{proc.returncode}, result {result}")
    return result


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(metric: dict, old: float, new: float) -> float:
    """Fractional worsening of the median, negative when it improved."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--save")
    parser.add_argument("--compare")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.smoke:
        args.runs, args.seconds = 3, 4
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    baseline = json.loads(Path(args.compare).read_text()) if args.compare \
        else {}

    values = {}
    problems = []
    for workload in workloads:
        per_metric = {m["name"]: [] for m in metrics}
        for i in range(args.runs):
            result = run_once(workload, args.seed_base + i, args.seconds)
            for m in metrics:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    raise SystemExit(f"FAIL {workload}: metric {m['name']} "
                                     f"missing or not in {m['unit']}")
                per_metric[m["name"]].append(got["value"])
            print(f"{workload} seed {args.seed_base + i}: ok", flush=True)
        values[workload] = per_metric
        print(f"\n{workload} ({args.runs} runs, {args.seconds} s each)")
        print(f"  {'metric':20s} {'median':>14s} {'spread':>8s} "
              f"{'bound':>6s} {'vs saved':>9s}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            vals = per_metric[name]
            s = spread(vals) if len(vals) >= 2 else 0.0
            flags = []
            if s > bound and name != "setup_s":
                flags.append("SPREAD EXCEEDS BOUND")
                problems.append(f"{workload}/{name} spread {s:.3f} > {bound}")
            elif s > bound / 3:
                flags.append("spread above a third of the bound")
            shift = ""
            old = baseline.get(workload, {}).get(name)
            if old:
                w = worse_by(m, statistics.median(old),
                             statistics.median(vals))
                shift = f"{w:+.3f}"
                if w > bound:
                    flags.append("MEDIAN WORSE THAN SAVED BY MORE THAN BOUND")
                    problems.append(f"{workload}/{name} median worse by "
                                    f"{w:.3f} > {bound}")
            print(f"  {name:20s} {statistics.median(vals):14.6g} {s:8.4f} "
                  f"{bound:6.2f} {shift:>9s}  {' '.join(flags)}")

    if args.save:
        Path(args.save).write_text(json.dumps(values, indent=1))
    if args.smoke:
        print("\nsmoke: every run correct, every metric present")
        return 0
    for problem in problems:
        print(f"NOT STEADY: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
