#!/usr/bin/env python3
"""Self-test of the benchmark's own correctness checks.

    python3 perfbench/selftest.py [--workload W ...] [--seconds S]

1. Every run prints every metric of BENCHMARK.json with its unit
   (end-to-end untraced, per-layer traced), is correct and has
   ok_frac = 1.
2. For one seed, two untraced runs give bit-identical heldout_accuracy
   and delay_mae_ps, and two traced runs bit-identical exact counts.
3. A run with --inject-mismatch (one response delay corrupted before
   its bit-identity check) exits 1 with correct = false.

Exits 1 naming every failed expectation. Short runs keep it to a few
minutes.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
SEED = 11
EXACT_END_TO_END = ["heldout_accuracy", "delay_mae_ps"]
EXACT_PER_LAYER = ["liberty.corners", "sim.events", "sim.events_per_cycle",
                   "sim.trace_digest", "ml.train_rows", "ml.node_count"]


def run(workload: str, trace: str, seconds: int, inject: bool = False):
    command = [sys.executable, str(RUN), "--workload", workload, "--seed",
               str(SEED), "--seconds", str(seconds), "--trace", trace]
    if inject:
        command.append("--inject-mismatch")
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=int, default=3)
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in workloads:
        for trace, key, exact in (("0", "end_to_end", EXACT_END_TO_END),
                                  ("1", "per_layer", EXACT_PER_LAYER)):
            results = []
            for attempt in (1, 2):
                code, result = run(workload, trace, args.seconds)
                expect(code == 0 and result is not None and
                       result["correct"] and result["failed"] == 0,
                       f"{workload} trace={trace} run {attempt} is correct")
                if result is None:
                    continue
                metrics = result["metrics"]
                expected = {m["name"]: m["unit"] for m in bench[key]}
                expect({k: v["unit"] for k, v in metrics.items()} == expected,
                       f"{workload} trace={trace} prints every {key} "
                       f"metric with its unit")
                if trace == "0":
                    expect(metrics.get("ok_frac", {}).get("value") == 1,
                           f"{workload} ok_frac is 1")
                results.append(metrics)
            if len(results) == 2:
                for name in exact:
                    a, b = (r.get(name, {}).get("value") for r in results)
                    expect(a is not None and a == b,
                           f"{workload} {name} repeats exactly ({a} {b})")

    code, result = run(workloads[-1], "0", args.seconds, inject=True)
    expect(code == 1 and result is not None and not result["correct"] and
           result["failed"] >= 1,
           f"injected mismatch fails the run (exit {code})")

    if failures:
        print(f"\n{len(failures)} expectation(s) failed")
        return 1
    print("\nall expectations hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
