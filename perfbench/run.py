#!/usr/bin/env python3
"""Runs one benchmark workload: builds tevot_perfbench from source, then
runs it once as a fresh process and relays its output.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--inject-mismatch]

Run from anywhere; paths resolve against the repository root (the parent
of this directory). The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). Run records (machine, result and trace
spans) go to <build>/records/. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}.

Exit status: the driver's (0 every check passed, 1 a check failed,
2 usage error or aborted run), or 3 when the build fails or the run
times out; in those cases no result is printed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(bdir: Path) -> Path:
    """Configures once, then lets the build tool skip what is current."""
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    if not (bdir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(bdir), "--target",
                    "tevot_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return bdir / "tevot_perfbench"


def source_rev() -> str:
    """git revision when there is one, plus a digest of the sources the
    benchmark builds, so a record names its code even outside git."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "nogit"
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return f"{rev}+src.{digest.hexdigest()[:12]}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    parser.add_argument("--inject-mismatch", action="store_true",
                        help="corrupt one response delay before checking")
    args = parser.parse_args()

    bdir = build_dir()
    try:
        binary = build(bdir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 3

    records = bdir / "records"
    records.mkdir(parents=True, exist_ok=True)
    work = bdir / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--work-dir", str(work),
               "--record", str(records / f"{args.workload}-seed{args.seed}"
                                          f"-trace{args.trace}.json"),
               "--rev", source_rev()]
    if args.inject_mismatch:
        command.append("--inject-mismatch")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = proc.stdout.splitlines()
    if proc.returncode in (0, 1):
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        if not isinstance(result, dict) or set(result) != RESULT_KEYS:
            print("perfbench: driver printed no result", file=sys.stderr)
            return 3
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
