#!/usr/bin/env python3
"""Builds the perfbench binary from source, then runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 30 --trace 0

The build goes to $CARGO_TARGET_DIR if set, else .bench_build; the
traced run writes its spans there too. The binary's last stdout line
is the JSON result. Build output goes to stderr. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper-suite", "fuzz-programs", "server-evict")


def build(bench_dir: Path, build_dir: Path) -> Path:
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not (build_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(bench_dir), "-B", str(build_dir)] + generator,
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   stdout=sys.stderr, check=True)
    return build_dir / "perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_dir = Path(__file__).resolve().parent
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    try:
        binary = build(bench_dir, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data", str(bench_dir)]
    if args.trace:
        spans = build_dir / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
        spans.parent.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(spans)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
