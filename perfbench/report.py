#!/usr/bin/env python3
"""Run every workload once, untraced, and print its summary: every
end-to-end metric by name and unit (reference-scaled and as measured), the
job count behind the percentiles, the round-0 digest check and fail_ratio.

    python3 perfbench/report.py [--seed N] [--seconds S]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import jobs


def main() -> int:
    with open(os.path.join(jobs.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()
    status = 0
    for workload in jobs.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(jobs.HERE, "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600, cwd=jobs.ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]) if proc.returncode == 0 else proc.stderr)
        print()
        if proc.returncode != 0 or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
