#!/usr/bin/env python3
"""Check every job of the benchmark catalog against its recorded outcome.

    python3 scripts/check_catalog.py

Runs each distinct argv list in perfbench/catalog.json once through
``ddcrit.cli.main`` in this one process and compares its exit code and
stdout sha256 with the ones the catalog records.  The known-defect probes
must exit 2.  Prints one line per mismatch and exits 1 if there is any,
else prints the job count and exits 0.  The catalog and perfbench's job
runner are only read.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import jobs  # noqa: E402


def main() -> int:
    jobs.ensure_source()
    from ddcrit import cli

    catalog = jobs.load_catalog()["workloads"]
    expected = {}
    probes = []
    for spec in catalog.values():
        for members in spec["classes"].values():
            for job in members:
                expected.setdefault(tuple(job["argv"]), (job["code"], job["sha256"]))
        probes += spec.get("known_defect_probes", [])
    problems = []
    for argv, (code, sha) in expected.items():
        got, out, _err, exc = jobs.run_job(cli, argv)
        if exc is not None:
            problems.append(f"{' '.join(argv)}: raised {exc!r}")
        elif (got, jobs.stdout_sha(out)) != (code, sha):
            problems.append(
                f"{' '.join(argv)}: exit {got} sha {jobs.stdout_sha(out)[:12]},"
                f" recorded exit {code} sha {sha[:12]}"
            )
    for probe in probes:
        got, _out, _err, exc = jobs.run_job(cli, probe["argv"])
        if exc is not None or got != probe["expect_code"]:
            outcome = f"raised {exc!r}" if exc is not None else f"exit {got}"
            problems.append(
                f"probe {' '.join(probe['argv'])}: {outcome},"
                f" expected exit {probe['expect_code']}"
            )
    for line in problems:
        print(line)
    print(
        f"{len(expected)} catalog jobs and {len(probes)} probes,"
        f" {len(problems)} mismatches"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
