#!/usr/bin/env python3
"""Checks on the benchmark itself; exits 1 on the first failed check.

    python3 perfbench/selfcheck.py

- the same seed gives identical argv lists, in this process and in a fresh
  interpreter with another hash seed, and a different seed different ones;
- round 0 of every workload, run twice in this process, gives the same
  stdout digest both times, equal to the one recorded in the catalog;
- two runs of run.py with one seed print the same round-0 digest, and every
  metric they report is declared in BENCHMARK.json, in the right section,
  with its unit and a better direction, and every declared metric is
  reported;
- records.json holds a why, a job description and left-out regions for
  every workload, and the layer-to-end-to-end table names declared metrics
  and known workloads only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import jobs
import run


def fail(message: str):
    print(f"FAIL {message}")
    raise SystemExit(1)


def ok(message: str):
    print(f"ok   {message}")


def argv_lists(catalog, seed, rounds=3):
    return {w: [j["argv"] for r in range(rounds)
                for j in jobs.round_jobs(spec, w, seed, r)]
            for w, spec in catalog["workloads"].items()}


def check_generator(catalog):
    here = json.dumps(argv_lists(catalog, 11))
    if here != json.dumps(argv_lists(catalog, 11)):
        fail("seed 11 gives two different argv lists in one process")
    code = ("import json, sys; sys.path.insert(0, {!r}); import jobs, selfcheck; "
            "print(json.dumps(selfcheck.argv_lists(jobs.load_catalog(), 11)))").format(jobs.HERE)
    env = dict(os.environ, PYTHONHASHSEED="12345")
    fresh = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=env, timeout=60, check=True).stdout.strip()
    if fresh != here:
        fail("seed 11 gives another argv list in a fresh interpreter")
    ok("seed 11 gives identical argv lists in this process and a fresh one")
    other = argv_lists(catalog, 12)
    for w, lists in argv_lists(catalog, 11).items():
        if lists == other[w]:
            fail(f"{w}: seeds 11 and 12 give the same argv list")
    ok("seeds 11 and 12 give different argv lists on every workload")


def check_digests(catalog):
    jobs.ensure_source()
    from ddcrit import cli

    for w, spec in catalog["workloads"].items():
        round0 = jobs.round_jobs(spec, w, 11, 0)
        want = run.digest(j["sha256"] for j in round0)
        for attempt in (1, 2):
            got = run.digest(jobs.stdout_sha(jobs.run_job(cli, j["argv"])[1]) for j in round0)
            if got != want:
                fail(f"{w}: round 0 digest {got[:16]} on pass {attempt}, recorded {want[:16]}")
        ok(f"{w}: round 0 of seed 11 ({len(round0)} jobs) matches its recorded digest twice")


def run_once(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(jobs.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=jobs.ROOT)
    if proc.returncode != 0:
        fail(f"run.py --workload {workload} --trace {trace} exited {proc.returncode}: "
             f"{proc.stderr.strip()[-300:]}")
    lines = proc.stdout.strip().splitlines()
    digest_line = next(line for line in lines if line.startswith("digest of round 0"))
    return json.loads(lines[-1]), digest_line


def check_metrics():
    with open(os.path.join(jobs.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    digests = set()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result, digest_line = run_once("witt", 11, trace)
        digests.add(digest_line.split(" recorded")[0])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            fail(f"result keys {sorted(result)}")
        if not result["correct"] or result["failed"]:
            fail(f"trace {trace} run is not correct: {result['failed']} failed")
        declared = {m["name"]: m for m in bench[section]}
        for name, metric in result["metrics"].items():
            decl = declared.get(name)
            if decl is None:
                fail(f"{name} is reported but not declared in {section}")
            if decl["unit"] != metric["unit"] or decl["better"] not in ("higher", "lower"):
                fail(f"{name}: unit {metric['unit']} against {decl}")
        missing = set(declared) - set(result["metrics"])
        if missing:
            fail(f"declared in {section} but not reported: {sorted(missing)}")
        ok(f"trace {trace}: {len(result['metrics'])} metrics, all declared in {section}")
    if len(digests) != 1:
        fail(f"two runs of seed 11 print different digests: {digests}")
    ok("two runs of seed 11 print the same round-0 digest")


def check_documents(catalog):
    with open(jobs.RECORDS) as fh:
        records = json.load(fh)
    with open(os.path.join(jobs.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    e2e = {m["name"] for m in bench["end_to_end"]}
    workloads = set(catalog["workloads"])
    if {w["name"] for w in bench["workloads"]} != workloads:
        fail("BENCHMARK.json and catalog.json name different workloads")
    for w in workloads:
        entry = records["workloads"].get(w, {})
        if not entry.get("why") or not entry.get("jobs"):
            fail(f"records.json has no why/jobs for {w}")
        if not any(r["workload"] == w for r in records["left_out"]):
            fail(f"records.json has no left-out region for {w}")
        if not catalog["workloads"][w].get("mix_per_round"):
            fail(f"catalog.json has no job mix for {w}")
    for row in records["layer_table"]:
        for pattern in row["per_layer"]:
            prefix = pattern.split("*")[0].split(" ")[0]
            if not any(n.startswith(prefix) for n in names):
                fail(f"layer table names {pattern!r}, which matches no declared metric")
        for metric in row["moves"]:
            if metric.split(" ")[0] not in e2e:
                fail(f"layer table moves {metric!r}, not an end-to-end metric")
        for w in row["on"] + row["flat_on"]:
            if not any(w.startswith(x) or x in w for x in workloads):
                fail(f"layer table names unknown workload {w!r}")
    ok(f"records.json: whys, job mixes, left-out regions and a "
       f"{len(records['layer_table'])}-row layer table")


def main() -> int:
    catalog = jobs.load_catalog()
    check_generator(catalog)
    check_documents(catalog)
    check_digests(catalog)
    check_metrics()
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
