#!/usr/bin/env python3
"""ddcrit benchmark: seeded batches of real CLI jobs, run in process.

    python3 perfbench/run.py --workload certify|search|witt --seed N \\
        --seconds S --trace 0|1

Each run is one fresh process that calls ``ddcrit.cli.main(argv)`` for one
job after another (closed loop, one client, no threads), with stdout
captured, so the library's caches start cold and fill as in a batch.  Jobs
come in rounds drawn from perfbench/catalog.json by the seed.  A run does
as many whole rounds as the catalog's recorded job costs say take S
seconds on the reference machine (and at least 100 jobs), so every commit
is measured on the same work.  Times are reported in reference-machine
seconds (see speed.py); the summary also prints the measured ones.

After the timed loop every job is checked: its exit code and stdout digest
against the ones recorded in the catalog, the exit code against the JSON
flags, NotFound completeness, the invalid-input contract, and every found
witness through ``criterion.verify_certificate_json``.  A failed check or an
exception escaping ``cli.main`` counts as a failure; the run carries on.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run (see spans.py).  The last stdout line is the
result JSON; the lines before it are a readable summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import jobs
import speed

MIN_JOBS = 100
SETUP_SAMPLES = 2
IMPORT_SNIPPET = (
    "import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
    "import ddcrit.cli; print(time.perf_counter() - t)"
)


def fresh_import_seconds() -> float:
    """Time ``import ddcrit.cli`` in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_SNIPPET.format(src=jobs.SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def measure_setup():
    """The run process's own ``import ddcrit.cli`` and SETUP_SAMPLES
    fresh-interpreter imports, after one discarded import that leaves the
    bytecode cache as every later import finds it.  Returns the module and
    (measured, reference-scaled) seconds per import; each import is scaled
    by speed-kernel bursts taken just before and after it."""
    fresh_import_seconds()

    def timed(fn):
        around = speed.Sampler()
        around.burst()
        seconds = fn()
        around.burst()
        return seconds, seconds * around.factor()

    def own_import():
        t0 = time.perf_counter()
        from ddcrit import cli  # noqa: F401

        return time.perf_counter() - t0

    samples = [timed(own_import)]
    samples += [timed(fresh_import_seconds) for _ in range(SETUP_SAMPLES)]
    return sys.modules["ddcrit.cli"], samples


def round_count(spec, seconds: float) -> int:
    """Rounds whose recorded reference cost adds up to ``seconds`` (rounded
    up, and at least MIN_JOBS jobs).  The work of a run is fixed by the
    catalog, not by how busy the host is or how fast the code under test
    is, so two commits are measured on the same jobs."""
    size = sum(count for _name, count in spec["round"])
    cost_s = sum(count * statistics.mean(j["ms"] for j in spec["classes"][name])
                 for name, count in spec["round"]) / 1e3
    return max(math.ceil(MIN_JOBS / size), math.ceil(seconds / cost_s))


def run_loop(cli, spec, args, sampler, tracer=None, limit=None):
    """Run round_count() whole rounds (or exactly ``limit`` jobs), timing
    the speed kernel between jobs.  Each record's ``ref_s`` is its wall
    time scaled by the kernel samples on either side of it.  Returns the
    records and the number of jobs in the first round."""
    records = []
    before = sampler.sample()
    for index in range(round_count(spec, args.seconds) if limit is None else limit):
        for job in jobs.round_jobs(spec, args.workload, args.seed, index):
            if tracer is not None:
                tracer.job = len(records)
            t0 = time.perf_counter_ns()
            code, out, err, exc = jobs.run_job(cli, job["argv"])
            ns = time.perf_counter_ns() - t0
            after = sampler.sample()
            ref_s = ns / 1e9 * speed.REFERENCE_S * 2 / (before + after)
            before = after
            records.append({"job": job, "ns": ns, "ref_s": ref_s, "code": code,
                            "out": out, "err": err, "exc": exc})
            if limit is not None and len(records) == limit:
                return records
    return records


def check_records(records):
    """Mark each record failed or not; return the problems found.  Outputs
    are checked once per distinct (argv, exit code, stdout)."""
    from ddcrit.criterion import verify_certificate_json

    verdicts = {}
    problems = []
    for rec in records:
        job = rec["job"]
        rec["sha"] = jobs.stdout_sha(rec["out"])
        if rec["exc"] is not None:
            rec["failed"] = True
            problems.append(f"{' '.join(job['argv'])}: {type(rec['exc']).__name__} escaped cli.main")
            continue
        key = (tuple(job["argv"]), rec["code"], rec["sha"])
        if key not in verdicts:
            errs = []
            if rec["code"] != job["code"] or rec["sha"] != job["sha256"]:
                errs.append("exit code or stdout differs from the recorded digest")
            errs += jobs.contract_errors(job, rec["code"], rec["out"], rec["err"])
            if not errs:
                for cert in jobs.witnesses(job, rec["out"]):
                    if not verify_certificate_json(cert):
                        errs.append("witness fails verify_certificate_json")
            verdicts[key] = errs
            problems += [f"{' '.join(job['argv'])}: {e}" for e in errs]
        rec["failed"] = bool(verdicts[key])
        # drop stdout once checked; only witt breaks keep a figure from it
        if job["meta"]["subcommand"] == "witt breaks" and not rec["failed"]:
            rec["extension_degree"] = json.loads(rec["out"])["extension_degree"]
        rec["out"] = rec["err"] = None
    return problems


def digest(shas) -> str:
    return hashlib.sha256("\n".join(shas).encode()).hexdigest()


def run_probes(cli, spec):
    """The known-defect probes: contract outcome exit 2 with an error JSON.
    Returns (probes run, probes whose exception escaped cli.main)."""
    escaped = 0
    probes = spec.get("known_defect_probes", [])
    for probe in probes:
        _code, _out, _err, exc = jobs.run_job(cli, probe["argv"])
        escaped += exc is not None
    return len(probes), escaped


def _beta_fraction(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-13:
            return h
    raise ArithmeticError("incomplete beta fraction did not converge")


def beta_cdf(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def percentile(values, q):
    """Harrell-Davis estimate of the q-th percentile of sorted values: the
    mean of all order statistics weighted by a Beta((n+1)q, (n+1)(1-q))
    distribution.  Job costs are mixed and each job's time is noisy, so a
    single order statistic jumps between neighbouring jobs from run to run;
    this weighted mean does not."""
    n = len(values)
    a, b = (n + 1) * q / 100, (n + 1) * (1 - q / 100)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], values))


def declared_metrics():
    with open(os.path.join(jobs.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def replay(args, spec):
    """Untraced reference for the trace overhead: the first ``--jobs`` jobs
    of the seed, in a fresh process; prints their reference-scaled wall
    time."""
    from ddcrit import cli

    records = run_loop(cli, spec, args, speed.Sampler(), limit=args.jobs)
    print(json.dumps({"wall_s": sum(r["ref_s"] for r in records),
                      "attempted": len(records)}))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args()

    jobs.ensure_source()
    spec = jobs.load_catalog()["workloads"][args.workload]
    if args.jobs is not None:
        return replay(args, spec)
    e2e_units, layer_units = declared_metrics()

    tracer = None
    if args.trace:
        from ddcrit import cli

        import spans

        tracer = spans.Tracer()
        tracer.install()
    else:
        cli, setup_samples = measure_setup()

    sampler = speed.Sampler()
    records = run_loop(cli, spec, args, sampler, tracer)
    first_round = sum(count for _name, count in spec["round"])
    probes, probe_escapes = run_probes(cli, spec)
    if tracer is not None:
        tracer.uninstall()
    problems = check_records(records)
    failed = sum(r["failed"] for r in records)
    attempted = len(records)

    got = digest(r["sha"] for r in records[:first_round])
    want = digest(r["job"]["sha256"] for r in records[:first_round])
    lines = [
        f"workload {args.workload} seed {args.seed}: {attempted} jobs in "
        f"{attempted // first_round} rounds of {first_round}, "
        f"{sum(r['ref_s'] for r in records):.2f} s reference-scaled job time",
        f"digest of round 0 stdout: {got[:16]} recorded {want[:16]} "
        f"{'match' if got == want else 'MISMATCH'}",
        f"fail_ratio {failed / attempted:.4f} ({failed} of {attempted})",
    ]
    if probes:
        lines.append(
            f"known defect, non-square N1 (outside the timed mix): {probe_escapes} of "
            f"{probes} probes let an exception escape cli.main; contract is exit 2")
    lines += [f"FAILED {p}" for p in problems[:20]]

    measured, metrics = {}, {}
    if tracer is None:
        ms = sorted(r["ns"] / 1e6 for r in records)
        ref_ms = sorted(r["ref_s"] * 1e3 for r in records)
        done = attempted - failed
        measured["jobs_per_s"] = (done / (sum(ms) / 1e3), "1/s")
        metrics["jobs_per_s"] = (done / (sum(ref_ms) / 1e3), "1/s")
        for q in (50, 90):
            measured[f"job_p{q}_ms"] = (percentile(ms, q), "ms")
            metrics[f"job_p{q}_ms"] = (percentile(ref_ms, q), "ms")
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        measured["peak_rss_mb"] = metrics["peak_rss_mb"] = (rss, "MB")
        measured["setup_s"] = (statistics.median(m for m, _s in setup_samples), "s")
        metrics["setup_s"] = (statistics.median(s for _m, s in setup_samples), "s")
        declared = e2e_units
        beyond = sum(1 for v in ref_ms if v > metrics["job_p90_ms"][0])
        lines.append(f"percentiles over {attempted} jobs, {beyond} beyond p90")
    else:
        measured.update(tracer.metrics())
        witnesses = sum(1 for r in records
                        if r["job"]["meta"]["subcommand"] == "search" and r["code"] == 0)
        candidates = measured["search.candidates"][0]
        hits = measured["search.ddc_hits"][0]
        measured["search.yield"] = (witnesses / candidates if candidates else 0.0, "ratio")
        measured["search.hit_ratio"] = (witnesses / hits if hits else 0.0, "ratio")
        measured["witt.extension_degree_sum"] = (
            sum(r.get("extension_degree", 0) for r in records), "count")
        measured["cli.main.escaped"] = (
            sum(r["exc"] is not None for r in records) + probe_escapes, "count")
        factor = sampler.factor()
        metrics = {n: (speed.scale(v, u, factor), u) for n, (v, u) in measured.items()}
        around = speed.Sampler()
        around.burst()
        kernels = spans.kernel_timings(args.seed)
        around.burst()
        measured.update(kernels)
        metrics.update({n: (speed.scale(v, u, around.factor()), u)
                        for n, (v, u) in kernels.items()})
        metrics["trace.overhead_ratio"] = (overhead_ratio(args, records), "ratio")
        declared = layer_units
        out_dir = os.path.join(jobs.ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.tsv")
        tracer.write(path)
        lines.append(f"{len(tracer.spans)} spans written to {os.path.relpath(path, jobs.ROOT)}")
    lines.append(f"host speed: {sampler.factor():.4f} reference-machine seconds per "
                 f"measured second, from {len(sampler.samples)} kernel samples")

    undeclared = [n for n, (_v, u) in metrics.items() if declared.get(n) != u]
    missing = [n for n in declared if n not in metrics]
    if undeclared or missing:
        print(f"perfbench: metrics not matching BENCHMARK.json: {undeclared} {missing}",
              file=sys.stderr)
        return 3

    lines.append(f"{'metric':40s} {'reference-scaled':>16s} {'measured':>14s} unit")
    for name, (value, unit) in metrics.items():
        raw = measured.get(name, (value, unit))[0]
        lines.append(f"{name:40s} {value:16.6g} {raw:14.6g} {unit}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0 and got == want,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


def overhead_ratio(args, records) -> float:
    """Traced time of the first quarter of the run's jobs over the time of the
    same jobs replayed untraced in a fresh process, both reference-scaled."""
    count = max(1, len(records) // 4)
    traced = sum(r["ref_s"] for r in records[:count])
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--jobs", str(count)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    untraced = json.loads(proc.stdout.strip().splitlines()[-1])["wall_s"]
    return traced / untraced


if __name__ == "__main__":
    sys.exit(main())
