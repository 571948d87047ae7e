"""Job catalog, seeded round generator, in-process CLI runner and output
checks shared by run.py, selfcheck.py and build_catalog.py."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CATALOG = os.path.join(HERE, "catalog.json")
RECORDS = os.path.join(HERE, "records.json")

WORKLOADS = ("certify", "search", "witt")


def ensure_source() -> None:
    """Put the checkout's ``src`` first on sys.path, or exit 2 when the
    checkout holds no ddcrit sources (nothing to benchmark)."""
    if not os.path.isfile(os.path.join(SRC, "ddcrit", "cli.py")):
        print(f"perfbench: no ddcrit sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)


def stdout_sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_job(cli, argv):
    """Run ``cli.main(argv)`` with stdout and stderr captured.

    Returns (exit code or None, stdout, stderr, escaped exception or None).
    The module attribute is looked up at call time so a traced wrapper on
    ``cli.main`` is honoured."""
    out, err = io.StringIO(), io.StringIO()
    exc = None
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception as e:  # an escape is a counted failure, not a crash
            exc = e
    return code, out.getvalue(), err.getvalue(), exc


def load_catalog() -> dict:
    with open(CATALOG) as fh:
        return json.load(fh)


def round_jobs(spec: dict, workload: str, seed: int, index: int) -> list[dict]:
    """The index-th round of a workload for a seed, deterministic in
    (workload, seed, index).

    A class with n members and a per-round count c contributes c jobs:
    every member c // n times, and for the rest its members, sorted by
    recorded cost, are cut into c % n contiguous strata and one member is
    drawn from each.  So the seed picks the inputs while each round keeps
    the same cost profile.  The round is then shuffled."""
    rng = random.Random(f"ddcrit-perfbench:{workload}:{seed}:{index}")
    jobs = []
    for name, count in spec["round"]:
        members = sorted(spec["classes"][name], key=lambda j: j["ms"])
        whole, rest = divmod(count, len(members))
        jobs += members * whole
        for k in range(rest):
            lo = k * len(members) // rest
            hi = (k + 1) * len(members) // rest
            jobs.append(members[rng.randrange(lo, hi)])
    rng.shuffle(jobs)
    return jobs


# -- output checks -------------------------------------------------------------


def _certificate_ok(cert: dict) -> bool:
    flags = cert["flags"]
    return flags["ddc"] and flags["power_sum"] and flags["isolated"]


def contract_errors(job: dict, code, out: str, err: str) -> list[str]:
    """Checks that hold for any correct build, independent of the recorded
    digests: exit code against the JSON flags, NotFound completeness, and
    the invalid-input contract (exit 2, error JSON on stderr)."""
    kind = job["meta"]["kind"]
    argv = job["argv"]
    if kind == "invalid":
        problems = []
        if code != 2:
            problems.append(f"exit {code}, expected 2")
        try:
            if "error" not in json.loads(err):
                problems.append("stderr JSON has no error key")
        except ValueError:
            problems.append("stderr is not an error JSON")
        return problems
    if code not in (0, 1):
        return [f"exit {code}"]
    try:
        data = json.loads(out)
    except ValueError:
        return ["stdout is not JSON"]
    sub = job["meta"]["subcommand"]
    if sub == "check":
        want = 0 if _certificate_ok(data) else 1
        return [] if code == want else [f"exit {code} but flags say {want}"]
    if sub == "construct":
        if "d9" in argv:
            ok = code == 0 and all(_certificate_ok(c) for c in data)
            return [] if ok else ["d9 witnesses failed"]
        flags = data["flags"]
        want = 0 if flags["ddc"] and flags["power_sum"] else 1
        return [] if code == want else [f"exit {code} but flags say {want}"]
    if sub == "search":
        if data.get("found") is False:
            problems = [] if code == 1 else [f"NotFound with exit {code}"]
            if data.get("complete") is not True:
                problems.append("NotFound without budget is not complete")
            return problems
        flags = data["flags"]
        ok = flags["ddc"] and flags["power_sum"]
        if "--isolated" in argv:
            ok = ok and flags["isolated"]
        return [] if code == 0 and ok else ["witness flags or exit code wrong"]
    return [] if code == 0 else [f"exit {code}"]


def witnesses(job: dict, out: str) -> list[dict]:
    """Certificates in a job's output that claim a witness."""
    meta = job["meta"]
    if meta["kind"] == "invalid" or not out:
        return []
    data = json.loads(out)
    if meta["subcommand"] == "search":
        return [data] if data.get("found", True) is not False else []
    if meta["subcommand"] in ("check", "construct"):
        certs = data if isinstance(data, list) else [data]
        return [c for c in certs if c["flags"]["ddc"] and c["flags"]["power_sum"]]
    return []
