#!/usr/bin/env python3
"""Regenerate perfbench/catalog.json: the job classes of the three
workloads, each job with its recorded exit code and stdout digest.

    python3 perfbench/build_catalog.py

Random inputs come from a fixed catalog seed.  Each candidate job is run
twice in process; its cost is the faster of the two, in reference-machine
milliseconds (see speed.py), and a job whose two stdouts differ aborts the
build.  Most classes are fixed lists; the random classes of the witt
workload admit a job only when its cost lies in the class's window, so a
rebuild can differ in a job near a window edge.  Rebuild only when the
catalog itself changes: the recorded digests pin the CLI's stdout at the
commit that built them, and the recorded costs set how many rounds a run
does.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import signal
import sys
import time

import jobs
import speed

CATALOG_SEED = 20150226
MAX_MEMBERS = 12


class _TooSlow(BaseException):
    """Raised by the interval timer inside a job that overruns its class."""


def _alarm(_signum, _frame):
    raise _TooSlow


def _measure(cli, argv, limit_s):
    best = math.inf
    seen = None
    signal.signal(signal.SIGALRM, _alarm)
    for _ in range(2):
        before = speed.kernel()
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        try:
            code, out, err, exc = jobs.run_job(cli, argv)
        except _TooSlow:
            return None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t0
        best = min(best, wall * speed.REFERENCE_S * 2 / (before + speed.kernel()))
        if exc is not None:
            return None
        if seen is not None and seen != (code, out):
            raise SystemExit(f"nondeterministic stdout for {argv}")
        seen = (code, out)
    return code, out, err, best * 1000


def _job(cli, argv, meta, lo=0.0, hi=math.inf, codes=(0, 1)):
    """A catalog entry for argv, or None when it escapes, exits outside
    ``codes`` or costs outside [lo, hi) ms."""
    argv = ["--compact"] + [str(a) for a in argv]
    got = _measure(cli, argv, 30.0 if hi == math.inf else max(1.0, 3 * hi / 1000))
    if got is None:
        return None
    code, out, err, ms = got
    if code not in codes or not lo <= ms < hi:
        return None
    if jobs.contract_errors({"argv": argv, "meta": meta}, code, out, err):
        raise SystemExit(f"contract check fails at build time: {argv}")
    return {
        "argv": argv,
        "meta": meta,
        "code": code,
        "sha256": jobs.stdout_sha(out),
        "ms": round(ms, 2),
    }


def _fill(name, candidates, classes):
    members = []
    for entry in candidates:
        if entry is not None:
            members.append(entry)
        if len(members) == MAX_MEMBERS:
            break
    if not members:
        raise SystemExit(f"class {name} is empty")
    classes[name] = members
    print(f"  {name}: {len(members)} jobs, "
          f"{min(j['ms'] for j in members):.1f}-{max(j['ms'] for j in members):.1f} ms",
          flush=True)


# -- certify -------------------------------------------------------------------

# (p, m, u~, N1) with N1 in {(p-1)u~, (p-1)u~ - m} and N1 <= 8
CHECK_QUADRUPLES = [
    (3, 2, 1, 0), (3, 2, 1, 2), (3, 2, 3, 4), (3, 2, 3, 6), (3, 2, 5, 8),
    (5, 2, 1, 2), (5, 2, 1, 4), (5, 4, 3, 8), (7, 2, 1, 4), (7, 2, 1, 6),
]


def _check_argv(q, coeffs):
    p, m, u, n1 = q
    return ["check", "--p", p, "--m", m, "--u", u, "--n1", n1,
            "--f", ",".join(map(str, coeffs))]


def _shape_coeffs(q, digits):
    p, m, u, n1 = q
    coeffs = [0] * (n1 + 1)
    for i, d in enumerate(digits):
        coeffs[i * m] = d
    return coeffs


def _random_checks(rng):
    """Random shape-valid f per quadruple, grouped by splitting degree D
    (D >= 10 is left out: one check costs more than 5 s)."""
    from ddcrit.gf import make_field
    from ddcrit.poly import Poly, factor

    groups = {"nonsquarefree": [], "low": [], "mid": [], "high": []}
    for _ in range(40):
        for q in CHECK_QUADRUPLES:
            p, m, _u, n1 = q
            n = n1 // m + 1
            digits = [rng.randrange(1, p)]
            if n > 1:
                digits += [rng.randrange(p) for _ in range(n - 2)]
                digits.append(rng.randrange(1, p))
            coeffs = _shape_coeffs(q, digits)
            fac = factor(Poly.from_ints(make_field(p, 1), coeffs)) if n1 else []
            split = math.lcm(*[int(g.degree) for g, _ in fac]) if fac else 1
            if split >= 10:
                continue
            if any(mult > 1 for _, mult in fac):
                group = "nonsquarefree"
            else:
                group = "low" if split <= 2 else "mid" if split <= 4 else "high"
            meta = {"kind": "check", "subcommand": "check", "p": p,
                    "field_degree": 1, "splitting_degree": split}
            groups[group].append((_check_argv(q, coeffs), meta))
    return groups


def _known_witnesses():
    """Every f over F_p that passes the whole criterion, per quadruple."""
    from ddcrit.cartier import Quadruple, ddc_check
    from ddcrit.criterion import certify
    from ddcrit.gf import make_field
    from ddcrit.poly import Poly

    out = []
    for q in CHECK_QUADRUPLES:
        p, m, u, n1 = q
        quad = Quadruple(*q)
        spec = make_field(p, 1)
        n = n1 // m + 1
        ranges = [range(1, p)] + [range(p)] * max(0, n - 2) + ([range(1, p)] if n > 1 else [])
        for digits in itertools.product(*ranges):
            coeffs = _shape_coeffs(q, digits)
            f = Poly.from_ints(spec, coeffs)
            if ddc_check(quad, f) and certify(quad, f).all_ok:
                meta = {"kind": "check", "subcommand": "check", "p": p,
                        "field_degree": 1}
                out.append((_check_argv(q, coeffs), meta))
    return out


def _shuffled(pairs, rng):
    pairs = list(pairs)
    rng.shuffle(pairs)
    return pairs


SMALL = [(3, 2), (3, 0), (5, 4), (5, 2), (7, 6), (7, 4), (11, 10), (11, 8),
         (13, 12), (13, 10)]
# (p, m, u~) of the trace family by cost: under 100 ms, 100-300 ms and
# 500-1000 ms; (7,3,5) and (7,6,5) take 2.4 s and 3.4 s and are left out
TRACE = {
    "fast": [(3, 2, 1), (3, 2, 3), (3, 2, 5), (5, 2, 1), (5, 2, 3), (5, 2, 5),
             (5, 4, 3), (7, 2, 1), (7, 2, 3), (7, 3, 2), (11, 2, 1), (13, 2, 1)],
    "mid": [(3, 2, 7), (3, 2, 9), (3, 2, 11), (3, 2, 13)],
    "slow": [(5, 4, 7), (5, 4, 11)],
}
# Quadruples the Quadruple constructor rejects; every one exits 2 today.
BAD_QUADRUPLES = [
    ["check", "--p", 4, "--m", 2, "--u", 1, "--n1", 2, "--f", "2,0,1"],
    ["check", "--p", 9, "--m", 2, "--u", 1, "--n1", 2, "--f", "1,0,1"],
    ["check", "--p", 5, "--m", 3, "--u", 2, "--n1", 3, "--f", "1,0,0,1"],
    ["check", "--p", 3, "--m", 2, "--u", 2, "--n1", 2, "--f", "1,0,1"],
    ["check", "--p", 3, "--m", 2, "--u", 5, "--n1", 3, "--f", "1,0,0,1"],
    ["check", "--p", 7, "--m", 1, "--u", 1, "--n1", 2, "--f", "1,0,1"],
    ["search", "--p", 5, "--m", 3, "--u", 2, "--n1", 6],
    ["search", "--p", 3, "--m", 2, "--u", 4, "--n1", 8],
    ["search", "--p", 2, "--m", 1, "--u", 1, "--n1", 0],
    ["construct", "trace", "--p", 5, "--m", 3, "--u", 2],
    ["construct", "trace", "--p", 7, "--m", 4, "--u", 3],
    ["construct", "small", "--p", 6, "--n1", 4],
]


def _nonsquare_probes(cli, rng):
    """check jobs whose N1 is a multiple of m but not one of the two square
    values; the ones where an AssertionError escapes cli.main today."""
    probes = []
    for q in [(3, 2, 5, 2), (7, 2, 3, 2), (3, 2, 7, 2), (5, 2, 5, 2),
              (7, 2, 5, 2), (3, 2, 9, 2), (5, 2, 7, 2), (7, 2, 7, 2)]:
        p, m, _u, _n1 = q
        for c0 in range(1, p):
            for c1 in range(1, p):
                argv = ["--compact"] + [str(a) for a in _check_argv(q, [c0, 0, c1])]
                _code, _out, _err, exc = jobs.run_job(cli, argv)
                if isinstance(exc, AssertionError):
                    probes.append({"argv": argv, "expect_code": 2})
                    break
            else:
                continue
            break
    rng.shuffle(probes)
    return probes[:4]


def build_certify(cli, rng):
    classes = {}
    groups = _random_checks(rng)
    for group in ("nonsquarefree", "low", "mid", "high"):
        _fill(f"check_{group}",
              (_job(cli, a, m) for a, m in _shuffled(groups[group], rng)), classes)
    wit = _known_witnesses()
    _fill("check_witness",
          (_job(cli, a, m, codes=(0,)) for a, m in _shuffled(wit, rng)), classes)
    _fill("construct_small", (
        _job(cli, ["construct", "small", "--p", p, "--n1", n1],
             {"kind": "construct", "subcommand": "construct", "p": p, "field_degree": 1})
        for p, n1 in SMALL), classes)
    for name, triples in TRACE.items():
        _fill(f"construct_trace_{name}", (
            _job(cli, ["construct", "trace", "--p", p, "--m", m, "--u", u],
                 {"kind": "construct", "subcommand": "construct", "p": p})
            for p, m, u in triples), classes)
    _fill("construct_d9", [_job(cli, ["construct", "d9"],
          {"kind": "construct", "subcommand": "construct", "p": 3, "field_degree": 1},
          codes=(0,))], classes)
    _fill("invalid_quadruple", (
        _job(cli, a, {"kind": "invalid", "subcommand": a[0]}, codes=(2,))
        for a in BAD_QUADRUPLES), classes)
    return {
        "round": [
            ["check_low", 8], ["check_mid", 12], ["check_high", 6],
            ["check_nonsquarefree", 2], ["check_witness", 12],
            ["construct_small", 10], ["construct_trace_fast", 12],
            ["construct_trace_mid", 4], ["construct_trace_slow", 2],
            ["construct_d9", 1], ["invalid_quadruple", 4],
        ],
        "classes": classes,
        "known_defect_probes": _nonsquare_probes(cli, rng),
    }


# -- search --------------------------------------------------------------------

# (class, [(p, m, u~, N1, field degree)]), each with and without --isolated;
# every candidate space <= 972.  Classes group jobs of like cost.
SEARCH = [
    ("search_tiny", [(3, 2, 1, 2, 1), (3, 2, 1, 0, 1), (3, 2, 1, 0, 2), (3, 2, 3, 4, 1)]),
    ("search_small", [(3, 2, 1, 2, 2), (3, 2, 5, 8, 1)]),
    ("search_mid", [(3, 2, 3, 6, 1), (3, 2, 5, 10, 1)]),
    ("search_medium", [(5, 2, 1, 4, 1), (5, 4, 3, 8, 1)]),
    ("search_f9", [(3, 2, 3, 4, 2)]),
    ("search_large_f25", [(5, 2, 1, 2, 2)]),
    ("search_large_f7", [(7, 2, 1, 4, 1)]),
    ("search_exhaust_3_2_7_12", [(3, 2, 7, 12, 1)]),
    ("search_5_4_3_12", [(5, 4, 3, 12, 1)]),
]


def build_search(cli, rng):
    classes = {}
    for name, quads in SEARCH:
        cands = []
        for p, m, u, n1, k in quads:
            for iso in (False, True):
                argv = ["search", "--p", p, "--m", m, "--u", u, "--n1", n1,
                        "--field-degree", k] + (["--isolated"] if iso else [])
                meta = {"kind": "search", "subcommand": "search", "p": p,
                        "field_degree": k, "isolated": iso}
                cands.append(_job(cli, argv, meta))
        _fill(name, cands, classes)
    return {
        "round": [
            ["search_tiny", 12], ["search_small", 12], ["search_mid", 4],
            ["search_medium", 4], ["search_f9", 2], ["search_large_f25", 1],
            ["search_large_f7", 4], ["search_exhaust_3_2_7_12", 1],
            ["search_5_4_3_12", 1],
        ],
        "classes": classes,
    }


# -- witt ----------------------------------------------------------------------


def _laurent(rng, p, const):
    exps = sorted(rng.sample(range(-12, 0), rng.randrange(1, 4)))
    terms = [f"{rng.randrange(1, p)}*t^{e}" for e in exps]
    if const:
        terms.append(str(rng.randrange(1, p)))
    return "+".join(terms)


def _witt_candidates(rng, p, level, const, count=60):
    for _ in range(count):
        # a constant in slot 0 of a level-3 vector always forces F_{3^27}
        const_slot = rng.choice((1, 2)) if level == 3 else rng.randrange(level)
        slots = [_laurent(rng, p, const and i == const_slot) for i in range(level)]
        yield (["witt", "breaks", "--p", p, "--entries", ";".join(slots)],
               {"kind": "witt", "subcommand": "witt breaks", "p": p,
                "field_degree": 1, "level": level, "constant": const})


# (class, p, level, constant terms, cost window in ms).  Constant terms only
# where the forced extension stays within the CLI cap: F_27 and F_{3^9} for
# p = 3, F_{5^5} for p = 5 at level 1.
WITT = [
    ("witt_p3_l1", 3, 1, False, 0, 50), ("witt_p3_l1_const", 3, 1, True, 0, 50),
    ("witt_p5_l1", 5, 1, False, 0, 50), ("witt_p5_l1_const", 5, 1, True, 0, 50),
    ("witt_p3_l2", 3, 2, False, 0, 50), ("witt_p3_l2_const", 3, 2, True, 0, 50),
    ("witt_p5_l2", 5, 2, False, 0, 50),
    ("witt_p3_l3_fast", 3, 3, False, 0, 30), ("witt_p3_l3_slow", 3, 3, False, 30, 300),
    ("witt_p3_l3_const", 3, 3, True, 0, 400), ("witt_p5_l3", 5, 3, False, 0, 300),
]
PLAN_GROUPS = [(3, 2, 2), (3, 2, 3), (5, 2, 2), (5, 4, 2), (7, 2, 2), (7, 3, 2),
               (7, 3, 3), (5, 4, 3), (7, 6, 2), (11, 2, 2), (13, 4, 2), (5, 2, 3)]
JUMP_GROUPS = [(3, 2), (5, 2), (5, 4), (7, 3), (7, 2), (13, 4)]


def _jumps(rng, p, m):
    u = rng.randrange(m - 1, 60, m)
    while u % p == 0:
        u += m
    seq = [u]
    for _ in range(rng.randrange(1, 4)):
        nxt = p * seq[-1] + rng.randrange(0, 4 * m * p)
        while nxt % m != m - 1:
            nxt += 1
        seq.append(nxt)
    return seq


def build_witt(cli, rng):
    classes = {}
    for name, p, level, const, lo, hi in WITT:
        _fill(name, (_job(cli, a, meta, lo, hi, codes=(0,))
                     for a, meta in _witt_candidates(rng, p, level, const)), classes)
    _fill("reduce_jumps", (
        _job(cli, ["reduce-jumps", "--p", p, "--m", m,
                   "--jumps", ",".join(map(str, _jumps(rng, p, m)))],
             {"kind": "reduce", "subcommand": "reduce-jumps", "p": p}, codes=(0,))
        for p, m in JUMP_GROUPS * 2), classes)
    _fill("plan", (
        _job(cli, ["plan", "--p", p, "--m", m, "--n", n],
             {"kind": "plan", "subcommand": "plan", "p": p, "level": n}, codes=(0,))
        for p, m, n in PLAN_GROUPS), classes)
    return {
        "round": [
            ["witt_p3_l1", 6], ["witt_p3_l1_const", 6], ["witt_p5_l1", 6],
            ["witt_p5_l1_const", 6], ["witt_p3_l2", 6], ["witt_p3_l2_const", 12],
            ["witt_p5_l2", 12], ["witt_p3_l3_fast", 12], ["witt_p3_l3_slow", 12],
            ["witt_p3_l3_const", 12], ["witt_p5_l3", 12], ["reduce_jumps", 6],
            ["plan", 12],
        ],
        "classes": classes,
    }


def mix(spec: dict) -> dict:
    """Expected jobs per round, counted by subcommand, p, field degree and
    Witt level (members of a class are drawn with equal probability)."""
    counts: dict = {"subcommand": {}, "p": {}, "field_degree": {}, "level": {}}
    for name, count in spec["round"]:
        members = spec["classes"][name]
        share = count / len(members)
        for job in members:
            for key in counts:
                value = job["meta"].get(key)
                if value is None:
                    continue
                bucket = counts[key]
                bucket[str(value)] = round(bucket.get(str(value), 0) + share, 3)
    return counts


def main() -> int:
    jobs.ensure_source()
    from ddcrit import cli

    rng = random.Random(CATALOG_SEED)
    catalog = {
        "about": "Generated by perfbench/build_catalog.py; do not edit by hand.",
        "catalog_seed": CATALOG_SEED,
        "workloads": {},
    }
    for name, build in (("certify", build_certify), ("search", build_search),
                        ("witt", build_witt)):
        print(name, flush=True)
        spec = build(cli, rng)
        for cls, _count in spec["round"]:
            if cls not in spec["classes"]:
                raise SystemExit(f"round names unknown class {cls}")
        spec["mix_per_round"] = mix(spec)
        catalog["workloads"][name] = spec
    with open(jobs.CATALOG, "w") as fh:
        json.dump(catalog, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
