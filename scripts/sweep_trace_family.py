#!/usr/bin/env python3
"""Sweep the trace-construction family and report the isolation dichotomy:
power sums always hold, and the Jacobian is nonsingular exactly when
u~ = (m-1) p^nu.
"""

import argparse
import json

from ddcrit.construct import construct_trace
from ddcrit.criterion import certify_data
from ddcrit.errors import DdcritError


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--primes", default="3,5,7")
    ap.add_argument("--steps", type=int, default=4,
                    help="number of u~ values per (p, m), spaced by m")
    ap.add_argument("--degree-cap", type=int, default=8)
    args = ap.parse_args()

    for p in (int(x) for x in args.primes.split(",")):
        for m in (d for d in range(2, p) if (p - 1) % d == 0):
            for u_tilde in range(m - 1, args.steps * m, m):
                try:
                    rd = construct_trace(p, m, u_tilde, degree_cap=args.degree_cap)
                except DdcritError as exc:
                    print(json.dumps({
                        "p": p, "m": m, "u_tilde": u_tilde,
                        "skipped": str(exc),
                    }))
                    continue
                cert = certify_data(rd)
                print(json.dumps({
                    "p": p, "m": m, "u_tilde": u_tilde,
                    "splitting_degree": rd.splitting_degree,
                    "orbits": len(rd.reps),
                    "power_sum": cert.power_sum_ok,
                    "isolated": cert.isolated,
                    "expected_isolated":
                        u_tilde == (m - 1) * p**rd.quadruple.nu,
                }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
