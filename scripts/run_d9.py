#!/usr/bin/env python3
"""End-to-end run for the p=3, m=2, n=2 group: plan the quadruples and
break profiles, certify a witness for each quadruple, and print the
lifting radii per profile step.
"""

import argparse
import json

from ddcrit.planner import profile_steps, profiles_for_group
from ddcrit.search import search_group


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=3)
    ap.add_argument("--m", type=int, default=2)
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--field-degree", type=int, default=1)
    args = ap.parse_args()

    result = search_group(args.p, args.m, args.n, args.field_degree)
    for line in result.to_json_lines():
        print(line)

    for prof in profiles_for_group(args.p, args.m, args.n):
        for i, _, r in profile_steps(args.p, args.m, prof):
            step = list(prof.breaks[i - 1 : i + 1])
            print(json.dumps({"profile": list(prof.breaks), "step": step} | r.to_json()))
    return 0 if result.complete else 1


if __name__ == "__main__":
    raise SystemExit(main())
