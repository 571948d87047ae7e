"""Exhaustive, deterministic search for criterion witnesses over a chosen
finite field, with closed-form fast paths for the known families."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from .cartier import Quadruple, ddc_check
from .construct import construct_small, construct_trace
from .criterion import Certificate, certify, reconstruct_f
from .errors import DdcritError
from .gf import make_field
from .planner import quadruples_for_group
from .poly import Poly

MAX_FIELD_DEGREE = 8


@dataclass(frozen=True)
class NotFound:
    """Negative (or aborted) search outcome.  A complete exhaustion does not
    refute existence over larger fields."""

    quadruple: Quadruple
    field_degree: int
    require_isolated: bool
    candidates_tried: int
    complete: bool

    def to_json(self):
        return {
            "quadruple": self.quadruple.to_json(),
            "field_degree": self.field_degree,
            "require_isolated": self.require_isolated,
            "candidates_tried": self.candidates_tried,
            "complete": self.complete,
            "found": False,
        }


def _candidate(q: Quadruple, spec, index: int) -> Poly:
    """The index-th candidate f = sum c_i t^(im), lexicographic in
    (c_0, ..., c_top) with c_0 most significant; c_0 and c_top nonzero."""
    order = spec.order
    ncoeff = q.n1 // q.m + 1
    digits = []
    if ncoeff == 1:
        digits = [index + 1]
    else:
        rest = index
        top = rest % (order - 1) + 1
        rest //= order - 1
        mid = []
        for _ in range(ncoeff - 2):
            mid.append(rest % order)
            rest //= order
        c0 = rest + 1
        digits = [c0] + list(reversed(mid)) + [top]
    coeffs = {}
    for i, d in enumerate(digits):
        coeffs[i * q.m] = spec.element_by_index(d)
    return Poly(
        spec,
        [coeffs.get(i, spec.zero()) for i in range(q.n1 + 1)],
    )


def candidate_count(q: Quadruple, spec) -> int:
    order = spec.order
    ncoeff = q.n1 // q.m + 1
    if ncoeff == 1:
        return order - 1
    return (order - 1) ** 2 * order ** (ncoeff - 2)


def _passes(cert: Certificate, require_isolated: bool) -> bool:
    if not (cert.ddc_ok and cert.power_sum_ok):
        return False
    return cert.isolated if require_isolated else True


def brute_search(
    q: Quadruple,
    field_degree: int,
    require_isolated: bool = False,
    budget_seconds: float | None = None,
):
    """First witness for q over F_{p^field_degree} in deterministic candidate
    order, or NotFound.  The budget is checked before every candidate; an
    overrun aborts cleanly with complete=False."""
    if not 1 <= field_degree <= MAX_FIELD_DEGREE:
        raise ValueError(f"field degree must be in [1, {MAX_FIELD_DEGREE}]")
    spec = make_field(q.p, field_degree)
    total = candidate_count(q, spec)
    deadline = (
        time.monotonic() + budget_seconds if budget_seconds is not None else None
    )
    for i in range(total):
        if deadline is not None and time.monotonic() > deadline:
            return NotFound(q, field_degree, require_isolated, i, False)
        f = _candidate(q, spec, i)
        if ddc_check(q, f):
            cert = certify(q, f)
            if _passes(cert, require_isolated):
                return cert
    return NotFound(q, field_degree, require_isolated, total, True)


@dataclass(frozen=True)
class GroupSearchResult:
    p: int
    m: int
    n: int
    results: dict  # Quadruple -> Certificate | NotFound
    complete: bool

    def to_json_lines(self) -> list[str]:
        lines = [json.dumps(r.to_json()) for r in self.results.values()]
        lines.append(
            json.dumps(
                {
                    "group": {"p": self.p, "m": self.m, "n": self.n},
                    "complete": self.complete,
                }
            )
        )
        return lines


def _fast_path(q: Quadruple) -> Certificate | None:
    """Closed-form witness when q matches a known family, else None."""
    rd = None
    try:
        if q.m == 2 and q.u_tilde == 1 and q.n1 in (q.p - 1, q.p - 3, 0):
            rd = construct_small(q.p, q.n1)
        elif q.u_tilde == (q.m - 1) * q.p**q.nu and q.n1 == (q.p - 1) * q.u_tilde:
            rd = construct_trace(q.p, q.m, q.u_tilde)
    except DdcritError:
        return None
    if rd is None:
        return None
    try:
        cert = certify(q, reconstruct_f(rd))
    except DdcritError:
        return None
    return cert if cert.all_ok else None


def search_group(
    p: int,
    m: int,
    n: int,
    field_degree: int,
    require_isolated: bool = True,
    budget_seconds: float | None = None,
) -> GroupSearchResult:
    """Certify every quadruple the group Z/p^n x| Z/m requires, trying the
    closed-form families before the brute-force enumeration."""
    results = {}
    complete = True
    for q in quadruples_for_group(p, m, n):
        cert = _fast_path(q)
        if cert is None or (require_isolated and not cert.isolated):
            cert = brute_search(
                q,
                field_degree,
                require_isolated=require_isolated,
                budget_seconds=budget_seconds,
            )
        if isinstance(cert, NotFound):
            complete = False
        results[q] = cert
    return GroupSearchResult(p, m, n, results, complete)
