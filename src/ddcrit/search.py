"""Deterministic first-witness search for criterion witnesses over a chosen
finite field, with closed-form fast paths for the known families.

Candidates are f = sum_{i=0}^{top} c_i t^(im) with top = N1/m, in
lexicographic order of (c_0, ..., c_top): c_0 is the most significant, each
c_i runs over the field in ``element_by_index`` order, and c_0 and c_top are
nonzero.  A candidate's index in this order is its rank.

The search is a depth-first search over c_0, c_1, ..., pruned by the
criterion read one coefficient at a time.  ``ddc_check`` tests

    C(f^(p-1) t^(-u~-1) dt) = (1 + u f) t^(-u~-1) dt.

C takes g_k t^(k-u~-1) dt to g_k^(1/p) t^((k-u~)/p-1) dt when k = u~ mod p
and kills it otherwise, so comparing coefficients of t^(j-u~-1) dt gives,
for every integer j,

    [t^(pj-(p-1)u~)] f^(p-1) = ([t^j] (1 + u f))^p.

Both sides vanish unless m | j, because m | p-1 makes pj - (p-1)u~ = j
mod m.  Write s = t^m, F(s) = f, G = F^(p-1), H_0 = 1 + u c_0 and
H_a = u c_a for 0 < a <= top (0 beyond).  With j = am and w = (p-1)u~/m the
identity is the family of equations

    E_a:  G_{K_a} = H_a^p,    K_a = pa - w,

where G_k = 0 outside 0 <= k <= (p-1) top.  G_k depends on c_0..c_k only,
and on c_k linearly with coefficient (p-1) c_0^(p-2) != 0.  So E_a can be
checked once c_a and c_{K_a} are fixed (positions past top hold 0).  Since
K_a - a = (p-1)(a - u~/m) and am != u~ (u~ = -1 mod m), each E_a forces the
later of its two positions:

- am < u~: K_a < a, and E_a determines H_a^p, hence c_a (Frobenius is
  bijective).  E_0 gives H_0 = 0, that is c_0 = -1/u.
- am > u~: K_a > a, and E_a is linear in c_{K_a}.  So the coefficient of
  t^J is forced for every J > u~ with J = u~ mod p.  If K_a > (p-1) top,
  G_{K_a} = 0 and E_a forces c_a = 0 instead.

The search solves each forced coefficient instead of trying values and
branches over the field only at the other positions.  A further equation
completed at the same position (only possible at top or past it) prunes on
the first mismatch.  Only G itself is kept, one coefficient at a time: in
characteristic p, F G = F^p = sum_j c_j^p s^(pj), so

    c_0 G_i = [s^i] F^p - sum_(a >= 1) c_a G_(i-a),

and fixing a coefficient costs O(i) field operations.

Every equation a candidate fails rejects it, so the search visits exactly
the candidates that pass ``ddc_check``, in rank order; the first of them
that certifies is the least-rank witness.

The DFS keeps the c_i, G and the c_i-free parts of G as the field's stored
values (``FieldElement.v``, in the form ``gf`` chooses per field) and
computes on them through the field's ``StoredArithmetic``
(``FieldSpec._ops``).  It walks the values in index order through
``FieldSpec._value`` and turns them into indices, through
``FieldSpec._index``, only for the rank of an aborted search.  A leaf's
polynomial, which ``certify`` checks, holds those values as they stand: the
search builds no FieldElement.
"""

from __future__ import annotations

import json
import time
from collections import namedtuple

from .cartier import Quadruple
from .construct import construct_small, construct_trace
from .criterion import Certificate, certify, certify_data
from .errors import DdcritError, PruningMismatch
from .gf import make_field
from .planner import quadruples_for_group
from .poly import Poly

MAX_FIELD_DEGREE = 8


class NotFound(
    namedtuple(
        "NotFound",
        "quadruple field_degree require_isolated candidates_tried complete nodes",
    )
):
    """Negative (or aborted) search outcome.  A complete exhaustion does not
    refute existence over larger fields.  ``candidates_tried`` is the number
    of candidates decided, in rank order; ``nodes`` counts the coefficient
    assignments the search visited and stays out of the JSON.

    Fields: ``quadruple: Quadruple``, ``field_degree: int``,
    ``require_isolated: bool``, ``candidates_tried: int``, ``complete:
    bool`` and ``nodes: int``."""

    __slots__ = ()

    def to_json(self):
        return {
            "quadruple": self.quadruple.to_json(),
            "field_degree": self.field_degree,
            "require_isolated": self.require_isolated,
            "candidates_tried": self.candidates_tried,
            "complete": self.complete,
            "found": False,
        }


def candidate_count(q: Quadruple, spec) -> int:
    order = spec.order
    ncoeff = q.n1 // q.m + 1
    return (order - 1) ** min(ncoeff, 2) * order ** max(ncoeff - 2, 0)


def _equations(q: Quadruple) -> dict:
    """The equations E_a as (a, K_a) pairs, K_a = None where G_{K_a} is
    identically 0, keyed by the last position they involve; trivial ones
    (both sides identically 0) are left out."""
    p, top = q.p, q.n1 // q.m
    w = (p - 1) * q.u_tilde // q.m
    gdeg = (p - 1) * top
    by_last = {}
    for a in range(max(top, (gdeg + w) // p) + 1):
        k = p * a - w
        if not 0 <= k <= gdeg:
            k = None
        if a > top and k is None:
            continue
        last = max(a if a <= top else -1, -1 if k is None else k)
        by_last.setdefault(last, []).append((a, k))
    return by_last


class _PrunedSearch:
    """Depth-first search over c_0, ..., c_top that yields, in rank order,
    every candidate passing the coefficient equations.  A deadline is
    checked at every node; on overrun ``aborted_at`` is set to the rank of
    the first undecided candidate and the search stops.  The coefficients
    and G are kept as the field's stored values and computed on by its
    ``StoredArithmetic``; a leaf is a ``Poly`` on the same values."""

    def __init__(self, q: Quadruple, spec, deadline: float | None):
        self.q, self.spec, self.deadline = q, spec, deadline
        self.top = top = q.n1 // q.m
        self.by_last = _equations(q)
        self.length = max(self.by_last) + 1
        self.nodes = 0
        self.aborted_at = None
        self.ops = ops = spec._ops
        self.u = spec._int_value(q.u)
        self.values = [ops.zero] * (top + 1)
        # g[i] = G_i; rest[i] is G_i with c_i taken as 0, lin = -G_0/c_0
        # the coefficient of c_i in G_i for i > 0, and inv0 = 1/c_0
        self.g = [ops.zero] * self.length
        self.rest = [None] * (top + 1)
        self.lin = self.inv0 = None

    def leaves(self):
        top = self.top
        pending = [None] * (top + 1)
        pending[0] = self._choices(0)
        i = 0
        while i >= 0:
            c = next(pending[i], None)
            if c is None:
                i -= 1
                continue
            self.nodes += 1
            if self.deadline is not None and time.monotonic() > self.deadline:
                self.aborted_at = self._rank(i, c)
                return
            if not self._assign(i, c):
                continue
            if i < top:
                i += 1
                pending[i] = self._choices(i)
            else:
                yield self._poly()

    def _rank(self, i: int, c) -> int:
        """The rank of the least candidate whose leading coefficients are
        values[0..i-1], then c at i: a mixed-radix number over the element
        indices, with q - 1 digits at positions 0 and top and q between."""
        spec, top = self.spec, self.top
        digits = [spec._index(v) for v in self.values[:i] + [c]]
        rank = 0
        for j in range(top + 1):
            low = 1 if j in (0, top) else 0
            rank = rank * (spec.order - low) + (digits[j] - low if j <= i else 0)
        return rank

    def _choices(self, i: int):
        """Values to try at position i: the forced one, if an equation is
        completed here and its solution is admissible, else every value in
        index order.  Records the c_i-free part of G_i at i first."""
        if i > 0:
            self.rest[i] = self._rest(i)
        eqs = self.by_last.get(i)
        if eqs is None:
            spec = self.spec
            return map(spec._value, range(1 if i in (0, self.top) else 0, spec.order))
        c = self._solve(i, *eqs[0])
        if c == self.ops.zero and i in (0, self.top):
            return iter(())
        return iter((c,))

    def _rest(self, i: int):
        """G_i with c_i taken as 0, from F G = F^p = sum_j c_j^p s^(pj):
        c_0 G_i = [s^i] F^p - sum_(a >= 1) c_a G_(i-a)."""
        ops, c, p = self.ops, self.values, self.q.p
        if i % p == 0 and i // p <= self.top:
            acc = ops.frobenius(c[i // p])
        else:
            acc = ops.zero
        # c_a against G_(i-a) for 0 < a < min(i, top + 1)
        stop = min(i, self.top + 1)
        acc = ops.sub(acc, ops.dot(c[1:stop], self.g[i - 1 : i - stop : -1]))
        return ops.mul(acc, self.inv0)

    def _solve(self, i: int, a: int, k):
        """The c_i that satisfies E_a, whose last position is i."""
        ops = self.ops
        if a == i:
            h = ops.pth_root(ops.zero if k is None else self.g[k])
            if i == 0:
                h = ops.sub(h, ops.one)
            return ops.div(h, self.u)
        return ops.div(ops.sub(ops.frobenius(self._h(a)), self.rest[i]), self.lin)

    def _h(self, a: int):
        ops = self.ops
        if a > self.top:
            return ops.zero
        h = ops.mul(self.u, self.values[a])
        return ops.add(h, ops.one) if a == 0 else h

    def _assign(self, i: int, c) -> bool:
        """Fix c_i, update G at i and check every equation completed at i.
        At top, go on past it with zero coefficients, where G_k is its
        c_k-free part, stopping at the first mismatch."""
        ops, g, top = self.ops, self.g, self.top
        self.values[i] = c
        if i == 0:
            # G_0 = c_0^(p-1) = c_0^p / c_0
            g[0] = ops.div(ops.frobenius(c), c)
            self.lin = ops.sub(ops.zero, ops.div(g[0], c))
            self.inv0 = ops.div(ops.one, c)
        else:
            g[i] = ops.add(self.rest[i], ops.mul(self.lin, c))
        for k in range(i, self.length if i == top else i + 1):
            if k > top:
                g[k] = self._rest(k)
            for a, kk in self.by_last.get(k, ()):
                # E_a: G_kk = H_a^p
                if (ops.zero if kk is None else g[kk]) != ops.frobenius(self._h(a)):
                    return False
        return True

    def _poly(self) -> Poly:
        m, values, zero = self.q.m, self.values, self.ops.zero
        coeffs = [values[e // m] if e % m == 0 else zero for e in range(self.q.n1 + 1)]
        return Poly._make(self.spec, 0, coeffs)


def _passes(cert: Certificate, require_isolated: bool) -> bool:
    if not (cert.ddc_ok and cert.power_sum_ok):
        return False
    return cert.isolated if require_isolated else True


def first_witness(
    q: Quadruple,
    field_degree: int,
    require_isolated: bool = False,
    budget_seconds: float | None = None,
):
    """Least-rank witness for q over F_{p^field_degree}, or NotFound.  The
    budget (None or seconds >= 0) bounds the DFS: it is checked at every
    search node, and an overrun aborts cleanly with complete=False.  It does
    not bound certifying a leaf or rendering the winner."""
    if not 1 <= field_degree <= MAX_FIELD_DEGREE:
        raise ValueError(f"field degree must be in [1, {MAX_FIELD_DEGREE}]")
    if budget_seconds is not None and not budget_seconds >= 0:
        raise ValueError(f"budget must be seconds >= 0, not {budget_seconds}")
    spec = make_field(q.p, field_degree)
    deadline = (
        time.monotonic() + budget_seconds if budget_seconds is not None else None
    )
    search = _PrunedSearch(q, spec, deadline)
    for f in search.leaves():
        cert = certify(q, f)
        if not cert.ddc_ok:
            raise PruningMismatch(f"search accepted {f!r}, which fails ddc_check")
        if _passes(cert, require_isolated):
            return cert
    if search.aborted_at is not None:
        return NotFound(
            q, field_degree, require_isolated, search.aborted_at, False, search.nodes
        )
    return NotFound(
        q, field_degree, require_isolated, candidate_count(q, spec), True, search.nodes
    )


# The name the search had when it enumerated every candidate; kept public.
brute_search = first_witness


class GroupSearchResult(namedtuple("GroupSearchResult", "p m n results complete")):
    """The outcome of ``search_group`` for Z/p^n x| Z/m.

    Fields: ``p: int``, ``m: int``, ``n: int``, ``results: dict``
    (Quadruple -> Certificate | NotFound) and ``complete: bool``."""

    __slots__ = ()

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
    """Closed-form witness when q matches a known family and its certificate
    is ``all_ok``, else None."""
    try:
        if q.m == 2 and q.u_tilde == 1 and q.n1 in (q.p - 1, q.p - 3, 0):
            cert = certify_data(construct_small(q.p, q.n1))
        elif q.u_tilde == (q.m - 1) * q.p**q.nu and q.n1 == (q.p - 1) * q.u_tilde:
            cert = certify_data(construct_trace(q.p, q.m, q.u_tilde))
        else:
            return None
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
    closed-form families before the search."""
    results = {}
    complete = True
    for q in quadruples_for_group(p, m, n):
        cert = _fast_path(q)
        if cert is None:
            cert = first_witness(
                q,
                field_degree,
                require_isolated=require_isolated,
                budget_seconds=budget_seconds,
            )
        if isinstance(cert, NotFound):
            complete = False
        results[q] = cert
    return GroupSearchResult(p, m, n, results, complete)
