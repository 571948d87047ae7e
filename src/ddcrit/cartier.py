"""Meromorphic differential forms h(t)·dt with Laurent-polynomial h, the
Cartier operator, and the differential data criterion check.  A form h·dt
is passed and returned as its LaurentPoly h.

The criterion for a quadruple (p, m, u~, N1) and f in k[t^m] of degree N1 is
checked on the exact Laurent identity

    C(f^(p-1) · t^(-u~-1) dt) = (1 + u·f) · t^(-u~-1) dt,

which is equivalent to C(omega) = omega + u·t^(-u~-1) dt for
omega = dt/(f·t^(u~+1)) by semilinearity of C, and needs no rational
function arithmetic or series truncation.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from .errors import BadSupport, InvalidQuadruple, VanishesAtZero, WrongDegree
from .gf import is_prime
from .poly import LaurentPoly, Poly


def _prime_to_p_part(n: int, p: int) -> tuple[int, int]:
    nu = 0
    while n % p == 0:
        n //= p
        nu += 1
    return n, nu


@functools.lru_cache(maxsize=None)
def _group_error(p: int, m: int) -> str | None:
    """The error text unless p is an odd prime and 1 < m | p - 1, else None,
    decided once per pair (``Quadruple``, ``planner._check_group``)."""
    if not is_prime(p) or p == 2:
        return f"p = {p} must be an odd prime"
    if m <= 1 or (p - 1) % m != 0:
        return f"m = {m} must exceed 1 and divide p-1"
    return None


class Quadruple(namedtuple("Quadruple", "p m u_tilde n1 u nu")):
    """(p, m, u~, N1) with m | p-1, m > 1, u~ = -1 mod m, m | N1.

    Fields: ``p``, ``m``, ``u_tilde`` and ``n1``, the ints it is built from,
    then ``u: int``, the prime-to-p part of u~, and ``nu: int``, its p-adic
    valuation, which it derives.  ``_replace`` validates and derives them
    again."""

    __slots__ = ()

    def __new__(cls, p, m, u_tilde, n1):
        if error := _group_error(p, m):
            raise InvalidQuadruple(error)
        if u_tilde < 1 or u_tilde % m != m - 1:
            raise InvalidQuadruple(f"u~ = {u_tilde} must be -1 mod m")
        if n1 < 0 or n1 % m != 0:
            raise InvalidQuadruple(f"N1 = {n1} must be a nonnegative multiple of m")
        return super().__new__(cls, p, m, u_tilde, n1, *_prime_to_p_part(u_tilde, p))

    @classmethod
    def _make(cls, fields):
        return cls(*tuple(fields)[:4])

    def __getnewargs__(self):
        return self[:4]

    def to_json(self):
        return {"p": self.p, "m": self.m, "u_tilde": self.u_tilde, "n1": self.n1}


def cartier(h: LaurentPoly) -> LaurentPoly:
    """C(h dt) = h' dt for h = sum a_i t^i: h' = sum over i = -1 mod p of
    a_i^(1/p) t^((i+1)/p - 1), so the coefficients of h' are every p-th
    coefficient of h from the first exponent that is -1 mod p."""
    spec = h.spec
    p = spec.p
    start = (-h.low - 1) % p
    return LaurentPoly._make(
        spec,
        (h.low + start + 1) // p - 1,
        list(map(spec._ops.pth_root, h.values[start::p])),
    )


def validate_shape(q: Quadruple, f: Poly) -> None:
    """Shape preconditions on f: support in t^m, degree exactly N1, f(0) != 0."""
    zero = f.spec._zero
    for i, c in enumerate(f.values):
        if c != zero and i % q.m != 0:
            raise BadSupport(f"coefficient of t^{i} nonzero but m = {q.m}")
    if f.degree != q.n1:
        raise WrongDegree(f"deg f = {f.degree}, expected {q.n1}")
    if not f.values or f.values[0] == zero:
        raise VanishesAtZero("f(0) = 0")


def ddc_check(q: Quadruple, f: Poly) -> bool:
    """Differential data criterion via the polynomial identity
    C(f^(p-1) t^(-u~-1) dt) = (1 + u f) t^(-u~-1) dt."""
    validate_shape(q, f)
    spec = f.spec
    shift = -(q.u_tilde + 1)
    lhs = cartier(LaurentPoly.from_poly(f ** (q.p - 1), shift))
    one_plus_uf = Poly.one(spec) + f * q.u
    return lhs == LaurentPoly.from_poly(one_plus_uf, shift)
