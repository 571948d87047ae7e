"""Meromorphic differential forms h(t)·dt with Laurent-polynomial h, the
Cartier operator, and the differential data criterion check.

The criterion for a quadruple (p, m, u~, N1) and f in k[t^m] of degree N1 is
checked on the exact Laurent identity

    C(f^(p-1) · t^(-u~-1) dt) = (1 + u·f) · t^(-u~-1) dt,

which is equivalent to C(omega) = omega + u·t^(-u~-1) dt for
omega = dt/(f·t^(u~+1)) by semilinearity of C, and needs no rational
function arithmetic or series truncation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    BadSupport,
    InvalidQuadruple,
    VanishesAtZero,
    WrongDegree,
    ZeroRoot,
)
from .gf import pth_root
from .poly import LaurentPoly, Poly


@dataclass(frozen=True)
class LaurentForm:
    """The differential form h·dt."""

    h: LaurentPoly

    @property
    def spec(self):
        return self.h.spec

    def __bool__(self):
        return bool(self.h)

    def __add__(self, other):
        return LaurentForm(self.h + other.h)

    def __sub__(self, other):
        return LaurentForm(self.h - other.h)

    def __neg__(self):
        return LaurentForm(-self.h)

    def to_json(self):
        return self.h.to_json()


def _prime_to_p_part(n: int, p: int) -> tuple[int, int]:
    nu = 0
    while n % p == 0:
        n //= p
        nu += 1
    return n, nu


@dataclass(frozen=True)
class Quadruple:
    """(p, m, u~, N1) with m | p-1, m > 1, u~ = -1 mod m, m | N1.

    ``u`` is the prime-to-p part of u~ and ``nu`` its p-adic valuation."""

    p: int
    m: int
    u_tilde: int
    n1: int
    u: int = field(init=False)
    nu: int = field(init=False)

    def __post_init__(self):
        from .gf import is_prime

        if not is_prime(self.p) or self.p == 2:
            raise InvalidQuadruple(f"p = {self.p} must be an odd prime")
        if self.m <= 1 or (self.p - 1) % self.m != 0:
            raise InvalidQuadruple(f"m = {self.m} must exceed 1 and divide p-1")
        if self.u_tilde < 1 or self.u_tilde % self.m != self.m - 1:
            raise InvalidQuadruple(f"u~ = {self.u_tilde} must be -1 mod m")
        if self.n1 < 0 or self.n1 % self.m != 0:
            raise InvalidQuadruple(f"N1 = {self.n1} must be a nonnegative multiple of m")
        u, nu = _prime_to_p_part(self.u_tilde, self.p)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "nu", nu)

    def to_json(self):
        return {"p": self.p, "m": self.m, "u_tilde": self.u_tilde, "n1": self.n1}


def cartier(w: LaurentForm) -> LaurentForm:
    """C(sum a_i t^i dt) = sum over i = -1 mod p of a_i^(1/p) t^((i+1)/p - 1) dt."""
    p = w.spec.p
    terms = {}
    for e, c in w.h.terms():
        if (e + 1) % p == 0:
            terms[(e + 1) // p - 1] = pth_root(c)
    return LaurentForm(LaurentPoly.from_terms(w.spec, terms))


def is_exact(w: LaurentForm) -> bool:
    """True iff no exponent of w is -1 mod p, i.e. C(w) = 0, i.e. w = dh."""
    p = w.spec.p
    return all((e + 1) % p != 0 for e, _ in w.h.terms())


def validate_shape(q: Quadruple, f: Poly) -> None:
    """Shape preconditions on f: support in t^m, degree exactly N1, f(0) != 0."""
    for i, c in enumerate(f.coeffs):
        if c and i % q.m != 0:
            raise BadSupport(f"coefficient of t^{i} nonzero but m = {q.m}")
    if f.degree != q.n1:
        raise WrongDegree(f"deg f = {f.degree}, expected {q.n1}")
    if not f.coeffs or not f.coeffs[0]:
        raise VanishesAtZero("f(0) = 0")


def ddc_check(q: Quadruple, f: Poly) -> bool:
    """Differential data criterion via the polynomial identity
    C(f^(p-1) t^(-u~-1) dt) = (1 + u f) t^(-u~-1) dt."""
    validate_shape(q, f)
    spec = f.spec
    shift = -(q.u_tilde + 1)
    lhs = cartier(
        LaurentForm(LaurentPoly.from_poly(f ** (q.p - 1), shift))
    )
    u_scalar = spec.from_int(q.u)
    one_plus_uf = Poly(spec, [spec.one()]) + f * u_scalar
    rhs = LaurentForm(LaurentPoly.from_poly(one_plus_uf, shift))
    return lhs == rhs


def dlog_truncated(factors, trunc: int, spec=None) -> LaurentForm:
    """Logarithmic derivative of prod_j (1 - x_j t^-1)^(a_j), expanded in
    powers of t^-1 through exponent -(trunc+1).

    The t^(-q-1) dt coefficient is sum_j a_j x_j^q; each a_j is an integer
    exponent, each x_j a nonzero field element.  An empty factor list yields
    the zero form (spec must then be passed explicitly).
    """
    if trunc < 1:
        raise ValueError("truncation order must be >= 1")
    if not factors:
        if spec is None:
            raise ValueError("spec required for an empty factor list")
        return LaurentForm(LaurentPoly.zero(spec))
    spec = factors[0][0].spec
    if any(not x for x, _ in factors):
        raise ZeroRoot("dlog factors require nonzero roots")
    terms = {}
    for x, a in factors:
        xq = x
        for exp in range(1, trunc + 1):
            key = -exp - 1
            contrib = xq * a
            prev = terms.get(key)
            terms[key] = prev + contrib if prev is not None else contrib
            xq = xq * x
    return LaurentForm(LaurentPoly.from_terms(spec, terms))
