"""Exact univariate polynomial and Laurent polynomial arithmetic over an
explicit finite field, with factorization and deterministic root extraction
into a single splitting field.

All randomness in equal-degree splitting is replaced by a counter-based
candidate sequence, so results are bit-for-bit reproducible.
"""

from __future__ import annotations

import functools
import operator
from math import lcm

from .errors import (
    NotAField,
    NotOrbitClosed,
    RepeatedRoot,
    SpecMismatch,
    ZeroRoot,
)
from .gf import (
    FieldElement,
    FieldSpec,
    element_columns,
    kronecker_columns,
    kronecker_mul,
    make_field,
    pth_root,
    root_of_unity,
    square_and_multiply,
)

NEG_INF = float("-inf")


class Poly:
    """Dense univariate polynomial over a FieldSpec, ascending coefficients,
    canonical (no trailing zeros).  The zero polynomial has degree -inf."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.spec = spec
        self.coeffs = tuple(coeffs)

    @classmethod
    def from_ints(cls, spec: FieldSpec, ints) -> "Poly":
        return cls(spec, [spec.from_int(c) for c in ints])

    @classmethod
    def zero(cls, spec):
        return cls(spec, [])

    @classmethod
    def one(cls, spec):
        return cls(spec, [spec.one()])

    @classmethod
    def x(cls, spec):
        return cls(spec, [spec.zero(), spec.one()])

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.spec == other.spec
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.spec, self.coeffs))

    def __repr__(self):
        return f"Poly({[c.coeffs for c in self.coeffs]})"

    def _check(self, other):
        if self.spec != other.spec:
            raise SpecMismatch("polynomials over different field specs")

    def __add__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        z = self.spec.zero()
        a = list(self.coeffs) + [z] * (n - len(self.coeffs))
        b = list(other.coeffs) + [z] * (n - len(other.coeffs))
        return Poly(self.spec, [x + y for x, y in zip(a, b)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Poly(self.spec, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return Poly(self.spec, [c * other for c in self.coeffs])
        self._check(other)
        return Poly(self.spec, kronecker_mul(self.coeffs, other.coeffs, self.spec))

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        return square_and_multiply(self, e, operator.mul) if e else Poly.one(self.spec)

    def monic(self) -> "Poly":
        if not self:
            return self
        return self * self.coeffs[-1].inverse()

    def divmod(self, other: "Poly"):
        self._check(other)
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        z = self.spec.zero()
        rem = list(self.coeffs)
        quot = [z] * max(0, len(rem) - len(other.coeffs) + 1)
        lead = other.coeffs[-1]
        inv_lead = None if lead == self.spec.one() else lead.inverse()
        db = len(other.coeffs) - 1
        while len(rem) - 1 >= db and rem:
            c = rem[-1] if inv_lead is None else rem[-1] * inv_lead
            shift = len(rem) - 1 - db
            if c:
                quot[shift] = c
                for i, b in enumerate(other.coeffs):
                    rem[shift + i] = rem[shift + i] - c * b
            rem.pop()
        return Poly(self.spec, quot), Poly(self.spec, rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while b:
            a, b = b, a % b
        return a.monic()

    def derivative(self) -> "Poly":
        return Poly(
            self.spec, [c * i for i, c in enumerate(self.coeffs)][1:]
        )

    def evaluate(self, x: FieldElement) -> FieldElement:
        acc = x.spec.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def is_squarefree(self) -> bool:
        if not self:
            return False
        d = self.derivative()
        if not d:
            return self.degree == 0
        return self.gcd(d).degree == 0

    def map_coeffs(self, fn, spec: FieldSpec) -> "Poly":
        return Poly(spec, [fn(c) for c in self.coeffs])

    def to_json(self):
        return [c.to_json() for c in self.coeffs]


class _Reducer:
    """Remainders modulo one fixed polynomial m of degree n >= 1 by a
    precomputed reciprocal (Barrett/Newton reduction): two products of the
    multiply kernel per remainder, on coefficients in column form
    (``gf.element_columns``).

    m is made monic, which leaves every remainder unchanged.  With
    rev(m) = t^n m(1/t), whose constant term is 1, ``inv`` is
    rev(m)^-1 mod t^(n-1), found once by Newton iteration.  For c of
    length n + L with L <= n - 1, the quotient c div m has L terms and its
    reversal is rev(c[n:]) * inv mod t^L; the remainder is the low n
    coefficients of c - q*m, and only m's terms below t^n reach them."""

    __slots__ = ("spec", "mod", "low", "inv")

    def __init__(self, mod: Poly):
        spec = mod.spec
        p = spec.p
        self.spec = spec
        self.mod = mod.monic()
        m = self.mod.coeffs
        n = len(m) - 1
        self.low = element_columns(m[:n], spec.k)
        rev = element_columns(m[::-1], spec.k)
        # g <- g - t^a g h, where rev(m) g = 1 + t^a h mod t^l, l <= 2a,
        # doubles the precision a of g = rev(m)^-1
        inv = [[d] for d in spec.one().coeffs]
        while len(inv[0]) < n - 1:
            a = len(inv[0])
            l = min(2 * a, n - 1)
            h = kronecker_columns([c[:l] for c in rev], inv, spec)
            gh = kronecker_columns(inv, [c[a:l] for c in h], spec)
            inv = [c + [-d % p for d in e[: l - a]] for c, e in zip(inv, gh)]
        self.inv = inv

    def reduce(self, c: list) -> list:
        """c mod m for the columns c of at most 2n - 1 coefficients, as the
        columns of at most n coefficients (trailing zeros possible)."""
        n = len(self.low[0])
        size = len(c[0]) - n
        if size <= 0:
            return c
        spec, p = self.spec, self.spec.p
        top = [col[: n - 1 : -1] for col in c]
        q = kronecker_columns(top, [col[:size] for col in self.inv], spec)
        q = [col[size - 1 :: -1] for col in q]
        return [
            [(u - v) % p for u, v in zip(col[:n], qm)]
            for col, qm in zip(c, kronecker_columns(q, self.low, spec))
        ]


def _powmod(base: Poly, e: int, red: _Reducer) -> Poly:
    """base^e modulo the reducer's modulus by square-and-multiply."""
    spec = base.spec
    if not e:
        return Poly.one(spec)
    base = element_columns((base % red.mod).coeffs, spec.k)
    mul = lambda a, b: red.reduce(kronecker_columns(a, b, spec))  # noqa: E731
    result = square_and_multiply(base, e, mul)
    return Poly(spec, [FieldElement(spec, c) for c in zip(*result)])


# -- factorization -----------------------------------------------------------


def _pth_root_poly(f: Poly) -> Poly:
    """For f = g(t^p), return g (coefficientwise p-th roots)."""
    p = f.spec.p
    coeffs = [pth_root(f.coeffs[i]) for i in range(0, len(f.coeffs), p)]
    return Poly(f.spec, coeffs)


def squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Yun-style decomposition valid in characteristic p; returns monic
    (factor, multiplicity) pairs with the factors squarefree and coprime."""
    f = f.monic()
    out: list[tuple[Poly, int]] = []

    def accumulate(g: Poly, scale: int):
        # classical loop; p-th power parts recurse with multiplicity * p
        d = g.derivative()
        if not d:
            if g.degree == 0:
                return
            accumulate(_pth_root_poly(g), scale * g.spec.p)
            return
        c = g.gcd(d)
        w = g // c
        mult = 1
        while w.degree > 0:
            y = w.gcd(c)
            factor = w // y
            if factor.degree > 0:
                out.append((factor.monic(), mult * scale))
            w = y
            c = c // y
            mult += 1
        if c.degree > 0:
            accumulate(_pth_root_poly(c), scale * g.spec.p)

    accumulate(f, 1)
    return out


def distinct_degree_factorization(f: Poly) -> list[tuple[Poly, int]]:
    """Split squarefree monic f into (product-of-irreducibles, degree) pairs."""
    spec = f.spec
    q = spec.order
    out = []
    x = Poly.x(spec)
    h = x
    d = 0
    rest = f
    red = _Reducer(rest)
    while rest.degree > 0:
        d += 1
        if 2 * d > rest.degree:
            out.append((rest, int(rest.degree)))
            break
        h = _powmod(h, q, red)
        g = rest.gcd(h - x)
        if g.degree > 0:
            out.append((g, d))
            rest = rest // g
            h = h % rest
            red = _Reducer(rest)
    return out


def _candidate_polys(spec: FieldSpec, max_degree: int):
    """Deterministic counter-based candidate sequence for equal-degree
    splitting: all polynomials of degree 1, then 2, ... in element order.
    Lazy, so huge fields only pay for the candidates actually drawn."""
    for deg in range(1, max_degree + 1):
        for lead_idx in range(1, spec.order):
            lead = spec.element_by_index(lead_idx)
            for rest_idx in range(spec.order**deg):
                rest = []
                r = rest_idx
                for _ in range(deg):
                    rest.append(spec.element_by_index(r % spec.order))
                    r //= spec.order
                yield Poly(spec, rest + [lead])


def equal_degree_factorization(f: Poly, d: int) -> list[Poly]:
    """Split a squarefree monic product of degree-d irreducibles."""
    spec = f.spec
    if f.degree == d:
        return [f]
    exponent = (spec.order**d - 1) // 2
    red = _Reducer(f)
    for cand in _candidate_polys(spec, 2 * d):
        h = _powmod(cand, exponent, red)
        g = f.gcd(h - Poly.one(spec))
        if 0 < g.degree < f.degree:
            return sorted(
                equal_degree_factorization(g, d)
                + equal_degree_factorization(f // g, d),
                key=lambda t: [c.sort_key() for c in t.coeffs],
            )
    raise AssertionError("equal-degree splitting exhausted candidates")


def factor(f: Poly) -> list[tuple[Poly, int]]:
    """Monic irreducible factors with multiplicities, deterministic order."""
    out = []
    for sqf, mult in squarefree_decomposition(f):
        for prod, d in distinct_degree_factorization(sqf):
            for irr in equal_degree_factorization(prod, d):
                out.append((irr, mult))
    out.sort(key=lambda t: (t[0].degree, [c.sort_key() for c in t[0].coeffs]))
    return out


# -- embeddings and splitting fields ----------------------------------------


@functools.lru_cache(maxsize=None)
def _embedding_image(src: FieldSpec, dst: FieldSpec) -> FieldElement:
    """Image of the generator of src in dst: the least root of src.modulus."""
    if src.p != dst.p or dst.k % src.k != 0:
        raise SpecMismatch("no embedding between these field specs")
    modulus = Poly(dst, [dst.from_int(c) for c in src.modulus])
    roots = roots_in_field(modulus)
    if not roots:
        raise AssertionError("modulus has no root in the extension (unreachable)")
    return min(roots, key=FieldElement.sort_key)


def embed(x: FieldElement, dst: FieldSpec) -> FieldElement:
    """Embed x into the extension field dst (src degree must divide dst's)."""
    src = x.spec
    if src == dst:
        return x
    if src.k == 1:
        return dst.from_int(x.coeffs[0])
    return Poly.from_ints(dst, x.coeffs).evaluate(_embedding_image(src, dst))


def embed_poly(f: Poly, dst: FieldSpec) -> Poly:
    return f.map_coeffs(lambda c: embed(c, dst), dst)


def roots_in_field(f: Poly) -> list[FieldElement]:
    """All roots of f lying in its own coefficient field (with multiplicity),
    in deterministic element order."""
    spec = f.spec
    out = []
    for sqf, mult in squarefree_decomposition(f):
        # the product of linear factors of sqf is gcd(t^q - t, sqf)
        x = Poly.x(spec)
        xq = _powmod(x, spec.order, _Reducer(sqf))
        lin = sqf.gcd(xq - x)
        if lin.degree <= 0:
            continue
        for irr in equal_degree_factorization(lin, 1):
            root = -irr.coeffs[0]
            out.extend([root] * mult)
    out.sort(key=FieldElement.sort_key)
    return out


def roots_in_splitting_field(f: Poly):
    """Return (D, roots): splitting-field degree D over F_p and all roots of
    f (with multiplicity), co-embedded into F_{p^D}, deterministic order.

    A nonzero constant yields (spec.k, [])."""
    if not f:
        raise ValueError("zero polynomial has no splitting field")
    spec = f.spec
    factors = factor(f) if f.degree > 0 else []
    degrees = [int(g.degree) for g, _ in factors]
    rel = lcm(*degrees) if degrees else 1
    big_degree = spec.k * rel
    big = make_field(spec.p, big_degree)
    roots: list[FieldElement] = []
    for g, mult in factors:
        if g.degree == 1:
            rs = [embed(-g.coeffs[0], big)]
        else:
            # one root, then its Frobenius orbit over the base field
            r0 = _one_root(g, big)
            rs = [r0]
            q0 = spec.order
            nxt = r0**q0
            while nxt != r0:
                rs.append(nxt)
                nxt = nxt**q0
            if len(rs) != g.degree:
                raise AssertionError("Frobenius orbit shorter than factor degree")
        for r in rs:
            roots.extend([r] * mult)
    roots.sort(key=FieldElement.sort_key)
    return big_degree, roots


def _one_root(g: Poly, big: FieldSpec) -> FieldElement:
    """One root in big = F_{p^D} of a monic irreducible g of degree >= 2
    over its own field F_q (q = p^k), which splits in big, by Berlekamp's
    trace splitting.

    X_i = x^(p^i) mod g, computed over F_q, repeats with period k deg g.
    For beta in big, T = sum_{i<D} beta^(p^i) X_i has T(r) = Tr(beta r),
    the trace from big to F_p, at every root r of g, so gcd(f, T - c)
    keeps the roots of a factor f of g with trace value c.  Each
    beta = z^j (z the generator of big, 1 <= j < D) in turn cuts f down to
    one trace value.  Conjugate roots share Tr(r) and the trace form is
    nondegenerate, so no two roots agree on all of z^1..z^(D-1): f is
    linear at the end, unless big is no field (NotAField).  The values c
    are scanned in F_p, up to p gcds per beta."""
    p, period = big.p, g.spec.k * int(g.degree)
    red = _Reducer(g)
    xs = [Poly.x(g.spec)]
    for _ in range(period - 1):
        xs.append(_powmod(xs[-1], p, red))
    xs = [embed_poly(x, big) for x in xs]
    f = embed_poly(g, big)
    # frob[i] = z^(p^i); powers[i] = beta^(p^i) for beta = z^j
    frob = [big.element([0, 1])]
    for _ in range(big.k - 1):
        frob.append(frob[-1].frobenius())
    powers = frob
    for j in range(1, big.k):
        if j > 1:
            powers = [w * z for w, z in zip(powers, frob)]
        sums = powers[:period]
        for i in range(period, big.k):
            sums[i % period] = sums[i % period] + powers[i]
        trace = Poly.zero(big)
        for x, s in zip(xs, sums):
            trace = trace + x * s
        trace = trace % f
        if trace.degree <= 0:
            continue
        for c in range(p):
            piece = f.gcd(trace - Poly(big, [big.from_int(c)]))
            if piece.degree > 0:
                f = piece
                break
        if f.degree == 1:
            return -f.coeffs[0]
    raise NotAField(f"no root in F_{{{p}^{big.k}}}: modulus {big.modulus} is reducible")


# -- orbit representatives and symmetric functions ---------------------------


def mu_m_orbit_reps(roots, m: int, spec: FieldSpec):
    """One representative (the least element) per orbit of the root set under
    multiplication by the m-th roots of unity."""
    if not roots:
        return []
    if any(not r for r in roots):
        raise ZeroRoot("orbit representatives require nonzero roots")
    root_set = set()
    for r in roots:
        if r in root_set:
            raise RepeatedRoot("repeated root in orbit partition")
        root_set.add(r)
    zeta = root_of_unity(spec, m)
    reps = []
    seen = set()
    for r in sorted(root_set, key=FieldElement.sort_key):
        if r in seen:
            continue
        orbit = set()
        y = r
        for _ in range(m):
            orbit.add(y)
            y = y * zeta
        if not orbit <= root_set:
            raise NotOrbitClosed("root set is not closed under mu_m")
        seen |= orbit
        reps.append(min(orbit, key=FieldElement.sort_key))
    return reps


def elementary_symmetric(values, spec: FieldSpec | None = None):
    """(e_0, ..., e_n) of the given field elements; e_0 = 1."""
    if not values and spec is None:
        raise ValueError("spec required for the empty list")
    spec = spec or values[0].spec
    es = [spec.one()]
    for v in values:
        es.append(spec.zero())
        for i in range(len(es) - 1, 0, -1):
            es[i] = es[i] + es[i - 1] * v
    return es


# -- Laurent polynomials -----------------------------------------------------


class LaurentPoly:
    """Laurent polynomial over a FieldSpec: coefficients ascending from the
    minimal exponent ``low``; canonical form has nonzero first and last
    stored coefficients (the zero Laurent polynomial stores nothing)."""

    __slots__ = ("spec", "low", "coeffs")

    def __init__(self, spec: FieldSpec, low: int, coeffs):
        coeffs = list(coeffs)
        while coeffs and not coeffs[0]:
            coeffs.pop(0)
            low += 1
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.spec = spec
        self.low = low if coeffs else 0
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, spec):
        return cls(spec, 0, [])

    @classmethod
    def from_terms(cls, spec: FieldSpec, terms: dict[int, FieldElement]):
        terms = {e: c for e, c in terms.items() if c}
        if not terms:
            return cls.zero(spec)
        low = min(terms)
        high = max(terms)
        z = spec.zero()
        return cls(spec, low, [terms.get(e, z) for e in range(low, high + 1)])

    @classmethod
    def from_poly(cls, f: Poly, shift: int = 0) -> "LaurentPoly":
        return cls(f.spec, shift, f.coeffs)

    def terms(self):
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.low + i, c

    def term_dict(self):
        return dict(self.terms())

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.spec == other.spec
            and self.low == other.low
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.spec, self.low, self.coeffs))

    def __repr__(self):
        return f"Laurent(low={self.low}, {[c.coeffs for c in self.coeffs]})"

    @property
    def high(self):
        if not self.coeffs:
            return NEG_INF
        return self.low + len(self.coeffs) - 1

    def deg_t_inverse(self):
        """Degree in t^{-1}: -low when low < 0, else 0 for nonzero constants."""
        if not self.coeffs:
            return NEG_INF
        return max(0, -self.low)

    def __add__(self, other):
        if self.spec != other.spec:
            raise SpecMismatch("Laurent polynomials over different field specs")
        terms = self.term_dict()
        for e, c in other.terms():
            s = terms.get(e)
            terms[e] = s + c if s is not None else c
        return LaurentPoly.from_terms(self.spec, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return LaurentPoly(self.spec, self.low, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return LaurentPoly(self.spec, self.low, [c * other for c in self.coeffs])
        if isinstance(other, int):
            return LaurentPoly(self.spec, self.low, [c * other for c in self.coeffs])
        if self.spec != other.spec:
            raise SpecMismatch("Laurent polynomials over different field specs")
        return LaurentPoly(
            self.spec,
            self.low + other.low,
            kronecker_mul(self.coeffs, other.coeffs, self.spec),
        )

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a Laurent polynomial")
        if not e:
            return LaurentPoly(self.spec, 0, [self.spec.one()])
        return square_and_multiply(self, e, operator.mul)

    def frobenius(self) -> "LaurentPoly":
        """Entry-wise p-th power: coefficients^p, exponents*p."""
        p = self.spec.p
        return LaurentPoly.from_terms(
            self.spec, {e * p: c**p for e, c in self.terms()}
        )

    def map_coeffs(self, fn, spec: FieldSpec) -> "LaurentPoly":
        return LaurentPoly.from_terms(spec, {e: fn(c) for e, c in self.terms()})

    def to_json(self):
        return {"low": self.low, "coeffs": [c.to_json() for c in self.coeffs]}
