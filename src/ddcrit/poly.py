"""Exact univariate polynomial and Laurent polynomial arithmetic over an
explicit finite field, with factorization and deterministic root extraction
into a single splitting field.

Equal-degree factors and roots are split by Berlekamp's trace splitting, a
deterministic algorithm, so results are bit-for-bit reproducible.  Where the
splitting field is tabled (order up to ``gf._LOG_TABLE_BOUND``, F_p
included), roots of quadratics and m-th roots are taken by radicals instead
(``gf.mth_root``, one log lookup); above the table bound, for every k, an
m-th root of a root of G is found as a root of G(t^m), by the same split.
"""

from __future__ import annotations

import functools
import operator
from math import lcm

from .errors import (
    NotAField,
    NotOrbitClosed,
    NotSquarefree,
    RepeatedRoot,
    SpecMismatch,
    ZeroRoot,
)
from .gf import (
    _LOG_TABLE_BOUND,
    FieldElement,
    FieldSpec,
    _apply,
    _divmod,
    _frobenius_steps,
    _image,
    _powers_map,
    _powmod as _powmod_values,
    column_values,
    kronecker_mul,
    make_field,
    mth_root,
    root_of_unity,
    square_and_multiply,
    value_columns,
)

NEG_INF = float("-inf")


class _Dense:
    """The ring operations shared by ``Poly`` and ``LaurentPoly``: a dense
    polynomial stores its coefficients ascending from the exponent ``low``
    (always 0 for a ``Poly``) as ``values``, the field's stored values
    (``FieldElement.v``), and every operation computes on them through
    ``gf.kronecker_mul``, ``gf._divmod``, ``gf._powmod`` and the field's
    bundle (``FieldSpec._ops``).  ``coeffs`` builds the coefficients as
    FieldElements on each read.  Every result is built by ``_make(spec,
    low, values)``, the one constructor on stored values; the public
    constructors take FieldElements."""

    __slots__ = ("spec", "low", "values")

    def _store(self, spec, low, values):
        """Set the fields, dropping zero values at the top and, for a
        ``LaurentPoly``, at the bottom too."""
        zero = spec._zero
        stop = len(values)
        while stop and values[stop - 1] == zero:
            stop -= 1
        start = 0
        if self._trim_low:
            while start < stop and values[start] == zero:
                start += 1
        self.spec = spec
        self.low = low + start if stop else 0
        self.values = tuple(values[start:stop])
        return self

    @classmethod
    def _make(cls, spec, low, values):
        return object.__new__(cls)._store(spec, low, values)

    @classmethod
    def zero(cls, spec):
        return cls._make(spec, 0, ())

    @property
    def coeffs(self) -> tuple:
        """The coefficients as FieldElements, built on each read."""
        return tuple(self.spec.from_values(self.values))

    def __bool__(self):
        return bool(self.values)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.spec == other.spec
            and self.low == other.low
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.spec, self.low, self.values))

    def __repr__(self):
        coeffs = [self.spec._decode(v) for v in self.values]
        return f"{type(self).__name__}(low={self.low}, {coeffs})"

    def _check(self, other):
        if type(other) is not type(self):
            raise TypeError("polynomials of different classes")
        if self.spec != other.spec:
            raise SpecMismatch("polynomials over different field specs")

    def __add__(self, other):
        """The lower-starting summand, padded, with the other added onto it
        term by term."""
        self._check(other)
        if not other:
            return self
        if not self:
            return other
        spec, add = self.spec, self.spec._ops.add
        a, b = (self, other) if self.low <= other.low else (other, self)
        offset = b.low - a.low
        out = list(a.values)
        out += [spec._zero] * (offset + len(b.values) - len(out))
        for i, c in enumerate(b.values, offset):
            out[i] = add(out[i], c)
        return self._make(spec, a.low, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        neg = self.spec._ops.neg
        return self._make(self.spec, self.low, [neg(c) for c in self.values])

    def __mul__(self, other):
        """By an int or FieldElement scalar, or by another polynomial
        through ``kronecker_mul``, the two ``low``s adding."""
        spec = self.spec
        if isinstance(other, int):
            return self._scale(spec._int_value(other))
        if isinstance(other, FieldElement):
            if other.spec is not spec and other.spec != spec:
                raise SpecMismatch("elements belong to different field specs")
            return self._scale(other.v)
        self._check(other)
        a = self.values
        product = kronecker_mul(a, a if other is self else other.values, spec)
        return self._make(spec, self.low + other.low, product)

    __rmul__ = __mul__

    def _scale(self, s):
        """The product by the scalar whose stored value is s."""
        mul = self.spec._ops.mul
        return self._make(self.spec, self.low, [mul(c, s) for c in self.values])

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        if not e:
            return self._make(self.spec, 0, [self.spec._int_value(1)])
        return square_and_multiply(self, e, operator.mul)


class Poly(_Dense):
    """Dense univariate polynomial over a FieldSpec, ascending coefficients,
    canonical (no trailing zeros).  The zero polynomial has degree -inf."""

    __slots__ = ()
    _trim_low = False

    def __init__(self, spec: FieldSpec, coeffs):
        self._store(spec, 0, [c.v for c in coeffs])

    @classmethod
    def from_ints(cls, spec: FieldSpec, ints) -> "Poly":
        return cls._make(spec, 0, [spec._int_value(c) for c in ints])

    @classmethod
    def one(cls, spec):
        return cls.from_ints(spec, [1])

    @classmethod
    def x(cls, spec):
        return cls.from_ints(spec, [0, 1])

    @property
    def degree(self):
        return len(self.values) - 1 if self.values else NEG_INF

    def monic(self) -> "Poly":
        if not self:
            return self
        ops = self.spec._ops
        return self._scale(ops.div(ops.one, self.values[-1]))

    def divmod(self, other: "Poly"):
        """(quotient, remainder), by ``gf._divmod``."""
        self._check(other)
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        spec = self.spec
        if len(self.values) < len(other.values):
            return Poly.zero(spec), self
        quot, rem = _divmod(spec._ops, self.values, other.values)
        return Poly._make(spec, 0, quot), Poly._make(spec, 0, rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def gcd(self, other: "Poly") -> "Poly":
        """The monic gcd (zero for two zeros), by Euclid through
        ``gf._divmod``."""
        self._check(other)
        ops = self.spec._ops
        a, b = self.values, other.values
        while b:
            a, b = b, _divmod(ops, a, b)[1]
        return Poly._make(self.spec, 0, a).monic()

    def derivative(self) -> "Poly":
        spec = self.spec
        mul, int_value = spec._ops.mul, spec._int_value
        return Poly._make(
            spec, 0, [mul(c, int_value(i)) for i, c in enumerate(self.values) if i]
        )

    def evaluate(self, x: FieldElement) -> FieldElement:
        """f(x) by Horner's rule; x must lie in f's field."""
        spec = x.spec
        if not self.values:
            return spec.zero()
        if spec is not self.spec and spec != self.spec:
            raise SpecMismatch("elements belong to different field specs")
        ops = spec._ops
        mul, add, v = ops.mul, ops.add, x.v
        acc = self.values[-1]
        for c in self.values[-2::-1]:
            acc = add(mul(acc, v), c)
        return spec.from_values([acc])[0]

    def is_squarefree(self) -> bool:
        if not self:
            return False
        d = self.derivative()
        if not d:
            return self.degree == 0
        return self.gcd(d).degree == 0

    def to_json(self):
        return [list(self.spec._decode(v)) for v in self.values]


def _powmod(base: Poly, e: int, mod: Poly) -> Poly:
    """base^e modulo mod: base reduced, then ``gf._powmod``."""
    spec = base.spec
    if not e:
        return Poly.one(spec)
    return Poly._make(spec, 0, _powmod_values(spec, (base % mod).values, e, mod.values))


# -- factorization -----------------------------------------------------------


def distinct_degree_factorization(f: Poly) -> list[tuple[Poly, int]]:
    """Split monic f into (product of its distinct irreducible factors of
    degree d, d) pairs, d ascending.  Round d divides every copy of the
    factors it finds out of the rest, so later rounds, and the exit when
    2d exceeds the degree of the rest, see only factors of higher degree."""
    spec = f.spec
    q = spec.order
    out = []
    x = Poly.x(spec)
    h = x
    d = 0
    rest = f
    while rest.degree > 0:
        d += 1
        if 2 * d > rest.degree:
            out.append((rest, int(rest.degree)))
            break
        h = _powmod(h, q, rest)
        g = rest.gcd(h - x)
        if g.degree > 0:
            out.append((g, d))
            while g.degree > 0:
                rest = rest // g
                g = rest.gcd(g)
            h = h % rest
    return out


def _frobenius_powers(f: Poly, period: int) -> list[Poly]:
    """x^(p^i) mod f for i < period, one p-th power per step."""
    xs = [Poly.x(f.spec) % f]
    for _ in range(period - 1):
        xs.append(_powmod(xs[-1], f.spec.p, f))
    return xs


def _trace_split(f: Poly, xs: list[Poly], d: int, one: bool = False) -> list[Poly]:
    """The irreducible factors of f, or with ``one`` a list of one of them,
    by Berlekamp's trace splitting.

    f is squarefree and monic over F_{p^e}, every irreducible factor of f
    has degree d < deg f, and xs[i] = x^(p^i) mod f for one period P of
    that sequence.  The beta = z^b, 1 <= b <= e (z the generator), form a
    basis over F_p.  For each j < 2d and beta,
    T = sum_{i<L} beta^(p^i) xs[i mod P]^j with L = lcm(e, P) has
    T(r) = Tr(beta r^j), the trace to F_p, at every root r, and each piece
    is cut by the value of T in F_p.  Over the beta these traces give the
    power sums sum_r r^j of the roots of each factor, and two factors that
    agree on j = 0..2d-1 would contradict the Vandermonde determinant on
    their 2d distinct roots: every piece ends as one factor, unless
    F_{p^e} is no field (NotAField).  A round j = p j' builds no trace:
    Tr(beta r^j) = Tr(beta^(1/p) r^j'), and the beta^(1/p) form a basis
    too, so round j' already cut every piece by these values."""
    spec, p = f.spec, f.spec.p
    e = spec.k
    error = NotAField(f"F_{{{spec.p}^{e}}} is not a field: "
                      f"its modulus {spec.modulus} is reducible")
    # frob[i] = z^(p^i), with z = 1 over F_p
    frob = [spec.element([0, 1]) if e > 1 else spec.one()]
    for _ in range(e - 1):
        frob.append(frob[-1].frobenius())
    pieces, ys = [f], xs
    for j in range(1, 2 * d):
        if j > 1:
            ys = [(y * x) % f for y, x in zip(ys, xs)]  # xs[i]^j
        if j % p == 0:
            continue
        powers = frob  # beta^(p^i)
        for _ in range(e):
            trace = _trace(ys, powers)
            powers = [w * z for w, z in zip(powers, frob)]
            # For a = 0, 1, ... each piece g with t = T mod g not constant
            # is cut into its roots with t = -a, gcd(g, t + a), and the
            # rest.  While more than 4 values per root are left to scan,
            # the rest is also cut by the quadratic character of t + a,
            # gcd(rest, (t + a)^((p-1)/2) - 1), in O(log p) products; two
            # values c != c' differ in it for some a < p, as the character
            # of (c + a)(c' + a) sums to -1 over a.
            done, todo, a = [], [(g, trace) for g in pieces], 0
            while todo:
                cut = []
                for g, t in todo:
                    if g.degree == d or (t := t % g).degree <= 0:
                        done.append(g)
                        continue
                    if a == p:
                        raise error
                    s = t + Poly.from_ints(spec, [a])
                    if (zero := g.gcd(s)).degree > 0:
                        done.append(zero)
                        if one:
                            break
                        g = g // zero
                    parts = [g]
                    if p - a > 4 * g.degree > 0:
                        power = _powmod(s, (p - 1) // 2, g)
                        square = g.gcd(power - Poly.one(spec))
                        parts = [square, g // square]
                    cut += [(h, t) for h in parts if h.degree > 0]
                todo, a = ([] if done else cut[:1]) if one else cut, a + 1
            pieces = done[:1] if one else done
            if all(g.degree == d for g in pieces):
                return pieces
    raise error


def _trace(ys: list[Poly], powers: list[FieldElement]) -> Poly:
    """sum_{i<L} powers[i mod e] ys[i mod P], with e = len(powers), P =
    len(ys) and L = lcm(e, P): the trace polynomial T of ``_trace_split``
    for ys[i] = xs[i]^j and powers[i] = beta^(p^i)."""
    e, period = len(powers), len(ys)
    sums = [powers[0].spec.zero()] * period
    for i in range(lcm(e, period)):
        sums[i % period] = sums[i % period] + powers[i % e]
    return sum((y * s for y, s in zip(ys, sums)), Poly.zero(ys[0].spec))


def equal_degree_factorization(f: Poly, d: int) -> list[Poly]:
    """Split a squarefree monic product of degree-d irreducibles."""
    if f.degree == d:
        return [f]
    return sorted(
        _trace_split(f, _frobenius_powers(f, f.spec.k * d), d),
        key=lambda t: t.values,
    )


def factor(f: Poly) -> list[tuple[Poly, int]]:
    """Monic irreducible factors with multiplicities, deterministic order.
    Each multiplicity is counted by dividing the factor out of f."""
    if not f:
        raise ValueError("zero polynomial has no factorization")
    f = f.monic()
    out = []
    for prod, d in distinct_degree_factorization(f):
        for irr in equal_degree_factorization(prod, d):
            mult, (quot, rem) = 0, f.divmod(irr)
            while not rem:
                f, mult = quot, mult + 1
                quot, rem = f.divmod(irr)
            out.append((irr, mult))
    out.sort(key=lambda t: (t[0].degree, t[0].values))
    return out


# -- embeddings and splitting fields ----------------------------------------


@functools.lru_cache(maxsize=None)
def _embedding_image(src: FieldSpec, dst: FieldSpec) -> FieldElement:
    """Image of the generator of src in dst: the least root of src.modulus."""
    if src.p != dst.p or dst.k % src.k != 0:
        raise SpecMismatch("no embedding between these field specs")
    modulus = Poly.from_ints(make_field(src.p, 1), src.modulus)
    return min(_conjugates(modulus, dst), key=FieldElement.sort_key)


@functools.lru_cache(maxsize=None)
def _embedding_map(src: FieldSpec, dst: FieldSpec) -> tuple:
    """The rows of ``embed`` from src into dst: x^t -> z^t for z =
    ``_embedding_image``, whose errors it raises (NotAField, say)."""
    return _powers_map(dst, _embedding_image(src, dst).coeffs, src.k)


def embed(x: FieldElement, dst: FieldSpec) -> FieldElement:
    """Embed x into the extension field dst (src degree must divide dst's)."""
    src = x.spec
    if src == dst:
        return x
    if src.k == 1 and src.p == dst.p:
        return dst.from_int(x.coeffs[0])
    return dst.element(_image(_embedding_map(src, dst), x.coeffs, dst.p))


def embed_poly(f: Poly, dst: FieldSpec) -> Poly:
    """f with each coefficient embedded into dst as by ``embed``, on its
    stored values: an F_p value through ``dst._int_value``, above F_p the
    cached ``_embedding_map`` applied to f's columns."""
    src = f.spec
    if src == dst:
        return f
    if src.k == 1 and src.p == dst.p:
        values = [dst._int_value(c) for c in f.values]
    else:
        cols = _apply(_embedding_map(src, dst), value_columns(f.values, src), dst.p)
        values = column_values(cols, dst)
    return f._make(dst, f.low, values)


def roots_in_field(f: Poly) -> list[FieldElement]:
    """All roots of f lying in its own coefficient field (with multiplicity),
    in deterministic element order: the linear factors of ``factor(f)``."""
    out = [-g.coeffs[0] for g, mult in factor(f) if g.degree == 1 for _ in range(mult)]
    out.sort(key=FieldElement.sort_key)
    return out


def roots_in_splitting_field(f: Poly):
    """Return (D, roots): splitting-field degree D over F_p and all roots of
    f (with multiplicity), co-embedded into F_{p^D}, deterministic order.

    A nonzero constant yields (spec.k, [])."""
    if not f:
        raise ValueError("zero polynomial has no splitting field")
    spec = f.spec
    factors = factor(f)
    degrees = [int(g.degree) for g, _ in factors]
    rel = lcm(*degrees) if degrees else 1
    big_degree = spec.k * rel
    big = make_field(spec.p, big_degree)
    roots: list[FieldElement] = []
    for g, mult in factors:
        roots += _conjugates(g, big) * mult
    roots.sort(key=FieldElement.sort_key)
    return big_degree, roots


def _one_root(g: Poly, big: FieldSpec, m: int = 1, degree: int = 0) -> FieldElement:
    """One root x in big = F_{p^D} of g(t^m), for a monic irreducible g over
    its own field F_q (q = p^k), g(0) != 0 if m > 1, with x of the given
    degree over F_q (deg g by default).  In a tabled big (order up to the
    table bound, F_p included) x is an m-th root of a root y of g by
    ``gf.mth_root``: y is -g(0) for a linear g, (-b + sqrt(b^2 - 4c))/2 for
    t^2 + bt + c, and split out of a higher degree g.  Above the table
    bound, for every k, g(t^m) is split for x.  The split is one
    ``_trace_split`` over big, with x^(p^i) mod g or g(t^m) computed over
    F_q, where it repeats with period k degree."""
    tabled = big.order <= _LOG_TABLE_BOUND
    if tabled and m > 1:
        return mth_root(_one_root(g, big), m)
    if g.degree == 1 and m == 1:
        return embed(-g.coeffs[0], big)
    if tabled and g.degree == 2:
        c, b = (embed(a, big) for a in g.coeffs[:2])
        # (p + 1) / 2 is 1/2 mod p
        return (mth_root(b * b - c * 4, 2) - b) * ((big.p + 1) // 2)
    spec, period = g.spec, g.spec.k * (degree or int(g.degree))
    values = [spec._zero] * (m * int(g.degree) + 1)
    values[::m] = g.values
    h = Poly._make(spec, 0, values)  # g(t^m)
    xs = [embed_poly(x, big) for x in _frobenius_powers(h, period)]
    (linear,) = _trace_split(embed_poly(h, big), xs, 1, one=True)
    return -linear.coeffs[0]


def _conjugates(g: Poly, big: FieldSpec) -> list[FieldElement]:
    """Every root in big = F_{p^D} of a monic irreducible g over its own
    field F_q (q = p^k), which splits in big: ``_one_root``, then its orbit
    under r -> r^q, k Frobenius steps a root, which has deg g elements
    unless big is no field (NotAField)."""
    roots = [_one_root(g, big).v]
    for _ in range(int(g.degree) - 1):
        roots.append(_frobenius_steps(big._ops, roots[-1], g.spec.k))
    if len(set(roots)) != g.degree:
        raise NotAField(f"F_{{{big.p}^{big.k}}}: orbit shorter than degree")
    return big.from_values(roots)


# -- orbit representatives and symmetric functions ---------------------------


def orbit_reps_in_splitting_field(f: Poly, m: int):
    """Return (D, reps) for a squarefree f in F_q[t^m] with f(0) != 0, where
    m | p - 1: the splitting-field degree D over F_p and one representative,
    the least element, per orbit of the roots of f in F_{p^D} under the
    m-th roots of unity, ascending.  This is ``roots_in_splitting_field``
    followed by ``mu_m_orbit_reps``, without finding every root.

    With f(t) = F(t^m), the orbits are the sets of m-th roots of the roots
    of F (Kummer theory; Lidl-Niederreiter, Finite Fields, ch. 3).  An
    irreducible factor G of F of degree d has roots y with
    y^((q^d-1)/m) = eta, eta = ((-1)^d G(0))^((q-1)/m) in mu_m, so an m-th
    root x of y has x^(q^d) = eta x and degree d ord(eta) over F_q: D is k
    times the lcm of these.  One root x of each G(t^m) in F_{p^D}
    (``_one_root``: an m-th root of a root y of G in a tabled field, F_p
    included, a root of G(t^m) split directly above the table bound) gives
    x, x^q, ..., x^(q^(d-1)), m-th roots of the d conjugates of y = x^m;
    any choice of x gives the same orbits.  NotAField if these give fewer
    than deg F orbits; NotSquarefree, after one squarefree test of F, if f
    has repeated roots."""
    if not f:
        raise ValueError("zero polynomial has no splitting field")
    spec = f.spec
    if any(c != spec._zero for i, c in enumerate(f.values) if i % m):
        raise NotOrbitClosed(f"f is not a polynomial in t^{m}")
    if f.values[0] == spec._zero:
        raise ZeroRoot("orbit representatives require nonzero roots")
    big_f = Poly._make(spec, 0, f.values[::m])
    if not big_f.is_squarefree():  # iff f is not: m | p - 1, f(0) != 0
        raise NotSquarefree("f has repeated roots")
    factors = factor(big_f)
    p, q, one = spec.p, spec.order, spec.one()
    degrees = []
    for g, _ in factors:
        d = int(g.degree)
        eta = (g.coeffs[0] if d % 2 == 0 else -g.coeffs[0]) ** ((q - 1) // m)
        if eta**m != one:  # the norm of a root of G is no unit
            raise NotAField(f"F_{{{p}^{spec.k}}} is not a field")
        degrees.append(d * next(j for j in range(1, m + 1) if eta**j == one))
    big_degree = spec.k * lcm(*degrees)
    big = make_field(p, big_degree)
    ops = big._ops
    mu_m = _mu_m_values(big, m)
    reps = []
    for (g, _), degree in zip(factors, degrees):
        # the stored value of x, then of x^q = x^(p^k), k Frobenius steps
        x = _one_root(g, big, m, degree).v
        for _ in range(int(g.degree)):
            reps.append(min([ops.mul(x, w) for w in mu_m]))
            x = _frobenius_steps(ops, x, spec.k)
    reps.sort()
    if len(set(reps)) != len(reps):
        raise NotAField(f"F_{{{p}^{big_degree}}}: fewer orbits than deg F")
    return big_degree, big.from_values(reps)


@functools.lru_cache(maxsize=None)
def _mu_m(p: int, m: int) -> tuple[int, ...]:
    """The m-th roots of unity in F_p (m | p - 1), as ints in [0, p)."""
    zeta = root_of_unity(make_field(p, 1), m).coeffs[0]
    return tuple(pow(zeta, i, p) for i in range(m))


def _mu_m_values(spec: FieldSpec, m: int) -> list:
    """The stored values in spec of the m-th roots of unity of F_p."""
    return [spec.from_int(w).v for w in _mu_m(spec.p, m)]


def mu_m_orbit_reps(roots, m: int, spec: FieldSpec):
    """One representative (the least element) per orbit of the root set under
    multiplication by the m-th roots of unity, which lie in F_p (m | p - 1).
    The roots lie in spec; the orbits are taken on their stored values."""
    if not roots:
        return []
    if any(not r for r in roots):
        raise ZeroRoot("orbit representatives require nonzero roots")
    root_set = {r.v for r in roots}
    if len(root_set) != len(roots):
        raise RepeatedRoot("repeated root in orbit partition")
    mul, mu_m = spec._ops.mul, _mu_m_values(spec, m)
    reps = []
    seen = set()
    # values sort as elements do, so the first value met of each orbit is
    # its least once the orbit is known to be closed
    for r in sorted(root_set):
        if r in seen:
            continue
        orbit = {mul(r, w) for w in mu_m}
        if not orbit <= root_set:
            raise NotOrbitClosed("root set is not closed under mu_m")
        seen |= orbit
        reps.append(r)
    return spec.from_values(reps)


# -- Laurent polynomials -----------------------------------------------------


class LaurentPoly(_Dense):
    """Laurent polynomial over a FieldSpec: coefficients ascending from the
    minimal exponent ``low``; canonical form has nonzero first and last
    stored coefficients (the zero Laurent polynomial stores nothing)."""

    __slots__ = ()
    _trim_low = True

    def __init__(self, spec: FieldSpec, low: int, coeffs):
        self._store(spec, low, [c.v for c in coeffs])

    @classmethod
    def from_terms(cls, spec: FieldSpec, terms: dict[int, FieldElement]):
        terms = {e: c.v for e, c in terms.items() if c}
        if not terms:
            return cls.zero(spec)
        low, z = min(terms), spec._zero
        return cls._make(spec, low, [terms.get(e, z) for e in range(low, max(terms) + 1)])

    @classmethod
    def from_poly(cls, f: Poly, shift: int = 0) -> "LaurentPoly":
        return cls._make(f.spec, shift, f.values)

    def terms(self):
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.low + i, c

    def term_dict(self):
        return dict(self.terms())

    @property
    def high(self):
        return self.low + len(self.values) - 1 if self.values else NEG_INF

    def deg_t_inverse(self):
        """Degree in t^{-1}: -low when low < 0, else 0 for nonzero constants."""
        return max(0, -self.low) if self.values else NEG_INF

    def to_json(self):
        return {"low": self.low, "coeffs": [list(self.spec._decode(v)) for v in self.values]}
