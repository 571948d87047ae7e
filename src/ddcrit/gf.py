"""Deterministic finite-field tower arithmetic.

Fields F_{p^k} are represented explicitly: a ``FieldSpec`` fixes an odd
prime p, an extension degree k and a canonical monic irreducible modulus of
degree k over F_p.  All arithmetic is exact; everything is immutable and
safe to share.

An element stores one value, ``v``, in one of three forms, and its field's
``StoredArithmetic`` (``FieldSpec._ops``), built once per field on first
use, is the only code that computes on that form:

- k = 1: v is the residue in [0, p), and arithmetic is int operations mod
  p, ``(a + b) % p``, ``(a * b) % p``, ``pow(a, -1, p)`` and
  ``pow(a, e, p)``; F_p within the table bound has log tables too, which
  only an m-th root (``mth_root``) reads, so only a root builds them;
- 2 <= k and q = p^k <= 2^12 (``_LOG_TABLE_BOUND``): v is the element
  index (the base-p number whose most significant digit is the constant
  coefficient).  Log/antilog tables to the base of the least generator,
  with Zech logarithms for sums, are built once per field (``_LogTables``),
  so each operation is a few lookups on ints;
- above the bound: v is the coefficient tuple, and arithmetic is
  coefficient-wise sums, one packed F_p[x] product (``_mul_modp``) folded
  by the modulus (``_ring_mul``) unless one factor lies in F_p, extended
  Euclid, and Frobenius and p-th roots as cached linear maps.  A table
  takes q - 1 multiplications by the generator to build, each k dot
  products of length k (F_{5^5}: 14 ms on a 2-core x86 VM).  With the
  bound at 2^16, a build by polynomial products took 0.4 s for the F_{3^9}
  table (19,683 entries) and cost the witt benchmark more than its 814
  products there saved (343 -> 302 jobs/s).

Each ``FieldElement`` operator checks that its operands share a field and
makes one call into the bundle; a loop that would build an element per
operation calls the bundle on stored values directly: the search's DFS, the
certificate's scalar loops and every ``Poly`` and ``LaurentPoly``
operation, since those hold their coefficients as stored values.
``FieldSpec._zero`` and ``_int_value`` give the values of the constants
such code needs.

Index order is the lexicographic order of the coefficient tuples, so the
stored value is the sort key in every form.  ``FieldSpec._value`` and
``_index`` alone convert element indices and values (the identity in a
coded field), and ``FieldSpec._decode`` and ``_encode`` alone convert values
and coefficient tuples, through digit tables that need no generator, so no
element or product builds log tables.
"""

from __future__ import annotations

import functools
import operator
import sys
from array import array
from collections import namedtuple

from .errors import (
    EvenPrime,
    NotAField,
    NotInSubfield,
    NotPrime,
    OrderNotDividing,
    SpecMismatch,
)


# Miller-Rabin with the first 13 primes as bases decides primality for
# every n below this bound (Sorenson-Webster, Math. Comp. 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality: deterministic Miller-Rabin below _MR_BOUND.  At or
    above it, n divisible by a base is not prime, and any other n raises
    ValueError, since no test here decides it in bounded time."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n >= _MR_BOUND:
        raise ValueError(f"primality above 3.3*10^24 is not decided: {n}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n by trial division (n stays desk-sized)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# -- powers and linear systems ----------------------------------------------


def square_and_multiply(base, e: int, mul):
    """base^e for e >= 1 by square-and-multiply with the product mul(a, b),
    started from base so that no product has an identity factor."""
    result = None
    while True:
        if e & 1:
            result = base if result is None else mul(result, base)
        e >>= 1
        if not e:
            return result
        base = mul(base, base)


def _gauss_jordan(ops: "StoredArithmetic", rows: list[list], n: int):
    """Gauss-Jordan elimination, in place, on columns 0..n-1 of rows, lists
    of stored values, with ops their field's bundle: a column's pivot, its
    first nonzero entry in the rows not yet pivoted, is swapped up and
    scaled to one, and ``ops.submul`` clears the column in the other rows.
    Returns the pivot columns, in row order, and the product of the pivots
    with the swaps' sign: the determinant of n rows, zero below rank n."""
    zero, pivots, det = ops.zero, [], ops.one
    for col in range(n):
        r0 = len(pivots)
        piv = next((r for r in range(r0, len(rows)) if rows[r][col] != zero), None)
        if piv is None:
            det = zero
            continue
        if piv != r0:
            rows[r0], rows[piv], det = rows[piv], rows[r0], ops.neg(det)
        lead = rows[r0][col]
        det, inv = ops.mul(det, lead), ops.div(ops.one, lead)
        rows[r0] = pivot = [ops.mul(x, inv) for x in rows[r0]]
        for r, row in enumerate(rows):
            if r != r0 and (c := row[col]) != zero:
                ops.submul(row, col, c, pivot[col:])
        pivots.append(col)
    return pivots, det


def solve_modp(aug: list[list[int]], p: int) -> list[int] | None:
    """A solution over F_p of the linear system with augmented rows aug
    (coefficients, then the right-hand side) by ``_gauss_jordan``, with
    every free variable 0; None if the system is inconsistent."""
    rows = [[x % p for x in row] for row in aug]
    n = len(rows[0]) - 1
    pivots = _gauss_jordan(make_field(p, 1)._ops, rows, n)[0]
    if any(row[n] for row in rows[len(pivots):]):
        return None
    solution = dict(zip(pivots, [row[n] for row in rows]))
    return [solution.get(col, 0) for col in range(n)]


# -- dense polynomial helpers (coefficient lists, ascending degree) ----------
#
# Every dense F_p[x] product is one packed-int multiply, ``_mul_modp``, which
# also serves ``kronecker_columns`` and so ``kronecker_mul``, every ``Poly``
# and ``LaurentPoly`` product, on the stored values those hold;
# ``_scaled_sum`` is packed like it (each slot of a Witt sum,
# ``witt._column_sum``; over F_p ``witt._packed_sum`` evaluates a carry in
# one pass on ``_to_int`` and ``_from_int`` itself).
# Every polynomial division, over any field, is ``_divmod`` on stored
# values with the field's ``StoredArithmetic``: ``Poly.divmod`` and
# ``Poly.gcd``, the series inverse of ``criterion``, each step of the
# modular power ``_powmod``, and on F_p's bundle the Rabin test and the
# extended Euclid of the tuple inverse (a field product is folded instead:
# ``_fold_map``).  ROADMAP defect 1 is held by one line of
# ``_is_irreducible_modp``; its docstring says why it stays.


def _trim(c: list, zero) -> list:
    """c without its trailing entries equal to zero, the zero value."""
    while c and c[-1] == zero:
        c.pop()
    return c


# array typecode per word size in bytes: 1-byte digits go through bytes,
# digits that fit a word through array, wider ones (very large p) bytewise
_WORD_CODES = {array(code).itemsize: code for code in "QLIHB"}
_WORD_SIZES = sorted(_WORD_CODES)
_BIG_ENDIAN = sys.byteorder == "big"


def _digit_bytes(bound: int) -> int:
    """Bytes per digit for digits up to bound: the least word size that
    holds them, else the exact byte count."""
    need = -(-bound.bit_length() // 8)
    for size in _WORD_SIZES:
        if size >= need:
            return size
    return need


def _to_int(digits: list[int], width: int) -> int:
    """The int whose little-endian width-byte digits are ``digits``."""
    if width == 1:
        return int.from_bytes(bytes(digits), "little")
    code = _WORD_CODES.get(width)
    if code is None:
        raw = b"".join(d.to_bytes(width, "little") for d in digits)
        return int.from_bytes(raw, "little")
    words = array(code, digits)
    if _BIG_ENDIAN:
        words.byteswap()
    return int.from_bytes(words, "little")


def _mul_modp(a, b, p: int) -> list[int]:
    """The product of a and b in F_p[x], digits in [0, p) in and out: all
    len(a) + len(b) - 1 digits, trailing zeros included ([] if either is
    empty).  Kronecker substitution (von zur Gathen-Gerhard, Modern
    Computer Algebra, 8.4): a and b are packed into one int each, a fixed
    number of bytes a digit, and multiplied once.  A product digit sums at
    most min(nonzero digits of a, of b) products of two digits below p, so
    digits that hold that many (p-1)^2, and at least one, never carry."""
    if not a or not b:
        return []
    nonzero = min(len(a) - a.count(0), len(b) - b.count(0)) or 1
    width = _digit_bytes(nonzero * (p - 1) ** 2)
    x = _to_int(a, width)
    y = x if a is b else _to_int(b, width)
    return _from_int(x * y, len(a) + len(b) - 1, width, p)


def _scaled_sum(terms, n: int, p: int) -> list[int]:
    """The sum of c x^off a over the (c, off, a) terms, a a digit list in
    F_p[x] and c in [0, p), as all n digits in [0, p): each a is packed as
    in ``_mul_modp``, scaled and shifted there, and the total is unpacked
    and reduced once.  A digit sums at most len(terms) products below p^2."""
    width = _digit_bytes(len(terms) * (p - 1) ** 2)
    bits = 8 * width
    total = 0
    for c, off, a in terms:
        total += c * _to_int(a, width) << off * bits
    return _from_int(total, n, width, p)


def _from_int(x: int, n: int, width: int, p: int) -> list[int]:
    """The lowest n little-endian width-byte digits of x, each mod p."""
    raw = x.to_bytes(n * width, "little")
    if width == 1:
        return [d % p for d in raw]
    code = _WORD_CODES.get(width)
    if code is None:
        return [
            int.from_bytes(raw[i : i + width], "little") % p
            for i in range(0, len(raw), width)
        ]
    words = array(code, raw)
    if _BIG_ENDIAN:
        words.byteswap()
    return [d % p for d in words]


def _sub_modp(a: list[int], b: list[int], p: int) -> list[int]:
    """a - b in F_p[x] on digits in [0, p), without trailing zeros."""
    out = list(a) + [0] * (len(b) - len(a))
    for i, v in enumerate(b):
        out[i] = (out[i] - v) % p
    return _trim(out, 0)


def _divmod(ops: "StoredArithmetic", a: list, b: list) -> tuple[list, list]:
    """Quotient and remainder of a by b, lists of the values one field
    stores, with ops its ``StoredArithmetic``, by schoolbook division (von
    zur Gathen-Gerhard, Modern Computer Algebra, Algorithm 2.5): one
    ``ops.submul`` per nonzero quotient term, and no quotient-term product
    when b is monic.  b has no trailing zeros, and its leading coefficient
    may be any nonzero value; both results come without trailing zeros."""
    zero, db = ops.zero, len(b) - 1
    rem = _trim(list(a), zero)
    if len(rem) <= db:
        return [], rem
    inv = None if b[-1] == ops.one else ops.div(ops.one, b[-1])
    quot, low, mul, submul = [zero] * (len(rem) - db), b[:db], ops.mul, ops.submul
    for s in range(len(rem) - 1 - db, -1, -1):
        c = rem[s + db]
        if c != zero:
            if inv is not None:
                c = mul(c, inv)
            quot[s] = c
            submul(rem, s, c, low)
    return quot, _trim(rem[:db], zero)


def _powmod(spec: "FieldSpec", a: list, e: int, m: list) -> list:
    """a^e mod m over spec for e >= 1, a and m lists of stored values and a
    reduced or e >= 2: square-and-multiply, each ``kronecker_mul`` product
    reduced by ``_divmod`` on spec's ``StoredArithmetic``."""
    ops = spec._ops
    return square_and_multiply(
        a, e, lambda u, v: _divmod(ops, kronecker_mul(u, v, spec), m)[1]
    )


def _is_irreducible_modp(f: list[int], p: int) -> bool:
    """Rabin test for a monic f over F_p of degree k: x^(p^k) = x mod f, and
    gcd(x^(p^(k/r)) - x, f) = 1 for every prime r | k.

    The gcd divides by each remainder b as if it were monic, by b[:-1] + [1]
    (ROADMAP defect 1).  That makes some verdicts wrong, and with them some
    canonical moduli, F_{3^6}'s among them.  It stays because every
    certificate over such a field prints its modulus: deleting ``[:-1] +
    [1]`` fixes it, in the change that re-records the catalog digests.

    A monic linear f is irreducible; the test above would compare x^p mod
    f, a constant, with the unreduced x, so it is answered first."""
    k = len(f) - 1
    if k <= 1:
        return k == 1
    prime, x = make_field(p, 1), [0, 1]
    ops = prime._ops
    # every exponent p^j here is at least 3, so each power is reduced mod f
    if _sub_modp(_powmod(prime, x, p**k, f), x, p):
        return False
    for r in prime_factors(k):
        a, b = f, _sub_modp(_powmod(prime, x, p ** (k // r), f), x, p)
        while b:
            a, b = b, _divmod(ops, a, b[:-1] + [1])[1]  # defect 1
        if len(a) != 1:
            return False
    return True


# -- field spec --------------------------------------------------------------

# Fields F_{p^k} with 2 <= k and order up to this bound compute by log and
# Zech tables (see the module docstring for why not 2^16); every field up to
# it, F_p included, takes m-th roots from its log table (``mth_root``).
_LOG_TABLE_BOUND = 2**12


def _base_p_digits(i: int, p: int, width: int) -> tuple[int, ...]:
    """The lowest width base-p digits of i, most significant first."""
    digits = [0] * width
    for t in range(width - 1, -1, -1):
        i, digits[t] = divmod(i, p)
    return tuple(digits)


class FieldSpec(namedtuple("FieldSpec", "p k modulus")):
    """An explicit F_{p^k} with a fixed monic irreducible modulus.

    Fields: ``p: int``, ``k: int`` and ``modulus: tuple[int, ...]``, the
    ascending coefficient tuple of length k+1; the canonical choice is
    deterministic, so equal (p, k) always produce identical specs.  A named
    tuple, so it hashes and compares as (p, k, modulus); unlike the other
    records it keeps a ``__dict__``, for its cached properties, which a
    copy or a pickle leaves out (``__getstate__``).
    """

    def __getstate__(self):
        return None

    @property
    def order(self) -> int:
        return self.p**self.k

    @functools.cached_property
    def _coded(self) -> bool:
        """Whether elements store an int (k = 1, or q within the table
        bound) rather than a coefficient tuple; decided from (p, k) alone."""
        return self.k == 1 or self.order <= _LOG_TABLE_BOUND

    @functools.cached_property
    def _weights(self) -> tuple[int, ...]:
        """p^(k-1), ..., p, 1: the weight of coefficient t in the index."""
        return tuple(self.p ** (self.k - 1 - t) for t in range(self.k))

    @functools.cached_property
    def _zero(self):
        """The stored value of zero."""
        return self._value(0)

    def _int_value(self, n: int):
        """The stored value of the integer n mod p: the index n p^(k-1), or
        the tuple (n, 0, ..., 0)."""
        n %= self.p
        return n * self._weights[0] if self._coded else (n,) + (0,) * (self.k - 1)

    def zero(self) -> "FieldElement":
        return FieldElement(self, self._zero)

    def one(self) -> "FieldElement":
        return self.from_int(1)

    def from_int(self, n: int) -> "FieldElement":
        return FieldElement(self, self._int_value(n))

    def element(self, coeffs) -> "FieldElement":
        c = [v % self.p for v in coeffs]
        if len(c) > self.k:
            raise ValueError("coefficient vector longer than extension degree")
        c += [0] * (self.k - len(c))
        return FieldElement(self, self._encode(c))

    def _encode(self, c):
        """The stored value of the k coefficients c, digits in [0, p)."""
        if self._coded:
            return sum(map(operator.mul, c, self._weights))
        return tuple(c)

    def _decode(self, v) -> tuple[int, ...]:
        """The coefficient tuple of the stored value v (``_digit_tables``)."""
        if v.__class__ is tuple:
            return v
        if self.k == 1:
            return (v,)
        split, high, low = self._digit_tables
        return high[v // split] + low[v % split]

    def from_values(self, values) -> list["FieldElement"]:
        """The elements storing these values, building no log tables."""
        return [FieldElement(self, v) for v in values]

    def elements(self):
        """All field elements in the deterministic order (constant term up,
        lexicographic), generated one at a time; exhausting them is only
        sensible for small fields."""
        for i in range(self.order):
            yield FieldElement(self, self._value(i))

    def element_by_index(self, i: int) -> "FieldElement":
        """The element with index i mod q under the deterministic ordering
        (base-p digits of i, most significant digit = constant
        coefficient)."""
        return FieldElement(self, self._value(i % self.order))

    def index_of(self, x: "FieldElement") -> int:
        """Inverse of ``element_by_index``."""
        return self._index(x.v)

    def _value(self, i: int):
        """The stored value of the element with index i in [0, q): i itself
        in a coded field, its base-p digits above the table bound."""
        return i if self._coded else _base_p_digits(i, self.p, self.k)

    def _index(self, v) -> int:
        """The index of the element storing v: the inverse of ``_value``."""
        return v if self._coded else sum(map(operator.mul, v, self._weights))

    def to_json(self) -> dict:
        return {"p": self.p, "k": self.k, "modulus": list(self.modulus)}

    @functools.cached_property
    def _digit_tables(self) -> tuple[int, list, list]:
        """(split, high, low) for 2 <= k within the table bound: index i has
        the coefficient tuple ``high[i // split] + low[i % split]``, the
        tuples of its leading and trailing digits.  Two tables of about
        sqrt(q) tuples, where one tuple per element would take about 90
        bytes each; they need no generator, so decoding an element never
        builds the log tables."""
        p, k = self.p, self.k
        h = k // 2
        high = [_base_p_digits(i, p, k - h) for i in range(p ** (k - h))]
        low = [_base_p_digits(i, p, h) for i in range(p**h)]
        return p**h, high, low

    @functools.cached_property
    def _tables(self) -> "_LogTables | None":
        """Log, antilog and Zech tables for every field of order up to
        _LOG_TABLE_BOUND, built on first use; None above the bound.  F_p
        computes mod p without them, so there only a root builds them."""
        if self.order > _LOG_TABLE_BOUND:
            return None
        return _LogTables(self)

    @functools.cached_property
    def _ops(self) -> "StoredArithmetic":
        """The field's ``StoredArithmetic``, built on first use; in a tabled
        field that builds the log tables."""
        return _stored_arithmetic(self)


def _deterministic_modulus(p: int, k: int) -> tuple[int, ...]:
    """Least monic irreducible of degree k, scanning coefficient vectors
    from the top degree down so that e.g. x^2+2 beats x^2+x+1 over F_5."""
    if k == 1:
        return (0, 1)
    # vector number `index` holds the base-p digits of index, least
    # significant on the constant term; built one at a time, since p^k
    # vectors can be far beyond memory
    for index in range(p**k):
        coeffs = [*reversed(_base_p_digits(index, p, k)), 1]
        if _is_irreducible_modp(coeffs, p):
            return tuple(coeffs)
    raise AssertionError("no irreducible polynomial found (unreachable)")


@functools.lru_cache(maxsize=None)
def make_field(p: int, k: int) -> FieldSpec:
    """Canonical FieldSpec for F_{p^k} (p an odd prime, k >= 1)."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p == 2:
        raise EvenPrime("characteristic 2 is not supported")
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    return FieldSpec(p, k, _deterministic_modulus(p, k))


class FieldElement:
    """Element of F_{p^k}.  ``v`` holds it in one of three forms:

    - k = 1: the residue in [0, p);
    - 2 <= k and q <= _LOG_TABLE_BOUND: the ``element_by_index`` index,
      sum c_t p^(k-1-t) over the coefficients c_t of x^t;
    - above the bound: the coefficient tuple (c_0, ..., c_{k-1}).

    The constant term is the most significant digit of the index, so index
    order is the lexicographic order of the coefficient tuples, and
    ``sort_key`` (v) sorts the same way in every form.  ``==`` and ``hash``
    compare v, so an element must be built in the form its field stores:
    through the FieldSpec methods, never by this constructor outside gf.
    The operators compute on v through the field's ``StoredArithmetic``.
    """

    __slots__ = ("spec", "v")

    def __init__(self, spec: FieldSpec, v):
        self.spec = spec
        self.v = v

    @property
    def coeffs(self) -> tuple[int, ...]:
        """The coefficient tuple (``FieldSpec._decode``)."""
        return self.spec._decode(self.v)

    def __repr__(self):
        return f"GF({self.spec.p}^{self.spec.k}){list(self.coeffs)}"

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.v == other.v
            and (self.spec is other.spec or self.spec == other.spec)
        )

    def __hash__(self):
        return hash((self.spec.p, self.spec.k, self.v))

    def sort_key(self):
        return self.v

    def __bool__(self):
        v = self.v
        return any(v) if v.__class__ is tuple else v != 0

    def _check(self, other):
        if self.spec is not other.spec and self.spec != other.spec:
            raise SpecMismatch("elements belong to different field specs")

    def __add__(self, other):
        spec = self.spec
        if other.spec is not spec:
            self._check(other)
        return FieldElement(spec, spec._ops.add(self.v, other.v))

    def __sub__(self, other):
        spec = self.spec
        if other.spec is not spec:
            self._check(other)
        return FieldElement(spec, spec._ops.sub(self.v, other.v))

    def __neg__(self):
        spec = self.spec
        return FieldElement(spec, spec._ops.neg(self.v))

    def __mul__(self, other):
        spec = self.spec
        if not isinstance(other, FieldElement):
            if not isinstance(other, int):
                return NotImplemented
            other = spec.from_int(other)
        elif other.spec is not spec:
            self._check(other)
        return FieldElement(spec, spec._ops.mul(self.v, other.v))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0 and not self:
            raise ZeroDivisionError("inverse of zero field element")
        spec = self.spec
        return FieldElement(spec, spec._ops.pow(self.v, e))

    def inverse(self) -> "FieldElement":
        return self ** -1

    def __truediv__(self, other):
        spec = self.spec
        if other.spec is not spec:
            self._check(other)
        if not other:
            raise ZeroDivisionError("inverse of zero field element")
        return FieldElement(spec, spec._ops.div(self.v, other.v))

    def frobenius(self) -> "FieldElement":
        spec = self.spec
        return FieldElement(spec, spec._ops.frobenius(self.v))

    def in_prime_field(self) -> bool:
        """Whether the element lies in F_p: its index is a multiple of
        p^(k-1), the weight of the constant term."""
        spec = self.spec
        return spec._index(self.v) % spec._weights[0] == 0

    def prime_int(self) -> int:
        """Integer representative in [0, p) for elements of the prime field."""
        spec = self.spec
        c, rest = divmod(spec._index(self.v), spec._weights[0])
        if rest:
            raise NotInSubfield("element does not lie in the prime field")
        return c

    def to_json(self) -> list[int]:
        return list(self.coeffs)


# -- F_p-linear maps: the fold by the modulus, Frobenius, the p-th root and
# embeddings (``poly._embedding_map``), each cached per field on first use as
# k rows, row s listing (t, coefficient s of the image of x^t) where nonzero


def _linear_map(images, k: int) -> tuple:
    """The rows of the map sending x^t to the k coefficients images[t]."""
    return tuple(tuple((t, c[s]) for t, c in enumerate(images) if c[s])
                 for s in range(k))


def _powers_map(spec: FieldSpec, z, n: int) -> tuple:
    """The rows of x^t -> z^t for t < n, into spec, z given by its k
    coefficients; the powers are ``_ring_mul`` products, so no log tables
    are built."""
    powers = [(1,) + (0,) * (spec.k - 1)]
    while len(powers) < n:
        powers.append(_ring_mul(spec, powers[-1], z))
    return _linear_map(powers, spec.k)


@functools.lru_cache(maxsize=None)
def _fold_map(spec: FieldSpec) -> tuple:
    """x^t -> x^t mod the modulus for t < 2k - 1, the fold of a product;
    row s starts with (s, 1).  x^(t+1) is x^t shifted up and folded."""
    p, m, images = spec.p, spec.modulus, [[1] + [0] * (spec.k - 1)]
    while len(images) < 2 * spec.k - 1:
        y = images[-1]
        images.append([(d - y[-1] * c) % p for d, c in zip([0, *y[:-1]], m)])
    return _linear_map(images, spec.k)


# c -> c^(p^i) is x^t -> (x^(p^i))^t for x = [0, 1][:k] (0 over F_p, modulus x)
def _x_power(spec: FieldSpec, e: int) -> tuple[int, ...]:
    """The coefficients of x^e, e >= 1, by ``_ring_mul`` products."""
    x = ((0, 1) + (0,) * spec.k)[: spec.k]
    return square_and_multiply(x, e, functools.partial(_ring_mul, spec))


@functools.lru_cache(maxsize=None)
def _frobenius_map(spec: FieldSpec) -> tuple:
    """c -> c^p on spec."""
    return _powers_map(spec, _x_power(spec, spec.p), spec.k)


@functools.lru_cache(maxsize=None)
def _pth_root_map(spec: FieldSpec) -> tuple:
    """c -> c^(p^(k-1)), the inverse of Frobenius."""
    return _powers_map(spec, _x_power(spec, spec.p ** (spec.k - 1)), spec.k)


def _apply(rows, cols, p: int) -> list:
    """The image columns, under the map with these rows, of the elements
    whose coefficients cols holds; a copied column is returned unchanged."""
    out = []
    for row in rows:
        match row:
            case ():
                out.append([0] * len(cols[0]))
            case ((t, 1),):
                out.append(cols[t])
            case ((t, m),):
                out.append([m * c % p for c in cols[t]])
            case ((t, m), *rest, (u, n)):
                acc = cols[t] if m == 1 else [m * c for c in cols[t]]
                for t, m in rest:
                    acc = [a + m * c for a, c in zip(acc, cols[t])]
                out.append([(a + n * c) % p for a, c in zip(acc, cols[u])])
    return out


def _image(rows, a, p: int) -> list[int]:
    """The image of one element, given and returned as its coefficients."""
    return [sum([m * a[t] for t, m in row]) % p for row in rows]


def _ring_mul(spec: FieldSpec, a, b) -> tuple[int, ...]:
    """The product of the coefficient sequences a and b folded by spec's
    modulus, a coefficient tuple; it needs no tables nor an irreducible one."""
    return tuple(_image(_fold_map(spec), _mul_modp(a, b, spec.p), spec.p))


class _LogTables:
    """Discrete logarithms in a tabled F_{p^k}, k = 1 included, to the base
    of the least generator g, over element indices (the residues at k = 1),
    with n = q - 1 and g^(n/2) = -1:

    - ``log[i]`` is the log in [0, n) of nonzero element i, and log[0]
      is 2n;
    - ``exp[j]`` is the index of g^(j mod n) for j < 2n, and 0 (the zero
      element) for 2n <= j <= 4n, so exp[log a + log b] needs no reduction,
      and a product or a quotient with a zero factor reads 0;
    - ``zech[d]`` is the Zech logarithm log(1 + g^d) for d mod n != n/2,
      and 2n for d = n/2, where 1 + g^d = 0.  It holds 2n entries, so any
      d in (-2n, 2n) indexes it, the negative ones from the end (Lidl-
      Niederreiter, Finite Fields, ch. 9; Huber, IEEE Trans. IT 36, 1990).
    """

    __slots__ = ("n", "half", "log", "exp", "zech")

    def __init__(self, spec: FieldSpec):
        p, q = spec.p, spec.order
        self.n = n = q - 1
        self.half = n // 2
        weights = spec._weights
        top = weights[0]  # the index of 1, and the weight of the constant term
        g = _least_generator(spec)
        # y -> y*g is F_p-linear: coefficient s of y*g is y . cols[s], where
        # cols[s][t] is coefficient s of x^t g, so a step is k dot products
        rows = [_ring_mul(spec, spec.element([0] * t + [1]).coeffs, g.coeffs)
                for t in range(spec.k)]
        cols = list(zip(*rows))
        exp, y = [top], g.coeffs
        while (i := sum(map(operator.mul, y, weights))) != top and len(exp) < n:
            exp.append(i)
            y = [sum(map(operator.mul, y, c)) % p for c in cols]
        if i != top or len(exp) < n:
            raise NotAField(
                f"the powers of {g!r} do not return to 1 after exactly {n}"
                f" steps: modulus {list(spec.modulus)} is reducible"
            )
        self.log = log = [2 * n] * q
        for j, i in enumerate(exp):
            log[i] = j
        # 1 + g^d adds 1 to the constant term, the top digit of the index,
        # mod p; at d = n/2 that gives 0, whose log is 2n
        self.zech = [log[(i + top) % q] for i in exp] * 2
        self.exp = exp * 2 + [0] * (2 * n + 1)


# -- arithmetic on stored values ---------------------------------------------


def _same(x):
    return x


class StoredArithmetic(
    namedtuple(
        "StoredArithmetic",
        "zero one mul sub add neg div pow dot submul frobenius pth_root",
    )
):
    """Field operations on the values ``FieldElement.v`` stores: ints in a
    coded field, residues mod p at k = 1 and element indices within the
    table bound, and coefficient tuples above the bound.  It only computes:
    ``FieldSpec._value`` and ``_index`` alone convert between values and
    element indices, and ``_decode`` and ``_encode`` between values and
    coefficient tuples.  ``div`` takes a nonzero divisor and ``pow`` any
    base with an int exponent, nonnegative for a zero base (0^0 is
    ``one``); ``dot`` is the sum of the products of two equally long value
    sequences; ``submul(xs, s, c, ys)`` subtracts c ys[i] from xs[s + i] in
    place for every i and a nonzero c, the step of ``_divmod``.

    Fields: ``zero`` and ``one``, stored values; ``mul``, ``sub``, ``add``,
    ``neg``, ``div``, ``pow`` ((x, e) -> x^e), ``dot``, ``submul`` ((xs, s,
    c, ys): xs[s + i] -= c ys[i]), ``frobenius`` (x -> x^p) and
    ``pth_root`` (x -> x^(1/p)), each a ``Callable``."""

    __slots__ = ()


def _stored_arithmetic(spec: FieldSpec) -> StoredArithmetic:
    """The ``StoredArithmetic`` of spec (``FieldSpec._ops``): int
    operations mod p at k = 1 (Frobenius and its inverse are the identity
    there), ``_LogTables`` lookups within the table bound, and coefficient
    tuple operations above it."""
    p = spec.p
    if spec.k == 1:
        def submul(xs, s, c, ys):
            for i, y in enumerate(ys, s):
                xs[i] = (xs[i] - c * y) % p

        return StoredArithmetic(
            0,
            1,
            lambda a, b: a * b % p,
            lambda a, b: (a - b) % p,
            lambda a, b: (a + b) % p,
            lambda a: -a % p,
            lambda a, b: a * pow(b, -1, p) % p,
            lambda a, e: pow(a, e, p),
            lambda xs, ys: sum(map(operator.mul, xs, ys)) % p,
            submul,
            _same,
            _same,
        )
    t = spec._tables
    if t is None:
        return _tuple_arithmetic(spec)
    n, half = t.n, t.half
    log, exp, zech = t.log, t.exp, t.zech
    frobenius = [exp[log[i] * p % n] if i else 0 for i in range(spec.order)]
    # exp[:n] holds every nonzero index once, so root shares its ints
    root = [0] * spec.order
    for i in exp[:n]:
        root[frobenius[i]] = i

    # In a tabled field, with la = log a: a * b = g^(la + lb), -b =
    # g^(lb + n/2), and a + b = g^la (1 + g^(lb - la)) = g^(la + zech(lb - la))
    # for nonzero a and b; _LogTables lays out exp and zech so that none of
    # these needs a reduction mod n, and no product a branch on a zero factor
    def mul(a, b):
        return exp[log[a] + log[b]]

    def div(a, b):
        return exp[log[a] - log[b] + n]

    def add(a, b):
        if not a:
            return b
        if not b:
            return a
        la = log[a]
        return exp[la + zech[log[b] - la]]

    def sub(a, b):
        if not b:
            return a
        lb = log[b] + half
        if not a:
            return exp[lb]
        la = log[a]
        return exp[la + zech[lb - la]]

    def neg(a):
        return exp[log[a] + half]

    # log[0] = 2n, so exp[log[0] * e % n] would read 1 for 0^e, e >= 1
    def power(a, e):
        return exp[log[a] * e % n] if a or not e else 0

    # each product stays a log, lt < 2n, until it is added; zech repeats
    # with period n over its 2n entries, so lt - la indexes it directly
    def dot(xs, ys):
        acc = 0
        for x, y in zip(xs, ys):
            if x and y:
                lt = log[x] + log[y]
                if acc:
                    la = log[acc]
                    acc = exp[la + zech[lt - la]]
                else:
                    acc = exp[lt]
        return acc

    # -c y = g^(log(-c) + log y), log(-c) = log c + n/2 mod n taken once
    # per call (c != 0), and a zero y reads 0 as in mul
    def submul(xs, s, c, ys):
        lc = (log[c] + half) % n
        for i, y in enumerate(ys, s):
            xs[i] = add(xs[i], exp[lc + log[y]])

    return StoredArithmetic(
        0,
        spec._int_value(1),
        mul,
        sub,
        add,
        neg,
        div,
        power,
        dot,
        submul,
        frobenius.__getitem__,
        root.__getitem__,
    )


def _tuple_arithmetic(spec: FieldSpec) -> StoredArithmetic:
    """The ``StoredArithmetic`` of a field above the table bound, on
    coefficient tuples."""
    p, k = spec.p, spec.k
    zero, one = (0,) * k, (1,) + (0,) * (k - 1)
    prime_ops = make_field(p, 1)._ops

    def scale(a, c):
        return tuple(x * c % p for x in a) if c else zero

    def mul(a, b):
        # a prime-field operand, zero included, scales the other one
        if not any(b[1:]):
            return scale(a, b[0])
        if not any(a[1:]):
            return scale(b, a[0])
        return _ring_mul(spec, a, b)

    def inverse(a):
        # extended Euclid in F_p[x] against the modulus
        r0, r1 = list(spec.modulus), _trim(list(a), 0)
        t0, t1 = [], [1]
        while r1:
            quot, rem = _divmod(prime_ops, r0, r1)
            r0, r1, t0, t1 = r1, rem, t1, _sub_modp(t0, _mul_modp(quot, t1, p), p)
        # deg t0 < k throughout, so t0 needs no reduction by the modulus
        inv_lead = pow(r0[-1], p - 2, p)
        return tuple([c * inv_lead % p for c in t0] + [0] * (k - len(t0)))

    def power(a, e):
        if e < 0:
            a, e = inverse(a), -e
        return square_and_multiply(a, e, mul) if e else one

    def dot(xs, ys):
        total = zero
        for x, y in zip(xs, ys):
            total = tuple(map(operator.add, total, mul(x, y)))
        return tuple(c % p for c in total)

    def submul(xs, s, c, ys):
        for i, y in enumerate(kronecker_mul([c], ys, spec), s):
            xs[i] = tuple([(x - t) % p for x, t in zip(xs[i], y)])

    return StoredArithmetic(
        zero,
        one,
        mul,
        lambda a, b: tuple([(x - y) % p for x, y in zip(a, b)]),
        lambda a, b: tuple([(x + y) % p for x, y in zip(a, b)]),
        lambda a: tuple([-x % p for x in a]),
        lambda a, b: mul(a, inverse(b)),
        power,
        dot,
        submul,
        lambda a: tuple(_image(_frobenius_map(spec), a, p)),
        lambda a: tuple(_image(_pth_root_map(spec), a, p)),
    )


# -- packed products of coefficient sequences -------------------------------


def value_columns(values, spec: FieldSpec) -> list:
    """A sequence of stored values of spec in column form: k equally long
    columns, column t holding coefficient t (of x^t) of every element (k
    empty columns for an empty sequence)."""
    if spec.k == 1:
        return [values]
    return list(zip(*map(spec._decode, values))) or [()] * spec.k


def column_values(cols, spec: FieldSpec) -> list:
    """The stored values of the elements whose coefficients the k columns
    hold, digits in [0, p): the inverse of ``value_columns``."""
    if spec.k == 1:
        return cols[0]
    return list(map(spec._encode, zip(*cols)))


def kronecker_columns(a, b, spec: FieldSpec) -> list[list[int]]:
    """Product of two nonempty ascending coefficient sequences over
    F_{p^k}, k >= 2, both given and returned in column form (see
    ``value_columns``).  The callers handle k = 1 and empty sequences
    themselves (``kronecker_mul``, ``witt._carry``).

    Digit i of term j (the coefficient of x^i) is laid out at digit
    j*(2k-1) + i of one F_p[x] digit list, with zeros between, so one
    ``_mul_modp`` of the two lists holds every term of the product in its
    own (2k-1)-digit slot, and the slots are then reduced mod the field
    modulus, digit t of every slot at once (``_fold_map`` applied to
    columns).  A slot is 2k-1 digits wide because the product of two
    elements has x-degree up to 2k-2 before reduction.  Returns the k
    columns of the len(a[0]) + len(b[0]) - 1 product terms, digits in
    [0, p).
    """
    p, k = spec.p, spec.k
    la, lb = len(a[0]), len(b[0])
    stride = 2 * k - 1
    x = _interleave(a, stride)
    digits = _mul_modp(x, x if a is b else _interleave(b, stride), p)
    n = (la + lb - 1) * stride
    return _apply(_fold_map(spec), [digits[t:n:stride] for t in range(stride)], p)


def _interleave(cols, stride: int) -> list[int]:
    """The digits of columns laid out term by term, stride digits a term
    (zero past the last column)."""
    out = [0] * (len(cols[0]) * stride)
    for t, c in enumerate(cols):
        out[t::stride] = c
    return out


def kronecker_mul(a, b, spec: FieldSpec) -> list:
    """Product of two ascending coefficient sequences over spec, both given
    and returned as lists of stored values: len(a) + len(b) - 1 values, or
    [] if either sequence is empty.  ``_mul_modp`` of the residues at k = 1,
    else ``kronecker_columns`` of the value columns."""
    if spec.k == 1:
        return _mul_modp(a, b, spec.p)
    if not a or not b:
        return []
    x = value_columns(a, spec)
    y = x if a is b else value_columns(b, spec)
    return column_values(kronecker_columns(x, y, spec), spec)


# -- operations --------------------------------------------------------------


def mth_root(y: FieldElement, m: int) -> FieldElement:
    """One x with x^m = y, for m | p - 1 (zero for y = 0), in a tabled
    field, F_p included: x is exp[floor(log y / m)], one lookup in the log
    tables, built on the first root.  ValueError above the table bound,
    for every k, where ``poly`` splits G(t^m) instead.  NotAField if y is
    no m-th power or the ring is no field: x^m = y is checked at the end."""
    spec, p, v = y.spec, y.spec.p, y.v
    if m < 1 or (p - 1) % m:
        raise OrderNotDividing(f"{m} does not divide {p - 1}")
    if spec.order > _LOG_TABLE_BOUND:
        raise ValueError(f"F_{{{p}^{spec.k}}} is above the table bound")
    if y:
        v = spec._tables.exp[spec._tables.log[v] // m]
    x = FieldElement(spec, v)
    if x**m != y:
        raise NotAField(f"{y!r} has no {m}-th root in F_{{{p}^{spec.k}}}")
    return x


def _frobenius_steps(ops: StoredArithmetic, v, j: int):
    """v^(p^j) as j Frobenius steps of ops, a field's bundle: j lookups or
    linear maps, where a power by p^j takes about j log2(p) products."""
    for _ in range(j):
        v = ops.frobenius(v)
    return v


def subfield_trace(ops: StoredArithmetic, v, d: int):
    """v + v^p + ... + v^(p^(d-1)) on the stored values of the field whose
    bundle is ops: the trace to F_p of an element that the caller knows to
    lie in F_{p^d}."""
    frobenius, add = ops.frobenius, ops.add
    total = v
    for _ in range(d - 1):
        v = frobenius(v)
        total = add(total, v)
    return total


@functools.lru_cache(maxsize=None)
def _least_generator(spec: FieldSpec) -> FieldElement:
    """The least g in element order whose multiplicative order is q - 1,
    found by polynomial arithmetic on coefficient tuples (``_ring_mul``),
    since the log tables are built on it."""
    q1 = spec.order - 1
    one = spec.one().coeffs
    mul = functools.partial(_ring_mul, spec)

    def power(g, e):
        return square_and_multiply(g.coeffs, e, mul)

    factors = prime_factors(q1)  # 2 first, as q is odd
    for g in spec.elements():
        if not g:
            continue
        half = power(g, q1 // 2)
        if mul(half, half) != one:
            # in a field every nonzero g has g^(q-1) = 1; stopping at the
            # first g without it (a zero divisor, say) spares testing all q
            raise NotAField(
                f"{g!r} has g^(q-1) != 1: modulus {list(spec.modulus)}"
                " is reducible"
            )
        if half != one and all(power(g, q1 // r) != one for r in factors[1:]):
            return g
    raise NotAField(
        f"F_{{{spec.p}^{spec.k}}} with modulus {list(spec.modulus)} has no element"
        f" of order {q1}: the modulus is reducible"
    )


def root_of_unity(spec: FieldSpec, order: int) -> FieldElement:
    """A fixed primitive order-th root of unity: g^((q-1)/order) for the
    least multiplicative generator g."""
    if order < 1 or (spec.order - 1) % order != 0:
        raise OrderNotDividing(f"{order} does not divide {spec.order - 1}")
    if order == 1:
        return spec.one()
    g = _least_generator(spec)
    return g ** ((spec.order - 1) // order)

