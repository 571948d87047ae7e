"""Reference implementations kept as test oracles for library code that
was replaced by a simpler or faster exact path:

- ``RationalFunction`` and ``reconstruct_f_reference``: f rebuilt from residue
  data by summing rational functions reduced by ``poly_gcd_reference`` (one
  gcd per addition), the oracle for ``ddcrit.criterion.reconstruct_f``;
- ``sympy_witt_sum_polys``: the ghost-component recursion over sympy
  rationals, the oracle for ``ddcrit.witt.witt_sum_polys``.  It needs sympy;
  callers skip with ``pytest.importorskip("sympy")``;
- ``candidate``, ``ddc_passing`` and ``enumerate_search``: every candidate
  run through ``ddc_check`` in rank order, the oracle for the pruned search
  ``ddcrit.search.first_witness``;
- ``schoolbook_mul``: one field multiplication per pair of terms, the
  oracle for the packed product of stored values ``ddcrit.gf.kronecker_mul``
  behind ``Poly.__mul__`` and ``LaurentPoly.__mul__``;
- ``field_mul_reference``, ``field_pow_reference`` and
  ``least_generator_reference``: schoolbook products of coefficient
  vectors reduced by the modulus, with no ``ddcrit.gf`` kernel, the oracle
  for ``FieldElement`` arithmetic (ints for k = 1, log tables, polynomial
  products) and ``root_of_unity``;
- ``poly_divmod_reference`` and ``poly_gcd_reference``: schoolbook division
  with one field multiplication and subtraction per quotient term and
  divisor coefficient, and Euclid over it, the oracle for
  ``Poly.divmod`` and ``Poly.gcd`` (the division ``ddcrit.gf._divmod`` on
  stored values, for every field);
- ``series_inverse_reference``: the first coefficients of 1/C(s) by the
  recurrence c_0 g_j = -sum_{i=1..j} c_i g_{j-i} on field elements, the
  oracle for ``ddcrit.criterion._series_inverse``, a reversed quotient of
  ``ddcrit.gf._divmod``;
- ``powmod_reference``: square-and-multiply with one
  ``poly_divmod_reference`` per step, the oracle for
  ``ddcrit.poly._powmod`` (``ddcrit.gf._powmod`` on stored values, for
  every field);
- ``candidate_polys`` and ``equal_degree_factorization_reference``:
  Cantor-Zassenhaus over a counter-based candidate sequence, recursing into
  both pieces, the oracle for the trace splitting of
  ``ddcrit.poly.equal_degree_factorization`` (behind ``factor`` and
  ``roots_in_field``);
- ``factor_reference``: trial division by every monic polynomial of
  degree 1, 2, ... in element order, each divided out as often as it
  divides, over ``poly_divmod_reference``, the oracle for the factors and
  multiplicities of ``ddcrit.poly.factor``;
- ``one_root_reference``: Cantor-Zassenhaus over the splitting field with
  the same candidates, recursing into the smaller piece, the oracle for the
  one root that ``ddcrit.poly._one_root`` takes, by the quadratic formula
  for a quadratic and by trace splitting above, and so for the root sets of
  ``ddcrit.poly._conjugates``;
- ``embedding_image_reference``: the least root of the source modulus by
  ``roots_in_field`` over the target field, which factors there, the oracle
  for ``ddcrit.poly._embedding_image`` (the least of the conjugates of one
  root) behind ``embed``;
- ``embed_reference``: the coefficient polynomial of an element evaluated
  at that image by Horner's rule, one field product and sum per
  coefficient, the oracle for the cached linear map of ``ddcrit.poly.embed``
  (``_embedding_map``);
- ``powers_map_reference``, ``frobenius_map_reference``,
  ``pth_root_map_reference`` and ``artin_schreier_matrix_reference``: the
  rows of x^t -> z^t and the matrix of x -> x^p - x from ``FieldElement``
  powers (log tables within the table bound), the oracle for
  ``ddcrit.gf._powers_map``, ``_frobenius_map`` and ``_pth_root_map`` and
  ``ddcrit.witt._artin_schreier_matrix``, which multiply coefficient
  tuples by ``ddcrit.gf._ring_mul``;
- ``rabin_reference``: the Rabin test as ``ddcrit.gf`` ran it on its own
  list helpers (a reduction that assumes a monic divisor, a power and a
  gcd over it), before every dense F_p[x] operation there went through one
  product and one division.  It keeps ROADMAP defect 1, non-monic gcd
  remainders divided as if monic, so it is the oracle for the verdicts of
  ``ddcrit.gf._is_irreducible_modp``, defect included;
- ``deterministic_modulus_reference``: the modulus scan over
  ``itertools.product``, which builds every pool before the first vector
  (small p only), with ``rabin_reference``, so it shares no code with the
  library scan: the oracle for the order of
  ``ddcrit.gf._deterministic_modulus``;
- ``least_irreducible_reference``: the same scan with irreducibility
  decided by ``ddcrit.poly.factor`` over F_p, which shares no code with the
  Rabin test in ``ddcrit.gf``: the oracle for the moduli of ``make_field``;
- ``laurent_add_reference``, ``cartier_reference``,
  ``laurent_frobenius_reference`` and ``laurent_map_coeffs_reference``:
  Laurent polynomials as term dicts, the oracle for the dense coefficient
  path of ``LaurentPoly.__add__``, ``ddcrit.cartier.cartier``,
  ``ddcrit.witt.frobenius`` and ``ddcrit.poly.embed_poly``;
- ``is_exact`` and ``dlog_truncated``: whether C(h dt) = 0, and the
  truncated logarithmic forms of products of (1 - x_j t^-1)^(a_j), which
  no library code calls; the tests check the Cartier operator on them;
- ``witt_add_reference``: each addition polynomial S_i of
  ``ddcrit.witt.witt_sum_polys`` evaluated term by term on the entries
  with ``laurent_mul_reference`` and ``laurent_add_reference``, the oracle
  for the Teichmüller carries of ``ddcrit.witt.witt_add`` and ``witt_sub``
  (the ghost oracle, tests/ghost_oracle.py, checks sums independently of
  the S_i);
- ``solve_modp_reference`` and ``field_elimination_reference``:
  Gauss-Jordan elimination on ints mod p, full rows at a time, and forward
  Gaussian elimination on ``FieldElement``s, neither of which shares code
  with ``ddcrit.gf``, the oracles for the solution and for the pivots and
  determinant of the one elimination there, ``ddcrit.gf._gauss_jordan``
  on stored values (behind ``solve_modp`` and the isolation determinant's
  Schur factor);
- ``small_family_residues_reference``: the power-sum system of the small
  family (p, 2, 1, N1) solved by ``solve_modp_reference``, the oracle for
  the closed-form Lagrange weights of ``ddcrit.construct.construct_small``;
- ``standard_form_reference``: the per-term reduction, which removes the
  least p-divisible pole (or else the constant) of the current slot one
  monomial at a time, with two Witt additions to subtract wp of it and one
  to add it to the adjustment, the oracle for the one-pass, one-carry
  ``ddcrit.witt.standard_form``;
- ``step_radii_reference``: the radii of one lifting step on Fractions,
  r_hub = 1/N2 - N1/((p-1)u_prev N2) and delta_hub = u_next r_hub, the
  oracle for the closed forms on int pairs of ``ddcrit.planner.step_radii``;
- ``plan_payload_reference``: the whole ``plan`` payload built as lists,
  every step's JSON once, which ``json.dumps`` renders in one call, the
  oracle for the rows that ``ddcrit.cli`` renders from templates and
  writes in batches;
- ``elementary_symmetric_reference``: e_0, ..., e_n of field elements by
  one O(n^2) product loop over the splitting field, where
  ``ddcrit.criterion.isolation_check`` reads s_lambda off F over f's own
  field; the tests build prod_j (t - y_j) with it;
- ``binomial_det``: the generalized-Vandermonde determinant
  det(binom(q-1, j-1)) by Bareiss fraction-free elimination against its
  closed-form product, a cross-check that no library code calls;
- ``evaluate_reference``, ``mu_m_orbit_reps_reference``,
  ``checked_reps_reference`` and ``construct_trace_reference``: Horner's
  rule, the mu_m orbits, the rep check of ``certify_data`` and the trace
  family's walk over the roots of unity with one ``FieldElement`` per
  intermediate, the oracles for ``ddcrit.poly.Poly.evaluate``,
  ``ddcrit.poly.mu_m_orbit_reps``, ``ddcrit.criterion._checked_reps`` and
  ``ddcrit.construct.construct_trace``, which compute on stored values
  through the field's ``StoredArithmetic``;
- ``ord_mod`` and ``trace_to_prime``: the multiplicative order of p mod n
  one step at a time, for the field of ``construct_trace_reference``, and
  the trace to F_p of an element checked to lie in F_{p^d}, the oracle for
  the residues of ``ddcrit.construct.construct_trace`` (its unchecked
  ``ddcrit.gf.subfield_trace``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from math import lcm

from ddcrit.cartier import Quadruple, cartier, ddc_check
from ddcrit.criterion import ResidueData, certify, criterion_exponents
from ddcrit.errors import (
    DdcritError,
    ExtensionCapExceeded,
    LevelTooHigh,
    NotAField,
    NotInSubfield,
    NotOrbitClosed,
    NotStandardForm,
    ReconstructionMismatch,
    RepeatedRoot,
    SpecMismatch,
    ZeroRoot,
)
from ddcrit.gf import (
    FieldElement,
    FieldSpec,
    make_field,
    prime_factors,
    root_of_unity,
    square_and_multiply,
)
from ddcrit.planner import profiles_for_group, quadruples_for_group, step_radii
from ddcrit.poly import (
    LaurentPoly,
    Poly,
    _embedding_image,
    _powmod,
    embed,
    embed_poly,
    factor,
    roots_in_field,
)
from ddcrit.search import NotFound, _passes, candidate_count
from ddcrit.witt import (
    DEFAULT_EXTENSION_CAP,
    MAX_LEVEL,
    StandardFormResult,
    WittVector,
    _artin_schreier_solve,
    is_standard,
    witt_add,
    witt_sub,
    witt_sum_polys,
    wp,
)


class RationalFunction:
    """Quotient of polynomials in lowest terms with monic denominator."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Poly, denominator: Poly):
        if not denominator:
            raise ZeroDivisionError("zero denominator")
        g = poly_gcd_reference(numerator, denominator)
        if g.degree > 0:
            numerator = poly_divmod_reference(numerator, g)[0]
            denominator = poly_divmod_reference(denominator, g)[0]
        lead = denominator.coeffs[-1]
        if lead != denominator.spec.one():
            inv = lead.inverse()
            numerator = numerator * inv
            denominator = denominator * inv
        self.numerator = numerator
        self.denominator = denominator

    @classmethod
    def from_poly(cls, f: Poly):
        return cls(f, Poly.one(f.spec))

    @property
    def spec(self):
        return self.denominator.spec

    def __bool__(self):
        return bool(self.numerator)

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunction)
            and self.numerator == other.numerator
            and self.denominator == other.denominator
        )

    def __repr__(self):
        return f"({self.numerator!r})/({self.denominator!r})"

    def __add__(self, other):
        return RationalFunction(
            self.numerator * other.denominator + other.numerator * self.denominator,
            self.denominator * other.denominator,
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RationalFunction(-self.numerator, self.denominator)

    def __mul__(self, other):
        return RationalFunction(
            self.numerator * other.numerator, self.denominator * other.denominator
        )

    def inverse(self):
        if not self.numerator:
            raise ZeroDivisionError("inverse of zero rational function")
        return RationalFunction(self.denominator, self.numerator)

    def __truediv__(self, other):
        return self * other.inverse()

    def as_poly(self) -> Poly | None:
        """The underlying polynomial, or None if the denominator is not 1."""
        if self.denominator.degree == 0:
            return self.numerator
        return None


def reconstruct_f_reference(rd: ResidueData) -> Poly:
    """f from residue data via dg/g - tail = eta = dt/(f t^(u~+1)), each step a
    reduced RationalFunction; raises ReconstructionMismatch like the
    library."""
    q = rd.quadruple
    spec = rd.field
    zeta = root_of_unity(spec, q.m)
    t = Poly.x(spec)
    dg_over_g = RationalFunction(Poly.zero(spec), Poly.one(spec))
    for x, a in zip(rd.reps, rd.residues):
        for ell in range(1, q.m + 1):
            c = zeta ** (-ell) * x
            exponent = (zeta ** (-ell) * a).prime_int()
            if exponent == 0:
                continue
            # lift(zeta^-l a_j) * c / (t (t - c))
            num = Poly(spec, [c * exponent])
            den = t * (t - Poly(spec, [c]))
            dg_over_g = dg_over_g + RationalFunction(num, den)
    # u * sum_s t^(-u p^s - 1) = u * (sum_s t^(u~ - u p^s)) / t^(u~ + 1)
    tail_coeffs = {}
    for s in range(q.nu + 1):
        e = q.u_tilde - q.u * q.p**s
        tail_coeffs[e] = tail_coeffs.get(e, 0) + q.u
    tail_num = Poly.from_ints(
        spec, [tail_coeffs.get(i, 0) for i in range(q.u_tilde + 1)]
    )
    t_pow = Poly(spec, [spec.zero()] * (q.u_tilde + 1) + [spec.one()])
    eta = dg_over_g - RationalFunction(tail_num, t_pow)
    f = (eta * RationalFunction.from_poly(t_pow)).inverse().as_poly()
    if f is None:
        raise ReconstructionMismatch("reconstructed f is not a polynomial")
    if spec.k > 1 and all(c**q.p == c for c in f.coeffs):
        prime = make_field(q.p, 1)
        f = Poly(prime, [prime.from_int(c.coeffs[0]) for c in f.coeffs])
    try:
        ok = ddc_check(q, f)
    except DdcritError as exc:  # shape validation
        raise ReconstructionMismatch(f"reconstructed f has bad shape: {exc}") from exc
    if not ok:
        raise ReconstructionMismatch("reconstructed f fails the criterion")
    return f


def solve_modp_reference(aug: list[list[int]], p: int) -> list[int] | None:
    """A solution over F_p of the system with augmented rows aug by
    Gauss-Jordan elimination on int rows, the pivot of a column its first
    row not yet pivoted that is nonzero mod p, with every free variable 0;
    None if the system is inconsistent."""
    rows = [list(row) for row in aug]
    n = len(rows[0]) - 1
    pivots = []
    for col in range(n):
        r0 = len(pivots)
        piv = next((r for r in range(r0, len(rows)) if rows[r][col] % p), None)
        if piv is None:
            continue
        rows[r0], rows[piv] = rows[piv], rows[r0]
        inv = pow(rows[r0][col], p - 2, p)
        rows[r0] = [(x * inv) % p for x in rows[r0]]
        for r, row in enumerate(rows):
            if r != r0 and row[col] % p:
                rows[r] = [(a - row[col] * b) % p for a, b in zip(row, rows[r0])]
        pivots.append(col)
    if any(row[n] % p for row in rows[len(pivots):]):
        return None
    solution = [0] * n
    for col, row in zip(pivots, rows):
        solution[col] = row[n]
    return solution


def field_elimination_reference(matrix) -> tuple[list[int], FieldElement]:
    """(pivots, det) of a nonempty matrix of FieldElements by forward
    Gaussian elimination on a copy: the pivot columns, the pivot of a
    column its first entry, in the rows not yet pivoted, that is nonzero,
    and the product of the pivots with the sign of the row swaps when the
    matrix is square of full rank, else zero."""
    m = [list(row) for row in matrix]
    spec = m[0][0].spec
    pivots, det = [], spec.one()
    for col in range(len(m[0])):
        r0 = len(pivots)
        piv = next((r for r in range(r0, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        if piv != r0:
            m[r0], m[piv] = m[piv], m[r0]
            det = -det
        det = det * m[r0][col]
        inv = m[r0][col].inverse()
        for r in range(r0 + 1, len(m)):
            if m[r][col]:
                factor = m[r][col] * inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[r0])]
        pivots.append(col)
    if not len(m) == len(m[0]) == len(pivots):
        det = spec.zero()
    return pivots, det


def small_family_residues_reference(p: int, n1: int) -> tuple[int, ...]:
    """Residues a_j of the small family (p, 2, 1, n1) at x_j = j,
    j = 1..n1/2, from the rows sum_j a_j x_j^e = 1/2 for e = 1 and 0 for
    every other criterion exponent e, by ``solve_modp_reference``."""
    if n1 == 0:
        return ()
    q = Quadruple(p, 2, 1, n1)
    reps = range(1, n1 // 2 + 1)
    half = pow(2, -1, p)
    aug = [
        [pow(x, e, p) for x in reps] + [half if e == q.u else 0]
        for e in criterion_exponents(q)
    ]
    if len(aug) != len(reps):
        raise AssertionError("small-family power-sum system is not square")
    residues = solve_modp_reference(aug, p)
    if residues is None:
        raise AssertionError("small-family power-sum system has no solution")
    return tuple(residues)


def isolation_det_reference(rd: ResidueData):
    """(matrix, det): the Jacobian (e a_j x_j^(e-1)) of the power-sum
    system, rows over the ascending criterion exponents and columns over
    the reps, and its determinant by ``field_elimination_reference``.  The
    data must give a square system with at least one rep."""
    exps = criterion_exponents(rd.quadruple)
    if not rd.reps or len(exps) != len(rd.reps):
        raise ValueError("the Jacobian is empty or not square")
    matrix = [
        [x ** (e - 1) * (a * e) for x, a in zip(rd.reps, rd.residues)]
        for e in exps
    ]
    return matrix, field_elimination_reference(matrix)[1]


def elementary_symmetric_reference(values, spec: FieldSpec | None = None):
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


def sympy_witt_sum_polys(p: int, n: int):
    """Addition polynomials S_0..S_{n-1} as (c, xe, ye) term tuples in
    sympy's Poly.terms() order, from the recursion
    S_i = (w_i(X) + w_i(Y) - sum_{j<i} p^j S_j^{p^{i-j}}) / p^i over Q."""
    import sympy

    xs = sympy.symbols(f"x0:{n}")
    ys = sympy.symbols(f"y0:{n}")

    def ghost(vs, i):
        return sum(p**j * vs[j] ** (p ** (i - j)) for j in range(i + 1))

    exact: list = []
    reduced = []
    for i in range(n):
        expr = ghost(xs, i) + ghost(ys, i)
        expr -= sum(p**j * exact[j] ** (p ** (i - j)) for j in range(i))
        expr = sympy.expand(expr) / p**i
        poly = sympy.Poly(sympy.expand(expr), *xs, *ys)
        terms = []
        for monom, coeff in poly.terms():
            if not coeff.is_integer:
                raise AssertionError("ghost recursion produced a non-integer")
            c = int(coeff) % p
            if c:
                terms.append((c, tuple(monom[:n]), tuple(monom[n:])))
        exact.append(poly.as_expr())
        reduced.append(tuple(terms))
    return tuple(reduced)


def candidate(q: Quadruple, spec, index: int) -> Poly:
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


def ddc_passing(q: Quadruple, spec) -> list[Poly]:
    """Every candidate that passes ddc_check, in rank order."""
    candidates = (candidate(q, spec, i) for i in range(candidate_count(q, spec)))
    return [f for f in candidates if ddc_check(q, f)]


def enumerate_search(q: Quadruple, field_degree: int, require_isolated: bool,
                     passing: list[Poly]):
    """First witness by enumeration: certify the candidates that pass
    ddc_check (``passing``, from ``ddc_passing``) in rank order.  Taking
    ``passing`` as an argument lets both isolation requirements share one
    pass over the space."""
    for f in passing:
        cert = certify(q, f)
        if _passes(cert, require_isolated):
            return cert
    total = candidate_count(q, make_field(q.p, field_degree))
    return NotFound(q, field_degree, require_isolated, total, True, total)


def schoolbook_mul(a, b, spec) -> list:
    """Product of two ascending coefficient sequences over spec, summing
    a_i * b_j into slot i + j; [] if either is empty."""
    if not a or not b:
        return []
    z = spec.zero()
    out = [z] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
    return out


def field_mul_reference(a, b, p: int, modulus) -> tuple[int, ...]:
    """Product of two elements of F_p[x]/(modulus), given and returned as
    ascending coefficient vectors of length k: the schoolbook product of
    the vectors, then each top coefficient cleared with the monic modulus."""
    k = len(modulus) - 1
    prod = [0] * (2 * k - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    for top in range(2 * k - 2, k - 1, -1):
        c = prod[top]
        for t, mt in enumerate(modulus):
            prod[top - k + t] -= c * mt
    return tuple(c % p for c in prod[:k])


def field_pow_reference(a, e: int, p: int, modulus) -> tuple[int, ...]:
    """a^e in F_p[x]/(modulus) for e >= 0, by square-and-multiply over
    ``field_mul_reference``."""
    result = tuple([1] + [0] * (len(modulus) - 2))
    while e:
        if e & 1:
            result = field_mul_reference(result, a, p, modulus)
        a = field_mul_reference(a, a, p, modulus)
        e >>= 1
    return result


def least_generator_reference(p: int, modulus) -> tuple[int, ...]:
    """The least element, in coefficient-tuple order (the order of
    ``FieldSpec.element_by_index``), of multiplicative order q - 1 in the
    field F_p[x]/(modulus), by ``field_pow_reference``."""
    k = len(modulus) - 1
    q1 = p**k - 1
    one = tuple([1] + [0] * (k - 1))
    primes = [r for r in range(2, q1 + 1) if q1 % r == 0
              and all(r % s for s in range(2, r))]
    for g in product(range(p), repeat=k):
        if field_pow_reference(g, q1, p, modulus) == one and all(
            field_pow_reference(g, q1 // r, p, modulus) != one for r in primes
        ):
            return g
    raise ValueError("no generator: the modulus is reducible")


def poly_divmod_reference(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """(quotient, remainder) of a by b != 0 over their common field, by
    schoolbook division on field elements: each quotient term is the top
    remainder coefficient times the inverse of b's leading coefficient."""
    if a.spec != b.spec:
        raise SpecMismatch("polynomials over different field specs")
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    spec = a.spec
    rem = list(a.coeffs)
    quot = [spec.zero()] * max(0, len(rem) - len(b.coeffs) + 1)
    inv_lead = b.coeffs[-1].inverse()
    db = len(b.coeffs) - 1
    while len(rem) - 1 >= db and rem:
        c = rem[-1] * inv_lead
        shift = len(rem) - 1 - db
        if c:
            quot[shift] = c
            for i, v in enumerate(b.coeffs):
                rem[shift + i] = rem[shift + i] - c * v
        rem.pop()
    return Poly(spec, quot), Poly(spec, rem)


def poly_gcd_reference(a: Poly, b: Poly) -> Poly:
    """The monic gcd of a and b (zero for two zeros), by Euclid over
    ``poly_divmod_reference``."""
    while b:
        a, b = b, poly_divmod_reference(a, b)[1]
    if not a:
        return a
    inv_lead = a.coeffs[-1].inverse()
    return Poly(a.spec, [c * inv_lead for c in a.coeffs])


def powmod_reference(base: Poly, e: int, mod: Poly) -> Poly:
    """base^e mod mod by square-and-multiply, reducing every product by
    ``poly_divmod_reference``."""

    def reduce(f: Poly) -> Poly:
        return poly_divmod_reference(f, mod)[1]

    result = Poly.one(base.spec)
    base = reduce(base)
    while e:
        if e & 1:
            result = reduce(result * base)
        e >>= 1
        if e:
            base = reduce(base * base)
    return result


def series_inverse_reference(coeffs, length: int) -> list:
    """The first ``length`` coefficients of 1/C(s), C = sum_i coeffs[i] s^i
    with coeffs[0] != 0, one term at a time from the ones before it."""
    inv0 = coeffs[0].inverse()
    out = [inv0]
    for j in range(1, length):
        total = inv0.spec.zero()
        for c, g in zip(coeffs[1 : j + 1], reversed(out)):
            total = total + c * g
        out.append(-(total * inv0))
    return out


def candidate_polys(spec, max_degree: int):
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


def equal_degree_factorization_reference(f: Poly, d: int) -> list[Poly]:
    """Split a squarefree monic product of degree-d irreducibles by
    gcd(f, h^((q^d-1)/2) - 1) for the first candidate h that splits it,
    then the same on both pieces; the factors sorted."""
    spec = f.spec
    if f.degree == d:
        return [f]
    exponent = (spec.order**d - 1) // 2
    for cand in candidate_polys(spec, 2 * d):
        h = _powmod(cand, exponent, f)
        g = f.gcd(h - Poly.one(spec))
        if 0 < g.degree < f.degree:
            return sorted(
                equal_degree_factorization_reference(g, d)
                + equal_degree_factorization_reference(f // g, d),
                key=lambda t: [c.sort_key() for c in t.coeffs],
            )
    raise AssertionError("equal-degree splitting exhausted candidates")


def factor_reference(f: Poly) -> list[tuple[Poly, int]]:
    """Monic irreducible factors of f != 0 with multiplicities, sorted like
    ``factor``: each monic g of degree d = 1, 2, ... is divided out of f as
    often as it divides.  Once the lower degrees are gone, a monic divisor
    of degree d is irreducible, and when 2d exceeds the degree of what is
    left, that is irreducible (or 1)."""
    spec = f.spec
    inv_lead = f.coeffs[-1].inverse()
    rest = Poly(spec, [c * inv_lead for c in f.coeffs])
    out = []
    d = 1
    while 2 * d <= rest.degree:
        for tail in product(range(spec.order), repeat=d):
            g = Poly(spec, [spec.element_by_index(i) for i in tail] + [spec.one()])
            mult, (quot, rem) = 0, poly_divmod_reference(rest, g)
            while not rem:
                rest, mult = quot, mult + 1
                quot, rem = poly_divmod_reference(rest, g)
            if mult:
                out.append((g, mult))
        d += 1
    if rest.degree > 0:
        out.append((rest, 1))
    out.sort(key=lambda t: (t[0].degree, [c.sort_key() for c in t[0].coeffs]))
    return out


def one_root_reference(f: Poly):
    """One root of a monic polynomial that splits completely in its field:
    gcd(f, h^((q-1)/2) - 1) for the candidates h of degree <= 2 until one
    splits f, then the same on the smaller piece.  It takes no square root
    and no trace, so it checks both ways ``ddcrit.poly._one_root`` finds a
    root: the quadratic formula with ``gf.mth_root`` for a quadratic, and
    trace splitting for degree >= 3."""
    spec = f.spec
    if f.degree == 1:
        return -f.coeffs[0]
    exponent = (spec.order - 1) // 2
    for cand in candidate_polys(spec, 2):
        h = _powmod(cand, exponent, f)
        g = f.gcd(h - Poly.one(spec))
        if 0 < g.degree < f.degree:
            smaller = g if g.degree <= f.degree - g.degree else f // g
            return one_root_reference(smaller.monic())
    raise AssertionError("root extraction exhausted candidates")


def embedding_image_reference(src: FieldSpec, dst: FieldSpec) -> FieldElement:
    """Image of the generator of src in dst: the least root of src.modulus
    among the roots in dst that ``roots_in_field`` finds by factoring."""
    if src.p != dst.p or dst.k % src.k != 0:
        raise SpecMismatch("no embedding between these field specs")
    modulus = Poly(dst, [dst.from_int(c) for c in src.modulus])
    roots = roots_in_field(modulus)
    if not roots:
        raise NotAField(f"F_{{{dst.p}^{dst.k}}} has no root of {src.modulus}")
    return min(roots, key=FieldElement.sort_key)


def embed_reference(x: FieldElement, dst: FieldSpec) -> FieldElement:
    """x in the extension dst: its coefficient polynomial at the image of
    the generator of its field, by Horner's rule."""
    src = x.spec
    if src == dst:
        return x
    if src.k == 1 and src.p == dst.p:
        return dst.from_int(x.coeffs[0])
    return Poly.from_ints(dst, x.coeffs).evaluate(_embedding_image(src, dst))


def powers_map_reference(z: FieldElement, n: int) -> tuple:
    """The rows of x^t -> z^t for t < n: row s lists (t, coefficient s of
    z^t) where it is nonzero."""
    images = [(z**t).coeffs for t in range(n)]
    return tuple(
        tuple((t, c[s]) for t, c in enumerate(images) if c[s])
        for s in range(z.spec.k)
    )


def frobenius_map_reference(spec: FieldSpec) -> tuple:
    """The rows of c -> c^p: x^t -> (x^p)^t."""
    x = spec.element([0, 1][: spec.k])
    return powers_map_reference(x**spec.p, spec.k)


def pth_root_map_reference(spec: FieldSpec) -> tuple:
    """The rows of c -> c^(p^(k-1)): x^t -> (x^(p^(k-1)))^t."""
    x = spec.element([0, 1][: spec.k])
    return powers_map_reference(x ** spec.p ** (spec.k - 1), spec.k)


def artin_schreier_matrix_reference(spec: FieldSpec) -> tuple:
    """The k x k matrix of x -> x^p - x; column t is the image of x^t."""
    basis = [spec.element([0] * t + [1]) for t in range(spec.k)]
    return tuple(zip(*[(b**spec.p - b).coeffs for b in basis]))


def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _polymul_modp(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _polymod_modp(a: list[int], m: list[int], p: int) -> list[int]:
    # m is monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        c = a[-1]
        if c:
            shift = len(a) - 1 - dm
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - c * mi) % p
        a.pop()
    return _trim(a)


def _polypowmod(a, e, m, p):
    mul = lambda u, v: _polymod_modp(_polymul_modp(u, v, p), m, p)  # noqa: E731
    return square_and_multiply(_polymod_modp(a, m, p), e, mul) if e else [1]


def _polygcd_modp(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, _polymod_modp(a, b, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [(c * inv) % p for c in a]
    return a


def _zip_pad(a: list[int], b: list[int]):
    n = max(len(a), len(b))
    return zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))


def rabin_reference(f: list[int], p: int) -> bool:
    """Rabin test for a monic polynomial over F_p."""
    k = len(f) - 1
    if k <= 0:
        return False
    x = [0, 1]
    xq = _polypowmod(x, p**k, f, p)
    diff = _trim([(a - b) % p for a, b in _zip_pad(xq, x)])
    if diff:
        return False
    for r in prime_factors(k):
        xqr = _polypowmod(x, p ** (k // r), f, p)
        diff = _trim([(a - b) % p for a, b in _zip_pad(xqr, x)])
        if len(_polygcd_modp(diff, f, p)) != 1:
            return False
    return True


def deterministic_modulus_reference(p: int, k: int) -> tuple[int, ...]:
    """Least monic irreducible of degree k over F_p, scanning the
    coefficient vectors top degree down in ``itertools.product`` order."""
    if k == 1:
        return (0, 1)
    for top_down in product(range(p), repeat=k):
        coeffs = list(reversed(top_down)) + [1]
        if rabin_reference(coeffs, p):
            return tuple(coeffs)
    raise AssertionError("no irreducible polynomial found")


def least_irreducible_reference(p: int, k: int) -> tuple[int, ...]:
    """Least monic irreducible of degree k over F_p in the scan order of
    ``deterministic_modulus_reference``, each candidate factored."""
    spec = make_field(p, 1)
    for top_down in product(range(p), repeat=k):
        f = Poly.from_ints(spec, list(reversed(top_down)) + [1])
        if factor(f) == [(f, 1)]:
            return tuple(c.coeffs[0] for c in f.coeffs)
    raise AssertionError("no irreducible polynomial found")


def laurent_add_reference(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """a + b by summing the terms of b into the term dict of a."""
    terms = a.term_dict()
    for e, c in b.terms():
        s = terms.get(e)
        terms[e] = s + c if s is not None else c
    return LaurentPoly.from_terms(a.spec, terms)


def laurent_mul_reference(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """a * b by summing the product of every pair of terms into a term dict."""
    terms: dict = {}
    for e, c in a.terms():
        for f, d in b.terms():
            s = terms.get(e + f)
            terms[e + f] = s + c * d if s is not None else c * d
    return LaurentPoly.from_terms(a.spec, terms)


def witt_add_reference(v: WittVector, w: WittVector) -> WittVector:
    """v + w by the addition polynomials: each S_i of ``witt_sum_polys``
    evaluated term by term on the entries (X, Y) = (v, w), every power of an
    entry a chain of ``laurent_mul_reference`` products and every sum one
    ``laurent_add_reference``.  A term with a zero factor is skipped."""
    spec, entries = v.spec, v.entries + w.entries
    powers = [[e] for e in entries]  # powers[j][e - 1] is entry j to the e-th

    def power(j: int, e: int) -> LaurentPoly:
        while len(powers[j]) < e:
            powers[j].append(laurent_mul_reference(powers[j][-1], entries[j]))
        return powers[j][e - 1]

    out = []
    for terms in witt_sum_polys(spec.p, v.level):
        total = LaurentPoly.zero(spec)
        for c, xe, ye in terms:
            needed = [(j, e) for j, e in enumerate(xe + ye) if e]
            if not all(entries[j] for j, _ in needed):
                continue
            term = LaurentPoly.from_terms(spec, {0: spec.from_int(c)})
            for j, e in needed:
                term = laurent_mul_reference(term, power(j, e))
            total = laurent_add_reference(total, term)
        out.append(total)
    return WittVector(spec, tuple(out))


def cartier_reference(h: LaurentPoly) -> LaurentPoly:
    """C(h dt) term by term: a_i t^i with i = -1 mod p goes to
    a_i^(1/p) t^((i+1)/p - 1), every other term to zero."""
    p, root = h.spec.p, h.spec.p ** (h.spec.k - 1)  # c^(1/p) = c^(p^(k-1))
    return LaurentPoly.from_terms(
        h.spec, {(e + 1) // p - 1: c**root for e, c in h.terms() if (e + 1) % p == 0}
    )


def laurent_frobenius_reference(h: LaurentPoly) -> LaurentPoly:
    """a t^e goes to a^p t^(pe), term by term."""
    p = h.spec.p
    return LaurentPoly.from_terms(h.spec, {e * p: c**p for e, c in h.terms()})


def is_exact(h: LaurentPoly) -> bool:
    """True iff no exponent of h is -1 mod p, i.e. C(h dt) = 0, i.e. h dt
    is exact."""
    return not cartier(h)


def dlog_truncated(factors, trunc: int, spec=None) -> LaurentPoly:
    """The h of the logarithmic derivative h dt of prod_j (1 - x_j t^-1)^(a_j),
    expanded in powers of t^-1 through exponent -(trunc+1).

    The t^(-q-1) coefficient of h is sum_j a_j x_j^q; each a_j is an
    integer exponent, each x_j a nonzero field element.  An empty factor
    list yields zero (spec must then be passed explicitly).
    """
    if trunc < 1:
        raise ValueError("truncation order must be >= 1")
    if not factors:
        if spec is None:
            raise ValueError("spec required for an empty factor list")
        return LaurentPoly.zero(spec)
    spec = factors[0][0].spec
    if any(not x for x, _ in factors):
        raise ZeroRoot("dlog factors require nonzero roots")
    h = LaurentPoly.zero(spec)
    for x, a in factors:
        # a x^q at t^(-q-1), q = trunc down to 1
        powers = [x]
        for _ in range(trunc - 1):
            powers.append(powers[-1] * x)
        h = h + LaurentPoly(spec, -trunc - 1, [xq * a for xq in reversed(powers)])
    return h


def laurent_map_coeffs_reference(h: LaurentPoly, fn, spec) -> LaurentPoly:
    """fn applied to the nonzero terms only."""
    return LaurentPoly.from_terms(spec, {e: fn(c) for e, c in h.terms()})


def _embed_vector(v: WittVector, big) -> WittVector:
    """v with every coefficient embedded into big, term by term."""
    entries = (laurent_map_coeffs_reference(e, lambda c: embed(c, big), big) for e in v.entries)
    return WittVector(big, tuple(entries))


def _single_slot(spec, n: int, i: int, entry: LaurentPoly) -> WittVector:
    entries = [LaurentPoly.zero(spec)] * n
    entries[i] = entry
    return WittVector(spec, tuple(entries))


def standard_form_reference(
    v: WittVector, extension_cap: int = DEFAULT_EXTENSION_CAP
) -> StandardFormResult:
    """Reduce v modulo the image of wp to its standard form, one monomial at
    a time: the least p-divisible pole a t^e of the current slot becomes the
    correction a^(1/p) t^(e/p), and once no such pole is left, the constant
    is solved by Artin-Schreier (extending the field by degree p when its
    trace is nonzero).  Each correction c costs work - wp(V^i c), two Witt
    additions, and g + V^i c, a third."""
    if v.level > MAX_LEVEL:
        raise LevelTooHigh(f"truncation level {v.level} exceeds the cap {MAX_LEVEL}")
    for entry in v.entries:
        if entry and entry.high > 0:
            raise ValueError("entries must lie in k[t^-1] (no positive powers)")
    base_k = v.spec.k
    n = v.level
    work = v
    g = WittVector.zero(v.spec, n)
    for i in range(n):
        while True:
            spec = work.spec
            p = spec.p
            entry = work.entries[i]
            offending = [e for e, _ in entry.terms() if e < 0 and e % p == 0]
            if offending:
                e = min(offending)
                a = entry.term_dict()[e]
                corr = LaurentPoly(spec, e // p, [a ** p ** (spec.k - 1)])
            else:
                const = entry.term_dict().get(0)
                if const is None:
                    break
                x = _artin_schreier_solve(spec, const.coeffs)
                if x is None:
                    new_k = spec.k * p
                    if new_k > extension_cap * base_k:
                        raise ExtensionCapExceeded(
                            f"standard form needs degree {new_k // base_k} "
                            f"over the base (cap {extension_cap})"
                        )
                    big = make_field(p, new_k)
                    work, g = _embed_vector(work, big), _embed_vector(g, big)
                    continue
                corr = LaurentPoly(spec, 0, [spec.element(x)])
            corr_vec = _single_slot(spec, n, i, corr)
            work = witt_sub(work, wp(corr_vec))
            g = witt_add(g, corr_vec)
    if not is_standard(work):
        raise NotStandardForm("standard-form reduction left a non-standard term")
    return StandardFormResult(work, work.spec.k // base_k, g)


def step_radii_reference(p: int, m: int, u_prev: int, u_next: int) -> dict:
    """N2 and the four radii of the lifting step u_prev -> u_next, as
    Fractions, keyed by the names ``RadiiReport`` reads them by."""
    n1 = (p - 1) * u_prev - (0 if u_next == p * u_prev else m)
    n2 = u_next - u_prev - n1
    if n2 == 0:
        r_hub = Fraction(0)
    else:
        r_hub = Fraction(1, n2) - Fraction(n1, (p - 1) * u_prev * n2)
    return {
        "r_crit": Fraction(1, u_prev * (p - 1)),
        "r_hub": r_hub,
        "r_n": Fraction(1, u_next * (p - 1)),
        "n2": n2,
        "delta_hub": u_next * r_hub,
    }


def plan_payload_reference(p: int, m: int, n: int) -> dict:
    """The ``plan`` payload of Z/p^n x| Z/m: its quadruples, its profiles
    and one radii row per step of each profile, all built before any is
    rendered."""
    quadruples = quadruples_for_group(p, m, n)
    profiles = [(prof.breaks, prof.to_json()) for prof in profiles_for_group(p, m, n)]
    steps: dict[tuple[int, ...], tuple[dict, dict]] = {}
    radii = []
    for u, prof_json in profiles:
        for i in range(1, len(u)):
            if (step := u[i - 1 : i + 1]) not in steps:
                q, report = step_radii(p, m, *step)
                steps[step] = q.to_json(), report.to_json()
            quad, rad = steps[step]
            radii.append(
                {"profile": prof_json, "step": i + 1, "quadruple": quad, "radii": rad}
            )
    return {
        "quadruples": [q.to_json() for q in quadruples],
        "profiles": [prof_json for _, prof_json in profiles],
        "radii": radii,
    }


def binomial_det(b) -> tuple[int, int]:
    """Determinant of the integer matrix (binom(q-1, j-1)) with q running
    over b in ascending order, against the closed-form
    prod_{i<j}(b_i - b_j) / (1! 2! ... (n-1)!) for strictly descending b."""
    b = list(b)
    if any(x <= 0 for x in b) or any(x <= y for x, y in zip(b, b[1:])):
        raise ValueError("b must be strictly descending positive integers")
    n = len(b)
    rows = [[math.comb(q - 1, j) for j in range(n)] for q in sorted(b)]
    direct = _int_det(rows)
    product = 1
    for i in range(n):
        for j in range(i + 1, n):
            product *= b[i] - b[j]
    denom = 1
    for i in range(1, n):
        denom *= math.factorial(i)
    formula, rem = divmod(product, denom)
    if rem:
        raise AssertionError("closed-form product not divisible by factorials")
    return direct, formula


def _int_det(rows: list[list[int]]) -> int:
    """Bareiss fraction-free determinant over the integers."""
    m = [row[:] for row in rows]
    n = len(m)
    sign = 1
    prev = 1
    for col in range(n - 1):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        for r in range(col + 1, n):
            for c in range(col + 1, n):
                m[r][c] = (m[r][c] * m[col][col] - m[r][col] * m[col][c]) // prev
            m[r][col] = 0
        prev = m[col][col]
    return sign * m[n - 1][n - 1]


def evaluate_reference(f: Poly, x: FieldElement) -> FieldElement:
    """f(x) by Horner's rule, one FieldElement product and sum per
    coefficient."""
    acc = x.spec.zero()
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return acc


def _mu_m_reference(p: int, m: int) -> list[int]:
    zeta = root_of_unity(make_field(p, 1), m).prime_int()
    return [pow(zeta, i, p) for i in range(m)]


def mu_m_orbit_reps_reference(roots, m: int, spec: FieldSpec) -> list:
    """The least element of each orbit of the roots under mu_m, with the
    library's errors: ZeroRoot, RepeatedRoot and NotOrbitClosed."""
    if not roots:
        return []
    if any(not r for r in roots):
        raise ZeroRoot("orbit representatives require nonzero roots")
    root_set = set(roots)
    if len(root_set) != len(roots):
        raise RepeatedRoot("repeated root in orbit partition")
    mu_m = _mu_m_reference(spec.p, m)
    reps = []
    seen = set()
    for r in sorted(root_set, key=FieldElement.sort_key):
        if r in seen:
            continue
        orbit = {r * w for w in mu_m}
        if not orbit <= root_set:
            raise NotOrbitClosed("root set is not closed under mu_m")
        seen |= orbit
        reps.append(min(orbit, key=FieldElement.sort_key))
    return reps


def checked_reps_reference(q: Quadruple, big_f: Poly, known: ResidueData):
    """(K, reps) of ``known`` if they pass every check of the rep check,
    else None: in the canonical F_{p^K} with k | K, deg F in number,
    strictly ascending, each the least of its mu_m orbit, F(x_j^m) = 0 (one
    evaluation per orbit of y -> y^q), and K least."""
    p, m, k = q.p, q.m, big_f.spec.k
    degree, reps = known.splitting_degree, known.reps
    big = make_field(p, degree)
    if degree % k or len(reps) != big_f.degree or any(x.spec != big for x in reps):
        return None
    keys = [x.sort_key() for x in reps]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        return None
    mu_m = _mu_m_reference(p, m)
    if any((x * w).sort_key() < key for x, key in zip(reps, keys) for w in mu_m):
        return None
    q_order, seen = big_f.spec.order, set()
    big_f = embed_poly(big_f, big)
    for x in reps:
        y = x**m
        if y in seen:
            continue
        if evaluate_reference(big_f, y):
            return None
        while y not in seen:
            seen.add(y)
            y = y**q_order
    for r in prime_factors(degree // k):
        sub = p ** (degree // r)
        if all(x**sub == x for x in reps):
            return None
    return degree, reps


def construct_trace_reference(p: int, m: int, u_tilde: int):
    """(reps, residues) of the trace family at (p, m, u~): the M = u(p^(nu+1)
    - 1) roots of unity x = zeta^i stepped by one product each, the trace
    of x^(-u) from F_{p^(nu+1)} as nu Frobenius steps, the mu_m orbit reps
    of the roots with a nonzero trace and a_j = -Tr(x_j^-u)."""
    q = Quadruple(p, m, u_tilde, (p - 1) * u_tilde)
    big_m = q.u * (p ** (q.nu + 1) - 1)
    spec = make_field(p, lcm(ord_mod(p, big_m), q.nu + 1))
    zeta = root_of_unity(spec, big_m)
    step = zeta ** (-q.u)
    trace_of = {}
    x = y = spec.one()
    for _ in range(big_m):
        total = z = y
        for _ in range(q.nu):
            z = z.frobenius()
            total = total + z
        trace_of[x] = total
        x, y = x * zeta, y * step
    kept = [x for x, trace in trace_of.items() if trace]
    reps = mu_m_orbit_reps_reference(kept, m, spec)
    return tuple(reps), tuple((-trace_of[x]).prime_int() for x in reps)


def ord_mod(p: int, n: int) -> int:
    """Least D >= 1 with p^D = 1 mod n."""
    if n < 1:
        raise ValueError("modulus must be positive")
    if math.gcd(p, n) != 1:
        raise ValueError(f"gcd({p}, {n}) != 1")
    d, acc = 1, p % n
    while acc != 1 % n:
        acc = acc * p % n
        d += 1
    return d


def trace_to_prime(x: FieldElement, d: int) -> FieldElement:
    """Trace of x from the subfield F_{p^d} down to F_p, x + x^p + ... +
    x^(p^(d-1)); NotInSubfield unless d | k and x^(p^d) = x."""
    spec = x.spec
    if d < 1 or spec.k % d != 0:
        raise NotInSubfield(f"degree {d} does not divide {spec.k}")
    if x ** (spec.p**d) != x:
        raise NotInSubfield("element is not fixed by the subfield Frobenius")
    return sum((x ** spec.p**i for i in range(d)), spec.zero())
