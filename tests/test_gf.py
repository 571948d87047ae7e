import copy
import itertools
import math
import random
import types

import pytest
from hypothesis import given, strategies as st

from ddcrit import gf
from ddcrit.cartier import Quadruple, ddc_check
from ddcrit.errors import (
    EvenPrime,
    NotAField,
    NotInSubfield,
    NotPrime,
    OrderNotDividing,
    SpecMismatch,
)
from ddcrit.gf import (
    FieldSpec,
    _deterministic_modulus,
    _gauss_jordan,
    column_values,
    is_prime,
    kronecker_mul,
    make_field,
    mth_root,
    root_of_unity,
    solve_modp,
    square_and_multiply,
    subfield_trace,
    value_columns,
)
from ddcrit.poly import LaurentPoly, Poly, _powmod
from ddcrit.witt import WittVector, witt_add
from reference import (
    _polymul_modp,
    _trim,
    deterministic_modulus_reference,
    field_elimination_reference,
    field_mul_reference,
    field_pow_reference,
    least_generator_reference,
    least_irreducible_reference,
    ord_mod,
    rabin_reference,
    solve_modp_reference,
    trace_to_prime,
)

F9 = make_field(3, 2)


def elements_of(spec):
    return st.integers(min_value=0, max_value=spec.order - 1).map(
        spec.element_by_index
    )


def test_make_field_moduli():
    assert make_field(3, 1).modulus == (0, 1)
    assert make_field(3, 2).modulus == (1, 0, 1)
    assert make_field(5, 2).modulus == (2, 0, 1)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_deterministic_modulus_keeps_the_product_order(p, k):
    assert _deterministic_modulus(p, k) == deterministic_modulus_reference(p, k)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_every_monic_linear_polynomial_is_irreducible(p):
    assert all(gf._is_irreducible_modp([c, 1], p) for c in range(p))


def test_rabin_verdicts_match_the_reference_on_every_small_polynomial():
    """All 3,877 monic polynomials of degree 2-6 over F_3, 2-4 over F_5, 2-3
    over F_7 and F_11 and 2 over F_13.  The reference keeps defect 1, and
    114 of these verdicts are wrong by it, so a fix of the defect fails
    here as well as in the xfails below, on purpose."""
    count = 0
    for p, top in ((3, 6), (5, 4), (7, 3), (11, 3), (13, 2)):
        for k in range(2, top + 1):
            for digits in itertools.product(range(p), repeat=k):
                f = [*digits, 1]
                assert gf._is_irreducible_modp(f, p) == rabin_reference(f, p), f
                count += 1
    assert count == 3877


# ROADMAP defect 1: the Rabin test behind the scan divides by non-monic
# remainders, so these moduli are reducible or not the least irreducible
DEFECT_1 = {(3, 6), (3, 12), (5, 10), (7, 12), (11, 6)}
ORACLE_PAIRS = [
    (p, k)
    for p, top in ((3, 12), (5, 10), (7, 12), (11, 6), (13, 5))
    for k in range(1, top + 1)
]
MODULUS_ORACLE_PAIRS = [
    pytest.param(
        p, k,
        marks=[pytest.mark.xfail(
            strict=True, reason="defect 1: _is_irreducible_modp is wrong"
        )] if (p, k) in DEFECT_1 else [],
    )
    for p, k in ORACLE_PAIRS
]
# the fields whose moduli tests/golden/moduli.json pins as they are, defect 1
# included: the oracle pairs and five larger fields
PINNED_MODULUS_PAIRS = ORACLE_PAIRS + [(3, 14), (3, 18), (3, 24), (5, 12), (7, 20)]


@pytest.mark.parametrize("p, k", MODULUS_ORACLE_PAIRS)
def test_modulus_is_least_irreducible_by_factoring(p, k):
    assert make_field(p, k).modulus == least_irreducible_reference(p, k)


def test_square_and_multiply_counts_products():
    calls = []

    def mul(a, b):
        calls.append((a, b))
        return a * b

    assert square_and_multiply(3, 1, mul) == 3 and calls == []
    assert square_and_multiply(3, 13, mul) == 3**13
    # 13 = 0b1101: three squarings and two products, none with 1
    assert len(calls) == 5 and all(1 not in c for c in calls)


def test_solve_modp():
    # a unique solution, found after a row swap
    assert solve_modp([[0, 1, 2], [1, 1, 0]], 5) == [3, 2]
    # rank 1 of 2: the free variable y is 0
    assert solve_modp([[1, 2, 3], [2, 4, 1]], 5) == [3, 0]
    assert solve_modp([[0, 2, 3], [0, 4, 1]], 5) == [0, 4]
    # inconsistent
    assert solve_modp([[1, 2, 3], [2, 4, 0]], 5) is None
    # the caller's rows are left as they were
    aug = [[0, 1, 2], [1, 1, 0]]
    solve_modp(aug, 5)
    assert aug == [[0, 1, 2], [1, 1, 0]]


# one field of each stored form: F_7 residues, tabled F_9 indices and
# F_{3^8} coefficient tuples
ELIMINATION_FIELDS = [(7, 1), (3, 2), (3, 8)]


def _eliminate(matrix, n):
    """(pivots, det, rows) from ``_gauss_jordan`` on the stored values of a
    matrix of FieldElements, det and rows boxed back into elements."""
    spec = matrix[0][0].spec
    rows = [[x.v for x in row] for row in matrix]
    pivots, det = _gauss_jordan(spec._ops, rows, n)
    return pivots, spec.from_values([det])[0], [spec.from_values(r) for r in rows]


@pytest.mark.parametrize("p, k", ELIMINATION_FIELDS, ids=["F7", "F9", "F3^8"])
def test_gauss_jordan_against_reference(p, k):
    """On random square systems, on singular consistent ones (last row c
    times the first, right-hand side too) and on inconsistent ones (the
    same with 1 added to the last right-hand side), the kernel's pivots and
    determinant are those of the reference elimination, it reports
    inconsistency exactly when the reference finds a pivot in the
    right-hand-side column, and its solution, free variables 0, solves the
    system; over F_7, ``solve_modp`` equals ``solve_modp_reference``."""
    spec = make_field(p, k)
    zero, one = spec.zero(), spec.one()
    rng = random.Random(100 * p + k)
    counts = {"regular": 0, "singular": 0, "inconsistent": 0}
    for trial in range(60):
        n = rng.randint(2, 5)
        a = [[spec.element_by_index(rng.randrange(spec.order)) for _ in range(n)]
             for _ in range(n)]
        b = [spec.element_by_index(rng.randrange(spec.order)) for _ in range(n)]
        kind = trial % 3
        if kind:
            c = spec.element_by_index(rng.randrange(spec.order))
            a[-1] = [c * x for x in a[0]]
            b[-1] = c * b[0] + (one if kind == 2 else zero)
        ref_pivots, ref_det = field_elimination_reference(a)
        pivots, det, _ = _eliminate(a, n)
        assert (pivots, det) == (ref_pivots, ref_det)
        assert bool(det) == (len(pivots) == n)
        aug = [row + [y] for row, y in zip(a, b)]
        pivots, _, rows = _eliminate(aug, n)
        assert pivots == ref_pivots
        inconsistent = n in field_elimination_reference(aug)[0]
        assert inconsistent == any(row[n] for row in rows[len(pivots):])
        if kind == 2:
            assert inconsistent
        if k == 1:
            ints = [[x.prime_int() for x in row] for row in aug]
            assert solve_modp(ints, p) == solve_modp_reference(ints, p)
        if inconsistent:
            counts["inconsistent"] += 1
            continue
        counts["singular" if len(pivots) < n else "regular"] += 1
        x = [zero] * n
        for col, row in zip(pivots, rows):
            x[col] = row[n]
        for row, y in zip(a, b):
            assert sum((u * v for u, v in zip(row, x)), zero) == y
    assert all(counts.values()), counts


@pytest.mark.parametrize("p, k", ELIMINATION_FIELDS, ids=["F7", "F9", "F3^8"])
def test_gauss_jordan_determinant_sign(p, k):
    """The determinant counts row swaps: the swap of [[0, 1], [1, 0]] gives
    -1; a random invertible matrix with a zero corner, so that the kernel
    swaps, has the reference determinant, and swapping its first two rows
    negates it."""
    spec = make_field(p, k)
    zero, one = spec.zero(), spec.one()
    assert _eliminate([[zero, one], [one, zero]], 2)[1] == -one
    rng = random.Random(7 * p + k)
    for n in (2, 3, 4, 5):
        while True:
            a = [[spec.element_by_index(rng.randrange(spec.order))
                  for _ in range(n)] for _ in range(n)]
            a[0][0] = zero
            ref_det = field_elimination_reference(a)[1]
            if ref_det:
                break
        det = _eliminate(a, n)[1]
        assert det == ref_det
        swapped = [a[1], a[0], *a[2:]]
        assert _eliminate(swapped, n)[1] == -det == field_elimination_reference(swapped)[1]


def test_is_prime_against_trial_division():
    for n in range(-2, 20000):
        divisors = range(2, math.isqrt(n) + 1) if n > 1 else ()
        assert is_prime(n) == (n > 1 and all(n % d for d in divisors)), n


def test_is_prime_strong_pseudoprimes_and_large_primes():
    # 561 is a Carmichael number; the others are strong pseudoprimes to
    # the prime bases 2; 2..7; 2..31; 2..37, so only later bases expose them
    for n in (561, 2047, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n), n
    for n in (1000000000000037, 2**61 - 1):
        assert is_prime(n), n


def test_is_prime_above_the_miller_rabin_bound():
    # a factor among the bases still decides n; any other n raises, since
    # no test here ends in bounded time (trial division on the prime
    # 2^89 - 1 would take about 10^13 divisions)
    assert not is_prime(2**89 + 1)
    assert not is_prime(41 * gf._MR_BOUND)
    for n in (2**89 - 1, gf._MR_BOUND):
        with pytest.raises(ValueError, match="not decided"):
            is_prime(n)


def test_make_field_large_prime_degree_two():
    # x^2 + 1 is irreducible because 2^31 - 1 = 3 mod 4; the scan must not
    # build p^2 vectors before trying the second one
    assert make_field(2**31 - 1, 2).modulus == (1, 0, 1)


def test_make_field_is_pure():
    assert make_field(7, 3) is make_field(7, 3)


def test_make_field_rejects_bad_input():
    with pytest.raises(NotPrime):
        make_field(9, 1)
    with pytest.raises(EvenPrime):
        make_field(2, 1)
    with pytest.raises(ValueError) as exc:
        make_field(3, 0)
    assert str(exc.value) == "extension degree must be >= 1"


def test_element_rejects_more_coefficients_than_the_degree():
    assert F9.element([1, 2]) == F9.element_by_index(5)
    with pytest.raises(ValueError) as exc:
        F9.element([1, 2, 0])
    assert str(exc.value) == "coefficient vector longer than extension degree"


def test_operators_across_fields_raise_but_an_equal_copy_computes():
    """Elements of two different fields do not mix; a spec equal to the
    canonical one but not the same object (``copy.copy`` leaves out the
    cached properties) is the same field."""
    x, y = F9.element([1, 2]), make_field(3, 3).element([1, 2])
    for op in ("__add__", "__sub__", "__mul__", "__truediv__"):
        with pytest.raises(SpecMismatch) as exc:
            getattr(x, op)(y)
        assert str(exc.value) == "elements belong to different field specs"
    twin = copy.copy(F9)
    assert twin == F9 and twin is not F9
    z = twin.element([2, 1])
    assert x + z == F9.element([0, 0]) and z - x == F9.element([1, 2])
    assert x * z == F9.element([1, 2]) * F9.element([2, 1])
    assert (x / z) * z == x


def test_element_ordering_constant_term_first():
    # index order sorts by constant coefficient first
    elems = list(F9.elements())
    assert [e.coeffs for e in elems[:4]] == [(0, 0), (0, 1), (0, 2), (1, 0)]
    assert elems == sorted(elems, key=lambda e: e.sort_key())
    assert [F9.index_of(e) for e in elems] == list(range(9))


@given(st.sampled_from([make_field(3, 2), make_field(5, 1), make_field(3, 3)]))
def test_field_axioms_spotcheck(spec):
    one = spec.one()
    for i in range(1, spec.order):
        x = spec.element_by_index(i)
        assert x * x.inverse() == one
        assert x ** (spec.order - 1) == one


@given(elements_of(F9), elements_of(F9))
def test_frobenius_additivity(x, y):
    assert (x + y) ** 3 == x**3 + y**3


def pth_root(x):
    """The bundle's p-th root of x, as an element."""
    return x.spec.from_values([x.spec._ops.pth_root(x.v)])[0]


def trace(x, d):
    """``subfield_trace`` of x from F_{p^d}, as an element."""
    return x.spec.from_values([subfield_trace(x.spec._ops, x.v, d)])[0]


@given(elements_of(F9))
def test_pth_root_roundtrip(x):
    assert pth_root(x) ** 3 == x
    assert pth_root(x**3) == x


def test_pth_root_prime_field_identity():
    f5 = make_field(5, 1)
    for i in range(5):
        assert pth_root(f5.from_int(i)) == f5.from_int(i)


def test_trace_examples():
    """``subfield_trace`` on stored values and the checked oracle of
    tests/reference.py agree on hand-worked traces."""
    g = F9.element([0, 1])
    # an honest F_9 element: trace = x + x^3
    for x, t in [(F9.zero(), F9.zero()), (F9.one(), F9.from_int(2)), (g, g + g**3)]:
        assert trace(x, 2) == trace_to_prime(x, 2) == t


@given(elements_of(F9))
def test_trace_lands_in_prime_field(x):
    t = trace(x, 2)
    assert t**3 == t == trace_to_prime(x, 2)


def test_trace_rejects_wrong_subfield():
    """The oracle checks the subfield that ``subfield_trace`` trusts."""
    g = F9.element([0, 1])
    with pytest.raises(NotInSubfield):
        trace_to_prime(g, 1)  # g is not in F_3
    with pytest.raises(NotInSubfield):
        trace_to_prime(g, 3)  # 3 does not divide k=2


def test_root_of_unity():
    f3 = make_field(3, 1)
    assert root_of_unity(f3, 2) == f3.from_int(2)
    assert root_of_unity(F9, 1) == F9.one()
    z8 = root_of_unity(F9, 8)
    assert z8**8 == F9.one() and z8**4 != F9.one()
    with pytest.raises(OrderNotDividing):
        root_of_unity(F9, 7)


def test_ord_mod():
    """The order that tests/reference.py takes for the trace family's field."""
    assert ord_mod(7, 1) == 1
    assert ord_mod(5, 24) == 2
    assert ord_mod(3, 10) == 4
    with pytest.raises(ValueError) as exc:
        ord_mod(3, 9)
    assert str(exc.value) == "gcd(3, 9) != 1"
    for n in (0, -4):
        with pytest.raises(ValueError) as exc:
            ord_mod(3, n)
        assert str(exc.value) == "modulus must be positive"


# every field with q <= 125 that the pair test covers in full
SMALL_FIELDS = [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (3, 2), (3, 3), (3, 4),
                (5, 2), (5, 3), (7, 2), (11, 2)]
# the tabled fields the benchmark workloads use, the largest tabled and the
# smallest untabled order for p = 3 and over all p, F_{3^9} and a large prime
SAMPLED_FIELDS = [(3, 5), (3, 6), (5, 4), (5, 5), (7, 3), (7, 4), (3, 7), (3, 8),
                  (61, 2), (67, 2), (3, 9), (10007, 1)]


def _check_arithmetic(spec, pairs):
    """Sums, differences, negations, products, inverses, powers and roots of
    unity of spec against the reference arithmetic on coefficient vectors,
    and the agreement of ``==`` and ``hash`` over every way to build an
    element."""
    p, q, m = spec.p, spec.order, spec.modulus
    zero = spec.zero()
    elements = {x for pair in pairs for x in pair}
    sums = list(pairs) + [(a, c) for a in elements for c in (zero, a, -a)]
    sums += [(zero, a) for a in elements]
    for a, b in sums:
        ca, cb = a.coeffs, b.coeffs
        assert (a + b).coeffs == tuple((x + y) % p for x, y in zip(ca, cb))
        assert (a - b).coeffs == tuple((x - y) % p for x, y in zip(ca, cb))
    for a in elements:
        assert (-a).coeffs == tuple(-x % p for x in a.coeffs)
    _check_one_element_many_ways(spec, elements)
    for a, b in pairs:
        assert (a * b).coeffs == field_mul_reference(a.coeffs, b.coeffs, p, m)
    for a in {x for pair in pairs for x in pair if x}:
        assert a.inverse().coeffs == field_pow_reference(a.coeffs, q - 2, p, m)
        for e in (-q, -1, 0, 1, p, q - 1, q, 3 * q + 2):
            assert (a**e).coeffs == field_pow_reference(a.coeffs, e % (q - 1), p, m)
    g = least_generator_reference(p, m)
    for order in range(1, q):
        if (q - 1) % order == 0:
            expected = field_pow_reference(g, (q - 1) // order, p, m)
            assert root_of_unity(spec, order).coeffs == expected


def _check_one_element_many_ways(spec, elements):
    """Each element equals, and hashes as, the same element built by
    element, element_by_index (also past q), from_int, a product,
    from_values of the kronecker_mul product of stored values and
    _powmod."""
    q, one = spec.order, spec.one()
    # (a + x)^p = a^p mod x^2, so the power reaches a^p through the kernel
    mod = Poly.x(spec) ** 2
    for a in elements:
        i = spec.index_of(a)
        ways = [
            spec.element(list(a.coeffs)),
            spec.element_by_index(i),
            spec.element_by_index(i + q),
            spec.element_by_index(i - 3 * q),
            a * one,
            one * a,
            spec.from_values(kronecker_mul([a.v], [one.v], spec))[0],
            _powmod(Poly(spec, [a, one]), 1, mod).coeffs[0],
        ]
        if a.in_prime_field():
            ways.append(spec.from_int(a.prime_int() + 2 * spec.p))
        for x in ways:
            assert x == a and hash(x) == hash(a) and x.sort_key() == a.sort_key()
        power = (*_powmod(Poly(spec, [a, one]), spec.p, mod).coeffs, spec.zero())[0]
        assert power == a**spec.p and hash(power) == hash(a**spec.p)


@pytest.mark.parametrize("p, k", SMALL_FIELDS)
def test_sort_key_order_is_the_coefficient_tuple_order(p, k):
    spec = make_field(p, k)
    elements = list(spec.elements())
    tuples = list(itertools.product(range(p), repeat=k))
    assert [e.coeffs for e in elements] == tuples
    assert sorted(reversed(elements), key=lambda e: e.sort_key()) == elements
    assert [spec.index_of(e) for e in elements] == list(range(spec.order))


@pytest.mark.parametrize("p, k", SMALL_FIELDS)
def test_arithmetic_of_every_pair_matches_the_reference(p, k):
    spec = make_field(p, k)
    elements = list(spec.elements())
    _check_arithmetic(spec, [(a, b) for a in elements for b in elements])


@pytest.mark.parametrize("p, k", SAMPLED_FIELDS)
def test_sampled_arithmetic_matches_the_reference(p, k):
    spec = make_field(p, k)
    rng = random.Random(f"arithmetic:{p}:{k}")
    pairs = [(spec.element_by_index(rng.randrange(spec.order)),
              spec.element_by_index(rng.randrange(spec.order))) for _ in range(100)]
    _check_arithmetic(spec, pairs)


def test_sampled_fields_straddle_the_table_bound():
    orders = {(p, k): make_field(p, k).order for p, k in SAMPLED_FIELDS}
    assert orders[3, 7] <= gf._LOG_TABLE_BOUND < orders[3, 8]
    assert max(q for (p, k), q in orders.items() if q <= gf._LOG_TABLE_BOUND) == 61**2
    assert min(q for (p, k), q in orders.items() if k > 1 and q > gf._LOG_TABLE_BOUND) == 67**2


# residues mod p, then indices in tabled fields up to the largest for p = 3
# and p = 7, then elements above the table bound, the last the splitting
# field of the (13,2,49) trace certificate
STORED_FIELDS = [(3, 1), (7, 1), (10007, 1), (3, 2), (3, 3), (7, 2), (3, 7), (7, 4), (3, 8),
                 (13, 14)]


@pytest.mark.parametrize("p, k", STORED_FIELDS)
def test_stored_arithmetic_matches_the_element_operators(p, k):
    """Every operation of ``FieldSpec._ops``, the one arithmetic the
    FieldElement operators run, equals tests/reference.py on coefficient
    tuples: products, quotients, powers (of zero too, at e >= 0),
    Frobenius and p-th roots by ``field_mul_reference`` and
    ``field_pow_reference`` (inverses by Fermat, x^(q-2)), sums, differences and negations coefficient-wise, on
    seeded random values and pairs with zero among both operands; ``dot``
    against summed products, and ``submul`` at an offset, with zero
    entries and a difference that cancels, against ``field_mul_reference``."""
    spec = make_field(p, k)
    q, modulus = spec.order, spec.modulus
    ops = spec._ops
    rng = random.Random(f"stored:{p}:{k}")

    def mul(x, y):
        return field_mul_reference(x, y, p, modulus)

    def power(x, e):
        return field_pow_reference(x, e, p, modulus)

    def decoded(v):
        return spec.from_values([v])[0].coeffs

    digits = [0, 1, q - 1] + [rng.randrange(q) for _ in range(40)]
    values = [spec._value(d) for d in digits]
    # the coefficients of element d are the base-p digits of d, the
    # constant term most significant
    coeffs = [tuple(d // p ** (k - 1 - t) % p for t in range(k)) for d in digits]
    inverses = [power(x, q - 2) for x in coeffs]
    assert decoded(ops.zero) == (0,) * k and decoded(ops.one) == power(coeffs[0], 0)
    for d, v, x, inv in zip(digits, values, coeffs, inverses):
        assert spec._index(v) == d and decoded(v) == x
        assert spec.from_values([v]) == [spec.element_by_index(d)]
        assert decoded(ops.neg(v)) == tuple(-a % p for a in x)
        assert decoded(ops.frobenius(v)) == power(x, p)
        assert decoded(ops.pth_root(v)) == power(x, p ** (k - 1))
        for e in (0, 1, 2, p, q - 1, q, 3 * q + 2):
            assert decoded(ops.pow(v, e)) == power(x, e)
            if d:
                assert decoded(ops.pow(v, -e)) == power(inv, e)
    pairs = [(0, 0), (0, 2), (2, 0)] + [
        (rng.randrange(len(digits)), rng.randrange(len(digits))) for _ in range(120)
    ]
    for i, j in pairs:
        v, w, x, y = values[i], values[j], coeffs[i], coeffs[j]
        assert decoded(ops.mul(v, w)) == mul(x, y)
        assert decoded(ops.add(v, w)) == tuple((a + b) % p for a, b in zip(x, y))
        assert decoded(ops.sub(v, w)) == tuple((a - b) % p for a, b in zip(x, y))
        if digits[j]:
            assert decoded(ops.div(v, w)) == mul(x, inverses[j])
    for n in (0, 1, 2, 7, len(digits)):
        i, j = rng.sample(range(len(digits)), 2)
        xs, ys = (values * 2)[i : i + n], (values * 2)[j : j + n]
        want = (0,) * k
        for x, y in zip((coeffs * 2)[i : i + n], (coeffs * 2)[j : j + n]):
            want = tuple((a + b) % p for a, b in zip(want, mul(x, y)))
        assert decoded(ops.dot(xs, ys)) == want
    nonzero = [v for d, v in zip(digits, values) if d]
    for s, n in ((0, 1), (2, 4), (5, 9), (1, 30)):
        c = rng.choice(nonzero)
        xs = [rng.choice(values) for _ in range(s + n + 2)]
        ys = [rng.choice(values) for _ in range(n)]
        xs[s], ys[-1] = ops.zero, ops.zero
        if n > 1:
            xs[s + 1] = ops.mul(c, ys[1])
        want = [decoded(v) for v in xs]
        for i, y in enumerate(ys, s):
            product = mul(decoded(c), decoded(y))
            want[i] = tuple((a - b) % p for a, b in zip(want[i], product))
        ops.submul(xs, s, c, ys)
        assert [decoded(v) for v in xs] == want


@pytest.mark.parametrize("p, k", [(7, 1), (3, 2), (3, 8)])
def test_bundle_pow_takes_any_base(p, k):
    """The bundle's ``pow`` takes a zero base, in a residue field, an index
    field and a tuple field: 0^0 = one and 0^e = zero for e >= 1.  On random
    bases, zero included, and exponents it equals ``FieldElement.__pow__``
    and ``field_pow_reference``; zero to a negative power still raises
    ZeroDivisionError."""
    spec = make_field(p, k)
    ops = spec._ops
    assert ops.pow(ops.zero, 0) == ops.one
    for e in (1, 2, p, spec.order - 1, spec.order, 10**6 + 3):
        assert ops.pow(ops.zero, e) == ops.zero
    rng = random.Random(f"pow:{p}:{k}")
    for _ in range(40):
        x = spec.element_by_index(rng.choice([0, rng.randrange(spec.order)]))
        e = rng.randrange(3 * spec.order)
        power = spec.from_values([ops.pow(x.v, e)])[0]
        assert power == x**e
        assert power.coeffs == field_pow_reference(x.coeffs, e, p, spec.modulus)
        if x:
            assert spec.from_values([ops.pow(x.v, -e)])[0] == x**-e == (x**e).inverse()
    for e in (-1, -2, -spec.order):
        with pytest.raises(ZeroDivisionError):
            spec.zero() ** e


@pytest.mark.parametrize("p, k", STORED_FIELDS)
def test_the_index_codec_is_base_p_digits(p, k):
    """``FieldSpec._value`` and ``_index``, the one index <-> value codec,
    are inverse on [0, q); element i has the base-p digits of i as its
    coefficients, the constant term most significant; ``in_prime_field``
    and ``prime_int`` answer on elements of F_p and on the others."""
    spec = make_field(p, k)
    q, top = spec.order, p ** (k - 1)
    rng = random.Random(f"codec:{p}:{k}")
    prime = [0, top, (p - 1) * top, rng.randrange(p) * top]
    for i in prime + [1, q - 1] + [rng.randrange(q) for _ in range(40)]:
        assert spec._index(spec._value(i)) == i
        x = spec.element_by_index(i)
        assert x.coeffs == tuple(i // p ** (k - 1 - t) % p for t in range(k))
        if i % top == 0:
            assert x.in_prime_field() and x.prime_int() == i // top
            assert spec.from_int(i // top) == x
        else:
            assert not x.in_prime_field()
            with pytest.raises(NotInSubfield):
                x.prime_int()


def test_elements_is_lazy_above_the_table_bound():
    """Listing F_{13^14}'s elements would not end: ``elements()`` is a
    generator, so ``_least_generator``'s scan from zero builds only the
    elements it tests."""
    spec = make_field(13, 14)
    elements = spec.elements()
    assert isinstance(elements, types.GeneratorType)
    assert next(elements) == spec.zero()


@pytest.mark.parametrize("p, k", [(5, 1), (3, 2), (5, 5), (3, 8)])
def test_zero_powers_and_inverse(p, k):
    spec = make_field(p, k)
    zero, one, q = spec.zero(), spec.one(), spec.order
    x = spec.element_by_index(q - 1)
    assert zero * x == zero and x * zero == zero
    assert zero**0 == one
    for e in (1, p, q - 1, q, 3 * q + 2):
        assert zero**e == zero
    for e in (-1, -q):
        with pytest.raises(ZeroDivisionError):
            zero**e
    with pytest.raises(ZeroDivisionError):
        zero.inverse()
    with pytest.raises(ZeroDivisionError) as exc:
        x / zero
    assert str(exc.value) == "inverse of zero field element"


@pytest.mark.parametrize("p, k", [(3, 8), (5, 6), (7, 6)])
def test_inverse_above_the_table_bound_matches_the_reference(p, k):
    """Extended Euclid on quotients from gf._divmod, on F_p's bundle,
    against Fermat's x^(q-2) on coefficient vectors."""
    spec = make_field(p, k)
    q, one = spec.order, spec.one()
    assert q > gf._LOG_TABLE_BOUND
    rng = random.Random(f"inverse:{p}:{k}")
    samples = [one, spec.from_int(p - 1), spec.element([0, 1]),
               spec.element([p - 1] * k)]
    samples += [spec.element_by_index(rng.randrange(1, q)) for _ in range(40)]
    for x in samples:
        inv = x.inverse()
        assert x * inv == one
        assert inv.coeffs == field_pow_reference(x.coeffs, q - 2, p, spec.modulus)


# digits of 1, 2, 4 and 8 bytes, and wider ones packed byte by byte
KERNEL_PRIMES = [3, 5, 7, 13, 10007, 2**31 - 1, 2**61 - 1]


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_mul_modp_matches_the_schoolbook_product(p):
    """gf._mul_modp returns all len(a) + len(b) - 1 digits of the product,
    and trimmed they are the schoolbook product of tests/reference.py: on
    random lists with and without trailing zeros, single terms, all-(p-1)
    lists (the largest digit sums) and squares of one list object."""
    rng = random.Random(f"mul_modp:{p}")

    def digits(n):
        return [rng.randrange(p) for _ in range(n)]

    cases = [([], [1]), ([2], []), ([0], [0, 0]), ([p - 1] * 40, [p - 1] * 40)]
    for _ in range(40):
        a = digits(rng.randint(1, 40)) + [0] * rng.randint(0, 3)
        b = digits(rng.randint(1, 40)) + [0] * rng.randint(0, 3)
        cases += [(a, b), (a, a), ([rng.randrange(1, p)], b), (a, [0] * 3 + [1])]
    for a, b in cases:
        product = gf._mul_modp(a, b, p)
        assert len(product) == (len(a) + len(b) - 1 if a and b else 0)
        assert _trim(list(product)) == _polymul_modp(a, b, p)


@pytest.mark.parametrize("spec", [make_field(3, 30), make_field(5, 20),
                                  FieldSpec(2**31 - 1, 2, (1, 0, 1))],
                         ids=["F3^30", "F5^20", "F(2^31-1)^2"])
def test_products_and_inverses_above_the_table_bound_at_large_k_and_wide_p(spec):
    """Products against the reference and x * x^-1 = 1 where every product
    and inverse runs on long coefficient lists or wide digits."""
    p, k, m = spec.p, spec.k, spec.modulus
    assert spec.order > gf._LOG_TABLE_BOUND
    rng = random.Random(f"large:{p}:{k}")

    def sample():
        return spec.element([rng.randrange(p) for _ in range(k)])

    xs = [spec.one(), spec.from_int(p - 1), spec.element([0, 1]),
          spec.element([p - 1] * k)] + [sample() for _ in range(30)]
    for x in xs:
        y = sample()
        assert (x * y).coeffs == field_mul_reference(x.coeffs, y.coeffs, p, m)
        assert (x * x).coeffs == field_mul_reference(x.coeffs, x.coeffs, p, m)
        assert x * x.inverse() == spec.one()


@pytest.mark.parametrize("p, k", [(5, 6), (3, 8), (3, 27)])
def test_prime_field_operands_above_the_table_bound_skip_the_kernel(p, k, monkeypatch):
    """Zero and prime-field operands, on either side, scale the other
    operand without the product kernel; every product matches the
    reference, and two operands outside F_p still reach the kernel."""
    spec = make_field(p, k)
    m = spec.modulus
    assert spec.order > gf._LOG_TABLE_BOUND
    rng = random.Random(f"scalar:{p}:{k}")
    scalars = [spec.zero(), spec.one(), spec.from_int(p - 1), spec.from_int(2)]
    others = [spec.element([rng.randrange(p) for _ in range(k)]) for _ in range(5)]
    others.append(spec.element([0, 1]))
    kernel = []
    monkeypatch.setattr(gf, "_ring_mul", lambda spec, a, b: kernel.append(1) or a)
    for c in scalars:
        for x in scalars + others:
            for a, b in ((c, x), (x, c)):
                assert (a * b).coeffs == field_mul_reference(a.coeffs, b.coeffs, p, m)
    assert kernel == []
    others[-1] * others[-1]
    assert kernel == [1]


@pytest.mark.parametrize("p, k, ms", [(3, 2, [2]), (5, 2, [2, 4]), (7, 2, [2, 3, 6]),
                                      (3, 4, [2]), (11, 2, [2, 5]), (5, 5, [2, 4]),
                                      (7, 1, [2, 3, 6]), (13, 1, [2, 3, 4, 6, 12])])
def test_mth_root_by_log_inverts_every_mth_power(p, k, ms):
    """In a tabled field, F_p included, ``mth_root`` is a log lookup: every
    nonzero m-th power y gets an x with x^m = y, and every other nonzero
    element raises NotAField.  Over F_13, m = 12 is a product of a prime
    power and another prime, and m = 4 a prime power above l = 2."""
    spec = make_field(p, k)
    assert spec._tables is not None
    nonzero = [spec.element_by_index(i) for i in range(1, spec.order)]
    for m in ms:
        powers = {z**m for z in nonzero}
        assert len(powers) == (spec.order - 1) // m
        for y in nonzero:
            if y in powers:
                assert mth_root(y, m) ** m == y
            else:
                with pytest.raises(NotAField):
                    mth_root(y, m)
        assert mth_root(spec.zero(), m) == spec.zero()


def test_f_p_builds_its_log_tables_on_its_first_root():
    """F_7 computes mod 7 without log tables: elements, products, inverses,
    powers and a ``ddc_check`` leave ``_tables`` unread.  Its first m-th
    root builds them, and each later root reads the same tables."""
    spec = FieldSpec(7, 1, (0, 1))  # no cached tables
    x, y = spec.from_int(3), spec.from_int(5)
    assert (x * y, x / y, x.inverse(), x**5, -x, x - y) == tuple(
        map(spec.from_int, (1, 2, 5, 5, 4, 5)))
    f = Poly.from_ints(spec, [3, 0, 0, 3])
    assert ddc_check(Quadruple(7, 3, 2, 3), f)
    assert "_tables" not in spec.__dict__
    assert mth_root(spec.from_int(2), 2) ** 2 == spec.from_int(2)
    tables = spec.__dict__["_tables"]
    assert isinstance(tables, gf._LogTables) and tables.n == 6
    assert mth_root(spec.from_int(6), 3) ** 3 == spec.from_int(6)
    assert spec._tables is tables


def test_mth_root_of_an_untabled_field_builds_no_log_tables(monkeypatch):
    """Above the table bound ``mth_root`` has no path, for every k: over
    F_{5^6} and F_10007 it raises ValueError, for zero too, and builds no
    tables, as ``poly`` splits t^m - y there instead."""
    monkeypatch.setattr(gf, "_least_generator", lambda spec: pytest.fail("generator"))
    for p, k in ((5, 6), (10007, 1)):
        untabled = FieldSpec(p, k, make_field(p, k).modulus)  # no cached tables
        for y in (untabled.one(), untabled.zero()):
            with pytest.raises(ValueError, match="above the table bound"):
                mth_root(y, 2)
        assert "_tables" not in untabled.__dict__ and untabled._tables is None


@pytest.mark.parametrize("p", [q for q in range(3, 60) if gf.is_prime(q)])
def test_mth_root_over_f_p_against_brute_force(p):
    """Every m dividing p - 1 and every y in F_p: ``mth_root`` returns an
    x with x^m = y exactly when some x in F_p has it, and raises NotAField
    otherwise."""
    spec = make_field(p, 1)
    for m in (m for m in range(1, p) if (p - 1) % m == 0):
        powers = {pow(x, m, p) for x in range(p)}
        for y in range(p):
            if y in powers:
                assert mth_root(spec.from_int(y), m) ** m == spec.from_int(y)
            else:
                with pytest.raises(NotAField):
                    mth_root(spec.from_int(y), m)


def test_mth_root_needs_m_dividing_p_minus_1():
    with pytest.raises(OrderNotDividing):
        mth_root(make_field(7, 2).one(), 4)
    with pytest.raises(OrderNotDividing):
        mth_root(make_field(5, 1).one(), 0)


@pytest.mark.parametrize("spec", [FieldSpec(3, 2, (2, 0, 1)), FieldSpec(5, 2, (4, 0, 1))])
def test_mth_root_over_a_reducible_modulus_raises_not_a_field(spec):
    """Over a tabled ring that is no field each nonzero y raises NotAField,
    as its log tables are built, never a wrong root, a ZeroDivisionError or
    a ValueError."""
    p, k = spec.p, spec.k
    rng = random.Random(f"reducible:{p}:{k}")
    samples = [spec.element([rng.randrange(p) for _ in range(k)]) for _ in range(20)]
    samples += [spec.element([1, 1]), spec.element([2, 2]), spec.element([0, 1])]
    samples = [y for y in samples if y]
    ms = [m for m in (2, 4) if (p - 1) % m == 0]
    for y in samples:
        for m in ms:
            with pytest.raises(NotAField):
                mth_root(y, m)


@pytest.mark.parametrize("spec", [FieldSpec(3, 2, (2, 0, 1)), FieldSpec(5, 2, (4, 0, 1))])
def test_a_reducible_modulus_raises_not_a_field(spec):
    # x^2 - 1 = (x - 1)(x + 1): the ring has zero divisors, such as 2 + 2x
    # over F_3, whose square is itself, and no element of order q - 1
    with pytest.raises(NotAField):
        root_of_unity(spec, 2)
    with pytest.raises(NotAField):
        spec.element([1, 1]) * spec.element([0, 1])


def test_a_reducible_modulus_above_the_table_bound_fails_fast():
    # x^12 + x^2 + 1 has the roots 1 and -1 over F_3: the generator scan
    # meets a zero divisor early instead of testing all 3^12 elements
    spec = FieldSpec(3, 12, (1, 0, 1) + (0,) * 9 + (1,))
    with pytest.raises(NotAField):
        root_of_unity(spec, 2)


def test_decoding_an_element_builds_no_log_tables(monkeypatch):
    """Printing, serialising or packing an element of a tabled field reads
    the digit tables only, so no generator search starts; nor does a
    ``Poly`` or ``LaurentPoly`` product or a ``witt_add``, which pack
    stored values and build elements from values."""
    calls = []
    monkeypatch.setattr(gf, "_least_generator", calls.append)
    spec = FieldSpec(7, 4, make_field(7, 4).modulus)  # no cached tables
    x = spec.element([1, 2])
    assert x.to_json() == [1, 2, 0, 0]
    assert repr(x) == "GF(7^4)[1, 2, 0, 0]"
    cols = value_columns([x.v, spec.one().v], spec)
    assert cols == [(1, 1), (2, 0), (0, 0), (0, 0)]
    assert column_values(cols, spec) == [x.v, spec.one().v]
    assert x.in_prime_field() is False and spec.from_int(3).prime_int() == 3
    # with y = 3 + 5a: xy = 3 + 4a + 3a^2 and x^2 + y^2 = 3 + 6a + a^2 over
    # F_7, below the degree of the modulus, so no element operator is needed
    y, xy = spec.element([3, 5]), spec.element([3, 4, 3])
    assert (Poly(spec, [x, y]) * Poly(spec, [y, x])).coeffs == (
        xy, spec.element([3, 6, 1]), xy)
    product = LaurentPoly(spec, -2, [x]) * LaurentPoly(spec, 1, [y, x])
    assert product == LaurentPoly(spec, -1, [xy, spec.element([1, 4, 4])])
    v = WittVector(spec, (LaurentPoly(spec, -1, [x]), LaurentPoly(spec, 0, [y])))
    w = WittVector(spec, (LaurentPoly(spec, -1, [y]), LaurentPoly.zero(spec)))
    assert witt_add(v, w).entries[0] == LaurentPoly(spec, -1, [spec.element([4])])
    assert calls == []


@pytest.mark.parametrize("spec, g", [
    (F9, (0, 1)),  # x has order 4 in F_9 = F_3[x]/(x^2 + 1)
    (FieldSpec(3, 2, (2, 0, 1)), (2, 2)),  # a zero divisor: its powers never reach 1
])
def test_log_tables_reject_powers_that_do_not_return_to_1_at_step_q_minus_1(
    monkeypatch, spec, g
):
    monkeypatch.setattr(gf, "_least_generator", lambda spec: spec.element(g))
    with pytest.raises(NotAField):
        gf._LogTables(spec)
