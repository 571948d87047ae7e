import itertools
import json
import math
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from ddcrit import gf, search
from ddcrit.cartier import Quadruple, cartier, ddc_check
from ddcrit.errors import (
    NotAField,
    NotOrbitClosed,
    NotSquarefree,
    RepeatedRoot,
    SpecMismatch,
    ZeroRoot,
)
from ddcrit.gf import (
    FieldElement,
    FieldSpec,
    kronecker_mul,
    make_field,
    mth_root,
)
from ddcrit.poly import (
    NEG_INF,
    LaurentPoly,
    Poly,
    _conjugates,
    _embedding_image,
    _one_root,
    _powmod,
    embed,
    embed_poly,
    equal_degree_factorization,
    factor,
    mu_m_orbit_reps,
    orbit_reps_in_splitting_field,
    roots_in_field,
    roots_in_splitting_field,
)
from ddcrit.witt import WittVector, frobenius, standard_form
from reference import (
    RationalFunction,
    cartier_reference,
    elementary_symmetric_reference,
    embedding_image_reference,
    equal_degree_factorization_reference,
    factor_reference,
    laurent_add_reference,
    laurent_frobenius_reference,
    laurent_map_coeffs_reference,
    laurent_mul_reference,
    one_root_reference,
    poly_divmod_reference,
    poly_gcd_reference,
    powmod_reference,
    schoolbook_mul,
)

F3 = make_field(3, 1)
F5 = make_field(5, 1)
F7 = make_field(7, 1)


def poly_from_ints(spec, ints):
    return Poly.from_ints(spec, ints)


F8_POLY = poly_from_ints(F3, [1, 0, 0, 0, 0, 0, 1, 0, 1])
F10_POLY = poly_from_ints(F3, [1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 2])


def random_poly(rng, spec, max_degree):
    return Poly(
        spec,
        [
            spec.element_by_index(rng.randrange(spec.order))
            for _ in range(rng.randint(0, max_degree) + 1)
        ],
    )


def test_zero_degree_sentinel():
    assert Poly.zero(F3).degree == NEG_INF
    assert Poly.one(F3).degree == 0


def test_negative_powers_raise():
    f = poly_from_ints(F3, [1, 1])
    with pytest.raises(ValueError):
        f ** -1
    lp = LaurentPoly.from_terms(F3, {-1: F3.one()})
    with pytest.raises(ValueError):
        lp ** -1
    assert f**0 == Poly.one(F3) and f**1 == f
    assert lp**0 == LaurentPoly.from_terms(F3, {0: F3.one()})
    assert lp**3 == LaurentPoly.from_terms(F3, {-3: F3.one()})


def test_roots_simple():
    d, roots = roots_in_splitting_field(poly_from_ints(F3, [2, 0, 1]))  # t^2-1
    assert d == 1
    assert sorted(r.coeffs[0] for r in roots) == [1, 2]


def test_roots_f8():
    d, roots = roots_in_splitting_field(F8_POLY)
    assert len(roots) == 8
    assert len(set(roots)) == 8
    assert all(r for r in roots)
    root_set = set(roots)
    assert all(-r in root_set for r in roots)  # closed under mu_2


def test_roots_reconstruct_product():
    rng = random.Random(1)
    for _ in range(10):
        f = random_poly(rng, F5, 4)
        if f.degree < 1:
            continue
        d, roots = roots_in_splitting_field(f)
        big = make_field(5, d)
        assert len(roots) == f.degree
        prod = Poly(big, [embed(f.coeffs[-1], big)])
        t = Poly.x(big)
        for r in roots:
            prod = prod * (t - Poly(big, [r]))
        assert prod == embed_poly(f, big)


def test_factor_deterministic():
    f = F8_POLY
    assert factor(f) == factor(f)
    assert all(m == 1 for _, m in factor(f))
    # t^6 + 1 = (t^2 + 1)^3 over F_3, a p-th power
    assert factor(poly_from_ints(F3, [1, 0, 0, 0, 0, 0, 1])) == [
        (poly_from_ints(F3, [1, 0, 1]), 3)
    ]
    for fn in (factor, roots_in_field):
        with pytest.raises(ValueError):
            fn(Poly.zero(F3))


@pytest.mark.parametrize("p, k, top", [(3, 1, 6), (5, 1, 4), (7, 1, 3), (3, 2, 3)])
def test_factor_matches_trial_division_exhaustively(p, k, top):
    """Every monic polynomial of degree 1..top: ``factor`` gives the
    irreducible factors and multiplicities of trial division, repeated
    factors and p-th powers included."""
    spec = make_field(p, k)
    elements = list(spec.elements())
    for n in range(1, top + 1):
        for low in itertools.product(elements, repeat=n):
            f = Poly(spec, list(low) + [spec.one()])
            assert factor(f) == factor_reference(f), low


def test_squarefree_detection():
    f = poly_from_ints(F3, [1, 2, 1])  # (t+1)^2
    assert not f.is_squarefree()
    assert F8_POLY.is_squarefree()


def test_orbit_reps():
    assert [r.coeffs[0] for r in mu_m_orbit_reps(
        [F3.from_int(1), F3.from_int(2)], 2, F3
    )] == [1]
    assert mu_m_orbit_reps([], 2, F3) == []
    d, roots = roots_in_splitting_field(F8_POLY)
    reps = mu_m_orbit_reps(roots, 2, make_field(3, d))
    assert len(reps) == 4


def test_orbit_reps_errors():
    with pytest.raises(ZeroRoot):
        mu_m_orbit_reps([F3.zero()], 2, F3)
    with pytest.raises(RepeatedRoot):
        mu_m_orbit_reps([F3.one(), F3.one()], 2, F3)
    with pytest.raises(NotOrbitClosed):
        mu_m_orbit_reps([F3.one()], 2, F3)  # missing -1


def _squared_rep_polynomial(f, expected_ints):
    d, roots = roots_in_splitting_field(f)
    big = make_field(3, d)
    reps = mu_m_orbit_reps(roots, 2, big)
    es = elementary_symmetric_reference([r * r for r in reps])
    n = len(reps)
    # prod (t - x_j^2) has coefficient (-1)^s e_s at degree n - s
    coeffs = [es[n - i] * ((-1) ** (n - i)) for i in range(n + 1)]
    assert Poly(big, coeffs) == embed_poly(poly_from_ints(F3, expected_ints), big)


def test_elementary_symmetric_f8():
    _squared_rep_polynomial(F8_POLY, [1, 0, 0, 1, 1])  # t^4 + t^3 + 1


def test_elementary_symmetric_f10():
    _squared_rep_polynomial(F10_POLY, [2, 0, 0, 2, 2, 1])  # t^5+2t^4+2t^3+2


def test_elementary_symmetric_empty():
    assert elementary_symmetric_reference([], F3) == [F3.one()]


@settings(max_examples=50)
@given(st.integers(1, 124), st.integers(1, 124))
def test_rational_function_inverse(a_idx, b_idx):
    a = Poly(F5, [F5.element_by_index(a_idx % 5 or 1), F5.element_by_index(a_idx // 5)])
    b = Poly(F5, [F5.element_by_index(b_idx % 5 or 1), F5.element_by_index(b_idx // 5)])
    r = RationalFunction(a, b)
    assert (r * r.inverse()).as_poly() == Poly.one(F5)


def test_laurent_canonical_and_arithmetic():
    one = F3.one()
    a = LaurentPoly.from_terms(F3, {-3: one, 0: F3.from_int(2)})
    b = LaurentPoly.from_terms(F3, {-3: F3.from_int(2), 2: one})
    assert (a + b).term_dict() == {0: F3.from_int(2), 2: one}
    assert a.low == -3 and a.high == 0
    assert a.deg_t_inverse() == 3
    assert (a * b).low == -6
    assert not (a - a)

    # the ring operations Poly and LaurentPoly share, against term dicts,
    # in every element form: residues (F_7), log-table indices (F_49) and
    # coefficient tuples (F_{3^9}, above the table bound)
    rng = random.Random("dense-core")
    for spec in (F7, make_field(7, 2), make_field(3, 9)):
        other = make_field(spec.p, spec.k + 1)

        def dense(cls, low, coeffs, spec=spec):
            return cls(spec, coeffs) if cls is Poly else cls(spec, low, coeffs)

        def terms(x):
            return {x.low + i: c for i, c in enumerate(x.coeffs) if c}

        def add(t, u):
            out = dict(t)
            for e, x in u.items():
                out[e] = out[e] + x if e in out else x
            return out

        def build(cls, t):
            t = {e: c for e, c in t.items() if c}
            low = min(t, default=0) if cls is LaurentPoly else 0
            span = range(low, max(t, default=-1) + 1)
            return dense(cls, low, [t.get(e, spec.zero()) for e in span])

        for _ in range(6):
            c = spec.element([rng.randrange(1, spec.p)] * spec.k)
            fs = [
                [spec.element([rng.randrange(spec.p) for _ in range(spec.k)])
                 for _ in range(rng.randint(0, 5))]
                for _ in range(2)
            ]
            f, g = (Poly(spec, coeffs) for coeffs in fs)
            for cls in (Poly, LaurentPoly):
                lows = [0 if cls is Poly else rng.randint(-5, 3) for _ in fs]
                a, b = (dense(cls, low, coeffs) for low, coeffs in zip(lows, fs))
                ta, tb = terms(a), terms(b)
                product = {}
                for ea, x in ta.items():
                    for eb, y in tb.items():
                        product = add(product, {ea + eb: x * y})
                cube = {}
                for e1, e2, e3 in itertools.product(ta, repeat=3):
                    cube = add(cube, {e1 + e2 + e3: ta[e1] * ta[e2] * ta[e3]})
                for result, want in [
                    (a + b, add(ta, tb)),
                    (-a, {e: -x for e, x in ta.items()}),
                    (a - b, add(ta, {e: -x for e, x in tb.items()})),
                    (a * 2, {e: x * 2 for e, x in ta.items()}),
                    (a * spec.p, {}),
                    (a * c, {e: x * c for e, x in ta.items()}),
                    (a * b, product),
                    (a**0, {0: spec.one()}),
                    (a**3, cube),
                ]:
                    assert type(result) is cls
                    assert result == build(cls, want)
                    assert hash(result) == hash(build(cls, want))
                    assert bool(result) == any(want.values())
                assert (a == b) == (ta == tb)
                for op in (operator.add, operator.sub, operator.mul):
                    with pytest.raises(SpecMismatch):
                        op(a, dense(cls, 0, [other.one()], other))
                with pytest.raises(ValueError):
                    a**-1
            for op in (operator.add, operator.sub, operator.mul):
                assert op(LaurentPoly.from_poly(f), LaurentPoly.from_poly(g)) == (
                    LaurentPoly.from_poly(op(f, g))
                )
            assert Poly(spec, f.coeffs) != LaurentPoly(spec, 0, f.coeffs)
            for x, y in [(f, LaurentPoly.from_poly(g)), (LaurentPoly.from_poly(f), g)]:
                for op in (operator.add, operator.sub, operator.mul):
                    with pytest.raises(TypeError):
                        op(x, y)
        assert Poly.zero(spec) != LaurentPoly.zero(spec)
        assert not Poly.zero(spec) and not LaurentPoly.zero(spec)


def laurent_frobenius(h: LaurentPoly) -> LaurentPoly:
    """h^p, the Witt Frobenius of the one-entry vector (h)."""
    return frobenius(WittVector(h.spec, (h,))).entries[0]


def test_laurent_frobenius():
    a = LaurentPoly.from_terms(F3, {-2: F3.from_int(2)})
    assert laurent_frobenius(a).term_dict() == {-6: F3.from_int(2)}


def sparse_laurent(rng, spec, low):
    """A nonzero coefficient at t^low and up to three random ones above it,
    spread over 3p exponents."""
    terms = {low: spec.element_by_index(rng.randrange(1, spec.order))}
    for _ in range(rng.randint(0, 3)):
        terms[low + rng.randint(1, 3 * spec.p)] = spec.element_by_index(
            rng.randrange(spec.order)
        )
    return LaurentPoly.from_terms(spec, terms)


@pytest.mark.parametrize("p, k", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (7, 2)])
def test_dense_laurent_path_matches_term_dicts(p, k):
    """Sum, difference, product, negation, Cartier image, Frobenius,
    coefficient map and ``embed_poly`` on dense coefficient tuples give the
    to_json bytes of the term-dict oracles, for
    operands whose low exponent runs over every residue mod p (negative ones
    too), sums that cancel in full or at the bottom, zero and monomials."""
    spec = make_field(p, k)
    big = make_field(p, 2 * k)
    rng = random.Random(f"dense-laurent:{p}:{k}")
    zero = LaurentPoly.zero(spec)

    def same(x, y):
        assert json.dumps(x.to_json()) == json.dumps(y.to_json())

    def negated(h):
        return laurent_map_coeffs_reference(h, operator.neg, spec)

    for low in range(-2 * p - 1, p + 1):
        for _ in range(4):
            a = sparse_laurent(rng, spec, low)
            b = sparse_laurent(rng, spec, rng.randint(-2 * p - 1, p))
            monomial = LaurentPoly(spec, low, [a.coeffs[0]])
            # -a with its top term dropped cancels a from the bottom up
            bottom = LaurentPoly(spec, a.low, a.coeffs[:-1])
            for x, y in [(a, b), (b, a), (a, -a), (a, -bottom), (a, zero),
                         (zero, a), (zero, zero), (a, monomial), (monomial, b)]:
                same(x + y, laurent_add_reference(x, y))
                same(x - y, laurent_add_reference(x, negated(y)))
                same(x * y, laurent_mul_reference(x, y))
            for h in (a, b, a + b, a - bottom, monomial, zero):
                same(-h, negated(h))
                same(cartier(h), cartier_reference(h))
                same(laurent_frobenius(h), laurent_frobenius_reference(h))
                embedded = laurent_map_coeffs_reference(h, lambda c: embed(c, big), big)
                same(embed_poly(h, big), embedded)


def test_embedding_consistency():
    f9 = make_field(3, 2)
    f81 = make_field(3, 4)
    for i in range(9):
        x = f9.element_by_index(i)
        y = f9.element_by_index((i * 5 + 2) % 9)
        assert embed(x * y, f81) == embed(x, f81) * embed(y, f81)
        assert embed(x + y, f81) == embed(x, f81) + embed(y, f81)
    for dst in (F5, make_field(7, 2)):  # another characteristic
        with pytest.raises(SpecMismatch):
            embed(F3.from_int(2), dst)
        for f in (poly_from_ints(F3, [1, 2]), Poly.zero(F3)):
            with pytest.raises(SpecMismatch):
                embed_poly(f, dst)


# -- the packed product against the schoolbook oracle ------------------------


def _vector(rng, spec, length, top):
    """length elements of spec: random, or (top) with every digit p-1."""
    if top:
        return [spec.element([spec.p - 1] * spec.k)] * length
    return [
        spec.element([rng.randrange(spec.p) for _ in range(spec.k)])
        for _ in range(length)
    ]


def _check_products(spec, a, b):
    """The product of stored values (``kronecker_mul``), of ``Poly``s and
    of ``LaurentPoly``s against the schoolbook product of elements."""
    expected = schoolbook_mul(a, b, spec)
    va, vb = [c.v for c in a], [c.v for c in b]
    assert kronecker_mul(va, vb, spec) == [c.v for c in expected]
    if len(a) < 200:  # the square packs its one operand once
        square = [c.v for c in schoolbook_mul(a, a, spec)]
        assert kronecker_mul(va, va, spec) == square
    assert Poly(spec, a) * Poly(spec, b) == Poly(spec, expected)
    for low_a, low_b in ((-7, 4), (5, -2), (-3, -200), (3, 8)):
        product = LaurentPoly(spec, low_a, a) * LaurentPoly(spec, low_b, b)
        assert product == LaurentPoly(spec, low_a + low_b, expected)


# (len a, len b, every digit p-1): empty, one-term and >= 200-term
# sequences.  All-(p-1) sequences reach the digit bound min(len)*k*(p-1)^2,
# which is 2^8 exactly for 64 terms over F_3.
SHAPES = [
    (0, 3, False),
    (3, 0, False),
    (1, 1, False),
    (1, 200, False),
    (203, 7, False),
    (64, 64, True),
    (200, 64, True),
]


# every k in (1, 2, 3, 9) for every p in (3, 5, 7), then F_{13^14}, the
# splitting field of the (13,2,49) trace certificate
KRONECKER_FIELDS = [(p, k) for k in (1, 2, 3, 9) for p in (3, 5, 7)] + [(13, 14)]


@pytest.mark.parametrize(
    "p, k", KRONECKER_FIELDS, ids=[f"{k}-{p}" for p, k in KRONECKER_FIELDS]
)
def test_kronecker_mul_matches_schoolbook(p, k):
    spec = make_field(p, k)
    rng = random.Random(100 * p + k)
    for la, lb, top in SHAPES:
        _check_products(spec, _vector(rng, spec, la, top), _vector(rng, spec, lb, top))


def test_kronecker_mul_wider_than_a_word():
    # 5 * (p-1)^2 > 2^64, so digits are packed byte by byte
    p = 2**31 - 1
    rng = random.Random(7)
    for spec in (make_field(p, 1), make_field(p, 2)):
        for top in (False, True):
            _check_products(spec, _vector(rng, spec, 5, top), _vector(rng, spec, 6, top))


@pytest.mark.parametrize("p, k", [(3, 1), (3, 2), (3, 8)])
def test_a_scalar_multiplies_from_either_side(p, k):
    """A field element or an int on the left of a Poly or a LaurentPoly
    gives the product with it on the right; a FieldElement times any other
    type raises TypeError."""
    spec = make_field(p, k)
    rng = random.Random(f"scalar:{p}:{k}")
    x = spec.element([rng.randrange(1, p) for _ in range(k)])
    coeffs = _vector(rng, spec, 4, False) + [spec.one()]
    for f in (Poly(spec, coeffs), LaurentPoly(spec, -3, coeffs)):
        assert x * f == f * x
        assert 2 * f == f * 2
    with pytest.raises(TypeError):
        x * "a"


# -- modular powers against square-and-multiply on schoolbook division ------


def _modulus(rng, spec, n, monic):
    """A random polynomial of degree n, monic or with a lead other than 1."""
    lead = spec.one()
    while not monic and lead in (spec.zero(), spec.one()):
        lead = _vector(rng, spec, 1, False)[0]
    return Poly(spec, _vector(rng, spec, n, False) + [lead])


@pytest.mark.parametrize("p, k", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 3), (7, 8)])
def test_powmod_matches_reference(p, k):
    spec = make_field(p, k)
    rng = random.Random(10 * p + k)
    q = spec.order
    cases = [(d, d != 2, (0, 1, 2, q, (q**d - 1) // 2)) for d in (1, 2, 3)]
    if k == 1:
        # degree 44 is the largest modulus _powmod meets in the certify catalog
        cases += [(d, monic, (0, 1, 2, p)) for d in (8, 44) for monic in (True, False)]
    for d, monic, exponents in cases:
        mod = _modulus(rng, spec, d, monic)
        for base in (
            Poly(spec, _vector(rng, spec, 2 * d + 1, False)),
            Poly(spec, _vector(rng, spec, d, True)),
            Poly.x(spec),
            Poly.zero(spec),
        ):
            for e in exponents:
                assert _powmod(base, e, mod) == powmod_reference(base, e, mod)


# -- division on stored values against schoolbook division on elements -----


def _poly_of_degree(rng, spec, degree, lead=None):
    """A random polynomial of the given degree, with leading coefficient
    lead, or a random nonzero one."""
    if lead is None:
        lead = spec.from_int(rng.randrange(1, spec.p))
    return Poly(spec, _vector(rng, spec, degree, False) + [lead])


def _division_pairs(rng, spec):
    """(a, b) with b != 0: non-monic, monic and constant divisors (for k >=
    2 one lead outside F_p), deg a < deg b, exact division, a common
    factor, and a zero dividend."""
    leads = [None, spec.one(), spec.from_int(2)]
    if spec.k > 1:
        leads.append(spec.element([1, 1]))
    pairs = []
    for da, db in ((9, 4), (12, 1), (6, 0), (20, 7), (5, 5), (30, 15), (3, 6), (0, 2)):
        for lead in leads:
            pairs.append((_poly_of_degree(rng, spec, da),
                          _poly_of_degree(rng, spec, db, lead)))
    for da, db in ((4, 3), (10, 5)):
        b = _poly_of_degree(rng, spec, db)
        pairs.append((b * _poly_of_degree(rng, spec, da - db), b))
        h = _poly_of_degree(rng, spec, 3)
        pairs.append((h * _poly_of_degree(rng, spec, da), h * b))
    pairs += [(Poly.zero(spec), b) for _, b in pairs[:6]]
    return pairs


# residues mod p from 3 to 2^31 - 1, indices in tabled fields (F_9,
# F_{3^7}) and coefficient tuples above the table bound (F_{3^8}, F_{5^6}):
# every form ``gf._divmod`` meets
DIVISION_FIELDS = [(3, 1), (5, 1), (7, 1), (13, 1), (10007, 1), (2**31 - 1, 1),
                   (3, 2), (3, 7), (3, 8), (5, 6)]


@pytest.mark.parametrize("p, k", DIVISION_FIELDS)
def test_divmod_and_gcd_match_the_reference(p, k):
    spec = make_field(p, k)
    ops = spec._ops
    rng = random.Random(f"division:{p}" if k == 1 else f"division:{p}:{k}")
    for a, b in _division_pairs(rng, spec):
        quot, rem = a.divmod(b)
        assert (quot, rem) == poly_divmod_reference(a, b)
        values = gf._divmod(ops, [c.v for c in a.coeffs], [c.v for c in b.coeffs])
        assert values == ([c.v for c in quot.coeffs], [c.v for c in rem.coeffs])
        assert quot * b + rem == a and rem.degree < b.degree
        g = a.gcd(b)
        assert g == poly_gcd_reference(a, b) == b.gcd(a)
        assert g.coeffs[-1] == spec.one()
        assert not poly_divmod_reference(a, g)[1]
        assert not poly_divmod_reference(b, g)[1]


def test_monic_division_above_the_table_bound_makes_no_ring_product(monkeypatch):
    """Above the table bound a monic division subtracts each quotient term
    times the divisor as one packed product (``gf.kronecker_mul``), not
    one folded element product (``gf._ring_mul``) per divisor coefficient."""
    spec = make_field(3, 8)
    rng = random.Random("monic:3:8")
    a, b = _poly_of_degree(rng, spec, 14), _poly_of_degree(rng, spec, 6, spec.one())
    expected = poly_divmod_reference(a, b)
    calls = []
    real = gf._ring_mul
    monkeypatch.setattr(gf, "_ring_mul", lambda *args: calls.append(1) or real(*args))
    assert a.divmod(b) == expected
    assert calls == []


def test_scalars_and_points_from_another_field_raise():
    f = poly_from_ints(F5, [1, 2, 3])
    for x in (F3.from_int(2), make_field(5, 2).from_int(2)):
        for call in (lambda: f * x, lambda: f.evaluate(x)):
            with pytest.raises(SpecMismatch) as exc:
                call()
            assert str(exc.value) == "elements belong to different field specs"
    assert f * F5.from_int(2) == poly_from_ints(F5, [2, 4, 1])
    assert f.evaluate(F5.from_int(2)) == F5.from_int(2)


def test_the_zero_polynomial_has_no_splitting_field():
    for call in (
        lambda: roots_in_splitting_field(Poly.zero(F5)),
        lambda: orbit_reps_in_splitting_field(Poly.zero(F5), 2),
    ):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == "zero polynomial has no splitting field"


def test_divmod_and_gcd_edge_cases():
    zero, x = Poly.zero(F5), Poly.x(F5)
    assert zero.gcd(zero) == zero
    assert (x * F5.from_int(3)).gcd(zero) == x
    assert x * 3 == x * F5.from_int(3)
    for a, b in ((x, zero), (zero, zero)):
        with pytest.raises(ZeroDivisionError):
            a.divmod(b)
    for a, b in ((x, Poly.x(F3)), (Poly.x(F3), x)):
        with pytest.raises(SpecMismatch):
            a.divmod(b)
        with pytest.raises(SpecMismatch):
            a.gcd(b)


# -- trace splitting against Cantor-Zassenhaus -------------------------------


def _irreducible(rng, spec, d):
    while True:
        g = Poly(spec, _vector(rng, spec, d, False) + [spec.one()])
        if factor(g) == [(g, 1)]:
            return g


def _orbit(r, q):
    """The roots r^(q^i), sorted."""
    out, nxt = [r], r**q
    while nxt != r:
        out.append(nxt)
        nxt = nxt**q
    return sorted(out, key=FieldElement.sort_key)


def _is_field(spec):
    f = Poly.from_ints(make_field(spec.p, 1), spec.modulus)
    return factor(f) == [(f, 1)]


@pytest.mark.parametrize("p", [3, 5, 7, 11])
@pytest.mark.parametrize("k", [1, 2])
def test_one_root_matches_cantor_zassenhaus(p, k):
    spec = make_field(p, k)
    rng = random.Random(f"one-root:{p}:{k}")
    for d in range(2, 7):
        g = _irreducible(rng, spec, d)
        # big fields of degree 20 and 24 would add 13 s to this test
        for big_degree in (k * d, 2 * k * d) if 2 * k * d <= 16 else (k * d,):
            big = make_field(p, big_degree)
            # reducible canonical moduli (ROADMAP defect 1, its own strict
            # xfails in test_gf) make no field: embedding into them raises
            # NotAField
            if not _is_field(big):
                continue
            gb = embed_poly(g, big)
            roots = _conjugates(g, big)
            r = roots[0]
            assert not gb.evaluate(r)
            assert _orbit(r, spec.order) == _orbit(one_root_reference(gb), spec.order)
            assert sorted(roots, key=FieldElement.sort_key) == _orbit(r, spec.order)


def _product(factors, spec):
    f = Poly.one(spec)
    for g in factors:
        f = f * g
    return f


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 10007])
@pytest.mark.parametrize("k", [1, 2])
def test_equal_degree_factorization_matches_cantor_zassenhaus(p, k):
    spec = make_field(p, k)
    rng = random.Random(f"edf:{p}:{k}")
    for d in (1, 2, 3, 4):
        factors = set()
        while len(factors) < 3:
            factors.add(_irreducible(rng, spec, d))
        f = _product(factors, spec)
        expected = equal_degree_factorization_reference(f, d)
        assert equal_degree_factorization(f, d) == expected
        assert len(expected) == 3


@pytest.mark.parametrize("p, d, count", [(3, 3, 8), (3, 4, 5), (5, 2, 8)])
def test_equal_degree_factorization_needs_higher_power_sums(p, d, count):
    # more degree-d factors over F_p than F_p has trace values, so two of
    # them share the sum of their roots: only the traces of r^j, j >= 2,
    # tell them apart
    spec = make_field(p, 1)
    monic = (
        Poly.from_ints(spec, [i // p**t % p for t in range(d)] + [1])
        for i in range(p**d)
    )
    factors = [g for g in monic if factor(g) == [(g, 1)]][:count]
    assert len(factors) == count > p
    f = _product(factors, spec)
    assert equal_degree_factorization(f, d) == equal_degree_factorization_reference(
        f, d
    )


@pytest.mark.parametrize("p, k, big", [(3, 2, 6), (3, 3, 9), (5, 2, 10), (7, 2, 4)])
def test_embedding_image_is_the_least_reference_root(p, k, big):
    src, dst = make_field(p, k), make_field(p, big)
    modulus = Poly.from_ints(dst, src.modulus)
    roots = [-g.coeffs[0] for g in equal_degree_factorization_reference(modulus, 1)]
    assert len(roots) == k
    assert _embedding_image(src, dst) == min(roots, key=FieldElement.sort_key)


# the largest target degree per p (49 pairs and two without an
# embedding); targets up to F_{3^18} would make the test 0.6 s slower
EMBEDDING_TARGETS = {3: 16, 5: 12, 7: 12, 11: 6, 13: 6}


def _outcome(fn, src, dst):
    try:
        return fn(src, dst)
    except (NotAField, SpecMismatch) as exc:
        return type(exc)


def test_embedding_image_matches_the_factoring_reference():
    # the conjugates of one root against all the roots of the source
    # modulus over the target; a reducible target modulus (ROADMAP defect
    # 1: F_{3^12}, F_{7^12}, F_{11^6}) must raise NotAField on both paths
    pairs = [
        (p, k, big)
        for p, top in EMBEDDING_TARGETS.items()
        for k in range(2, top // 2 + 1)
        for big in range(2 * k, top + 1, k)
    ]
    pairs += [(3, 2, 9), (5, 3, 4)]  # no embedding: SpecMismatch
    assert len(pairs) == 51
    outcomes = []
    for p, k, big in pairs:
        src, dst = make_field(p, k), make_field(p, big)
        expected = _outcome(embedding_image_reference, src, dst)
        assert _outcome(_embedding_image.__wrapped__, src, dst) == expected, (p, k, big)
        outcomes.append(expected)
    assert outcomes.count(NotAField) == 10
    assert outcomes.count(SpecMismatch) == 2


def test_a_reducible_source_modulus_has_no_embedding():
    # x^2 - 1 over F_3 splits into two roots that Frobenius fixes, so the
    # orbit of one root is shorter than the degree
    with pytest.raises(NotAField, match="orbit shorter"):
        _embedding_image(FieldSpec(3, 2, (2, 0, 1)), make_field(3, 4))


def test_trace_split_takes_few_gcds_over_a_large_prime(monkeypatch):
    # each cut by the quadratic character of T + a takes O(log p)
    # products and two gcds; a scan of the trace values in F_p would take
    # up to p = 10007 gcds per cut
    p = 10007
    spec = make_field(p, 1)
    calls = []
    gcd = Poly.gcd
    monkeypatch.setattr(Poly, "gcd", lambda a, b: calls.append(1) or gcd(a, b))
    values = [1, 2, p // 2, p - 3]
    f = _product([poly_from_ints(spec, [-c, 1]) for c in values], spec)
    assert [r.coeffs[0] for r in roots_in_field(f)] == values
    g = poly_from_ints(spec, [1, 1, 1])  # irreducible, as p = 2 mod 3
    r = _conjugates(g, make_field(p, 2))[0]
    assert not embed_poly(g, r.spec).evaluate(r)
    assert len(calls) < 50


def test_trace_split_builds_no_trace_for_j_divisible_by_p(monkeypatch):
    # the p = 3 leaf of `search --p 3 --m 2 --u 5 --n1 10 --isolated`: two
    # quintics over F_3 with equal power sums for j <= 4, so the split ends
    # in round j = 5, and round 3 would repeat the cut of round 1
    from ddcrit import poly

    rounds = []
    trace = poly._trace
    # ys[0] = x^j mod f, which is x^j itself for j < deg f
    monkeypatch.setattr(
        poly, "_trace", lambda ys, powers: rounds.append(ys[0].degree) or trace(ys, powers)
    )
    f = poly_from_ints(F3, [2, 0, 0, 0, 0, 0, 2, 0, 2, 0, 1])
    assert equal_degree_factorization(f, 5) == [
        poly_from_ints(F3, [1, 2, 2, 1, 0, 1]),
        poly_from_ints(F3, [2, 2, 1, 1, 0, 1]),
    ]
    assert rounds == [1, 2, 4, 5]


@pytest.mark.parametrize("p, k", [(3, 1), (5, 1), (5, 2)])
def test_roots_when_factor_degree_is_below_the_lcm(p, k):
    # f = (deg 2)(deg 3): both factors split only in F_{q^6}
    spec = make_field(p, k)
    rng = random.Random(f"lcm:{p}:{k}")
    g2, g3 = _irreducible(rng, spec, 2), _irreducible(rng, spec, 3)
    d, roots = roots_in_splitting_field(g2 * g3)
    assert d == 6 * k
    big = make_field(p, d)
    expected = []
    for g in (g2, g3):
        gb = embed_poly(g, big)
        assert sum(not gb.evaluate(r) for r in roots) == g.degree
        expected += _orbit(one_root_reference(gb), spec.order)
    assert roots == sorted(expected, key=FieldElement.sort_key)


@pytest.mark.xfail(
    raises=NotAField, strict=True, reason="F_{7^12} has a reducible modulus"
)
def test_roots_of_the_13th_cyclotomic_polynomial_over_f7():
    # ord_13(7) = 12, so the roots need F_{7^12}, whose canonical modulus
    # x^12 + x^2 + 2 is reducible today; the search leaf (7,2,13,78) meets it
    d, roots = roots_in_splitting_field(poly_from_ints(make_field(7, 1), [1] * 13))
    assert d == 12 and len(set(roots)) == 12


def _reps_from_roots(f, m):
    d, roots = roots_in_splitting_field(f)
    return d, mu_m_orbit_reps(roots, m, make_field(f.spec.p, d))


def _both_paths(f, m):
    """(D, reps), or NotAField, from the full root list and from
    ``orbit_reps_in_splitting_field``."""
    out = []
    for path in (_reps_from_roots, orbit_reps_in_splitting_field):
        try:
            out.append(path(f, m))
        except NotAField:
            out.append(NotAField)
    return out


def _in_t_m(coeffs, m, spec):
    """F(t^m) for the ascending coefficients of F."""
    out = []
    for c in coeffs[:-1]:
        out += [c] + [spec.zero()] * (m - 1)
    return Poly(spec, out + coeffs[-1:])


@pytest.mark.parametrize("p, m, k, top", [
    (3, 2, 1, 5), (5, 4, 1, 3), (7, 3, 1, 3), (7, 6, 1, 2), (11, 5, 1, 2),
    (3, 2, 2, 2), (5, 2, 2, 2),
])
def test_orbit_reps_match_the_root_list_exhaustively(p, m, k, top):
    """Every monic F of degree 1..top with F(0) != 0: f = F(t^m) gets the
    same (D, reps) from both paths, or NotAField from both (at F_{3^12} and
    F_{7^12}, whose moduli are reducible, ROADMAP defect 1), if f is
    squarefree, and NotSquarefree from ``orbit_reps_in_splitting_field``
    if not.  The leading coefficient of f changes no root, so monic F cover
    all f."""
    spec = make_field(p, k)
    elements = list(spec.elements())
    for n in range(1, top + 1):
        for low in itertools.product(elements, repeat=n):
            f = _in_t_m(list(low) + [spec.one()], m, spec)
            if not low[0]:
                continue
            if f.is_squarefree():
                old, new = _both_paths(f, m)
                assert old == new, (low, old, new)
            else:
                with pytest.raises(NotSquarefree):
                    orbit_reps_in_splitting_field(f, m)


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from([(3, 2, 1, (1, 2, 4)), (5, 2, 1, (1, 2)), (5, 4, 1, (1, 2)),
                     (7, 3, 1, (1, 3)), (13, 4, 1, (1, 2)), (3, 2, 2, (1, 2))]),
    st.integers(5, 9),
    st.integers(0, 2**32),
)
def test_orbit_reps_match_the_root_list_at_larger_degree(case, n, seed):
    """f = c F(t^m) with F a product of distinct irreducibles of the given
    degrees, n <= deg F < n + 4, and a random leading coefficient c."""
    p, m, k, degrees = case
    spec = make_field(p, k)
    rng = random.Random(seed)
    factors = set()
    while sum(int(g.degree) for g in factors) < n:
        g = _irreducible(rng, spec, rng.choice(degrees))
        if g.coeffs[0]:
            factors.add(g)
    big_f = _product(factors, spec) * spec.element([rng.randrange(1, p)])
    f = _in_t_m(list(big_f.coeffs), m, spec)
    old, new = _both_paths(f, m)
    assert old == new


def test_orbit_reps_of_the_13th_cyclotomic_polynomial_in_t2_over_f7():
    # both paths need F_{7^12}, whose canonical modulus is reducible today
    # (ROADMAP defect 1); once it is irreducible, both must give D = 12
    # and six reps
    f = _in_t_m([F7.one()] * 13, 2, F7)
    assert _both_paths(f, 2) == [NotAField, NotAField]


def test_orbit_reps_check_their_input():
    with pytest.raises(NotOrbitClosed):
        orbit_reps_in_splitting_field(poly_from_ints(F3, [1, 1, 1]), 2)
    with pytest.raises(ZeroRoot):
        orbit_reps_in_splitting_field(poly_from_ints(F3, [0, 0, 1]), 2)
    with pytest.raises(NotSquarefree):
        orbit_reps_in_splitting_field(poly_from_ints(F3, [1, 0, 2, 0, 1]), 2)
    assert orbit_reps_in_splitting_field(poly_from_ints(F3, [2]), 2) == (1, [])


@pytest.mark.parametrize("p, ms", [(7, [2, 3, 6]), (11, [2, 5]), (13, [3, 4])])
def test_mth_root_over_a_prime_field_inverts_every_mth_power(p, ms):
    """F_7, F_11 and F_13 lie within the table bound, so ``gf.mth_root``
    takes each root by one lookup in the log tables of F_p, as in every
    tabled field (test_gf checks the lookup itself); above the bound
    ``test_mth_root_above_the_table_bound`` splits t^m - y instead."""
    spec = make_field(p, 1)
    nonzero = [spec.element_by_index(i) for i in range(1, spec.order)]
    for m in ms:
        powers = {z**m for z in nonzero}
        for y in powers:
            assert mth_root(y, m) ** m == y
        for y in set(nonzero) - powers:
            with pytest.raises(NotAField):
                mth_root(y, m)


@pytest.mark.parametrize("p, k, m", [(5, 6, 4), (3, 8, 2), (7, 6, 3), (3, 16, 2),
                                     (8191, 1, 6), (10009, 1, 8)])
def test_mth_root_above_the_table_bound(p, k, m):
    """``gf.mth_root`` has no path above the table bound, for every k: it
    raises ValueError.  There an m-th root of a random m-th power y comes
    from ``_one_root`` of G = t - y with m, which splits t^m - y over F_q,
    F_p with p > 2^12 included."""
    spec = make_field(p, k)
    assert spec.order > gf._LOG_TABLE_BOUND
    rng = random.Random(f"mth-root:{p}:{k}")
    for _ in range(8):
        z = spec.element([rng.randrange(p) for _ in range(k)])
        if z:
            g = Poly(spec, [-(z**m), spec.one()])
            assert _one_root(g, spec, m) ** m == z**m
            with pytest.raises(ValueError):
                mth_root(z**m, m)


def _monic_quadratics(spec):
    for c, b in itertools.product(spec.elements(), repeat=2):
        yield Poly(spec, [c, b, spec.one()])


@pytest.mark.parametrize("p, k", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_quadratic_roots_by_radicals_against_cantor_zassenhaus(p, k):
    """Every monic irreducible quadratic g over F_3, F_5, F_7 and F_9: the
    quadratic formula in ``_one_root`` gives a root in F_{q^2}, and
    ``_conjugates`` gives the root set of ``roots_in_splitting_field`` and
    of the Cantor-Zassenhaus oracle."""
    spec = make_field(p, k)
    big = make_field(p, 2 * k)
    irreducible = [g for g in _monic_quadratics(spec) if factor(g) == [(g, 1)]]
    assert len(irreducible) == (spec.order**2 - spec.order) // 2
    for g in irreducible:
        gb = embed_poly(g, big)
        assert not gb.evaluate(_one_root(g, big))
        roots = sorted(_conjugates(g, big), key=FieldElement.sort_key)
        assert roots_in_splitting_field(g) == (2 * k, roots)
        assert roots == _orbit(one_root_reference(gb), spec.order)


def test_quadratic_roots_by_radicals_above_the_table_bound():
    """Seeded irreducible quadratics over the untabled F_{3^8}: roots in
    F_{3^16}, against the root list and the Cantor-Zassenhaus oracle."""
    spec, big = make_field(3, 8), make_field(3, 16)
    assert spec._tables is None and _is_field(big)
    rng = random.Random("quadratic:3:8")
    for _ in range(4):
        g = _irreducible(rng, spec, 2)
        gb = embed_poly(g, big)
        assert not gb.evaluate(_one_root(g, big))
        roots = sorted(_conjugates(g, big), key=FieldElement.sort_key)
        assert roots_in_splitting_field(g) == (16, roots)
        assert roots == _orbit(one_root_reference(gb), spec.order)


@pytest.mark.parametrize("p, m, k, degrees", [
    (7, 2, 1, (1, 2, 2, 4)), (13, 4, 1, (1, 2, 4)),
    (5, 2, 2, (1, 2, 4)), (3, 2, 4, (1, 2, 2)),
    (3, 2, 1, (1, 3)), (3, 2, 1, (3, 3)), (7, 2, 1, (1, 3)),
])
def test_orbit_reps_split_no_binomial_and_no_quadratic(monkeypatch, p, m, k, degrees):
    """Where the splitting field F_{p^D} is tabled (F_p included), m-th
    roots come from ``gf.mth_root`` and quadratic factors from the
    quadratic formula: every one-root split of the orbit-reps path is an
    irreducible factor G of F of degree >= 3, never t^m - y.  Above the
    table bound the splits are exactly the G(t^m), one per factor G.  The
    reps match the full root list either way.  D stays clear of the
    reducible moduli of ROADMAP defect 1."""
    from ddcrit import poly

    spec = make_field(p, k)
    rng = random.Random(f"no-binomial:{p}:{m}:{k}")
    splits = []
    real_trace_split = poly._trace_split

    def trace_split(f, xs, d, one=False):
        if one:
            splits.append(f)
        return real_trace_split(f, xs, d, one)

    for _ in range(3):
        factors = set()
        for d in degrees:
            g = _irreducible(rng, spec, d)
            while not g.coeffs[0]:
                g = _irreducible(rng, spec, d)
            factors.add(g)
        f = _in_t_m(list(_product(factors, spec).coeffs), m, spec)
        expected = _reps_from_roots(f, m)
        splits.clear()
        monkeypatch.setattr(poly, "_trace_split", trace_split)
        assert orbit_reps_in_splitting_field(f, m) == expected
        monkeypatch.undo()
        big = make_field(p, expected[0])
        if big.order <= gf._LOG_TABLE_BOUND:
            split = [g for g in factors if g.degree >= 3]
        else:
            split = [_in_t_m(list(g.coeffs), m, spec) for g in factors]
        split = [embed_poly(g, big) for g in split]
        assert sorted(map(repr, splits)) == sorted(map(repr, split))


def _eta_order(g, m):
    """ord(eta), eta = ((-1)^d G(0))^((q-1)/m), for G of degree d over F_q:
    the roots of G(t^m) have degree d ord(eta) over F_q."""
    spec, d = g.spec, int(g.degree)
    eta = (g.coeffs[0] if d % 2 == 0 else -g.coeffs[0]) ** ((spec.order - 1) // m)
    return next(j for j in range(1, m + 1) if eta**j == spec.one())


@pytest.mark.parametrize("p, k, m, kinds", [
    (3, 8, 2, ((1, 1), (1, 2), (2, 1))), (3, 8, 2, ((2, 2), (1, 1))),
    (5, 6, 2, ((1, 1), (1, 2), (2, 1), (2, 2))),
    (5, 6, 4, ((1, 1), (1, 2), (2, 1))), (5, 6, 4, ((1, 4), (2, 1))),
])
def test_orbit_reps_above_the_table_bound_match_the_root_list(p, k, m, kinds):
    """Over the untabled F_{3^8} and F_{5^6}, f = F(t^m) for seeded F with
    one irreducible factor G of each (degree, ord(eta)) in kinds, eta = 1
    and ord(eta) > 1 both among them: the splitting field lies above the
    table bound, where the orbit-reps path splits each G(t^m), and it
    gives the (D, reps) of ``roots_in_splitting_field`` and
    ``mu_m_orbit_reps``."""
    spec = make_field(p, k)
    assert not spec._coded
    rng = random.Random(f"above:{p}:{k}:{m}:{kinds}")
    factors = []
    for d, order in kinds:
        g = _irreducible(rng, spec, d)
        while not g.coeffs[0] or _eta_order(g, m) != order or g in factors:
            g = _irreducible(rng, spec, d)
        factors.append(g)
    f = _in_t_m(list(_product(factors, spec).coeffs), m, spec)
    expected = _reps_from_roots(f, m)
    assert expected[0] == k * math.lcm(*(d * order for d, order in kinds))
    assert orbit_reps_in_splitting_field(f, m) == expected


@pytest.mark.parametrize("p, m, tabled", [(4093, 4, True), (4099, 6, False)])
def test_orbit_reps_at_the_table_bound_over_f_p(p, m, tabled):
    """4093 is the largest prime up to the table bound 2^12 and 4099 the
    least above it (4 does not divide 4098, so m = 6 there).  f = F(t^m)
    for F with three seeded linear factors t - z^m splits over F_p itself:
    its m-th roots come from the log tables of F_4093 and from splitting
    t^m - y over F_4099, which builds none.  Either way the orbit-reps
    path gives the (D, reps) of ``roots_in_splitting_field`` and
    ``mu_m_orbit_reps``."""
    spec = make_field(p, 1)
    assert (spec.order <= gf._LOG_TABLE_BOUND) == tabled
    rng = random.Random(f"bound:{p}:{m}")
    ys = set()
    while len(ys) < 3:
        ys.add(spec.from_int(rng.randrange(1, p)) ** m)
    factors = [Poly(spec, [-y, spec.one()]) for y in ys]
    f = _in_t_m(list(_product(factors, spec).coeffs), m, spec)
    expected = _reps_from_roots(f, m)
    assert expected[0] == 1 and len(expected[1]) == 3
    assert orbit_reps_in_splitting_field(f, m) == expected
    assert (spec.__dict__.get("_tables") is not None) == tabled


def test_orbit_reps_over_a_reducible_tuple_modulus_raise_not_a_field():
    """t^2 - y over F_{3^6}, y no square, splits in F_{3^12}, whose
    canonical modulus x^12 + x^2 + 1 is reducible (ROADMAP defect 1) and
    which lies above the table bound: splitting t^2 - y there raises
    NotAField, as the full root list does."""
    spec = make_field(3, 6)
    y = next(z for z in spec.elements() if z and _eta_order(Poly(spec, [-z, spec.one()]), 2) == 2)
    f = Poly(spec, [-y, spec.zero(), spec.one()])
    assert not make_field(3, 12)._coded
    assert _both_paths(f, 2) == [NotAField, NotAField]


@pytest.mark.xfail(
    raises=NotAField, strict=True, reason="F_{3^12} has a reducible modulus"
)
def test_standard_form_of_a_constant_over_f81():
    # the constant 1 needs an Artin-Schreier extension of degree 3, to
    # F_{3^12}, whose canonical modulus x^12 + x^2 + 1 has the roots +-1
    # (ROADMAP defect 1); `witt breaks --p 3 --field-degree 4 --entries
    # "t^-5+1"` meets it
    spec = make_field(3, 4)
    entry = LaurentPoly.from_terms(spec, {-5: spec.one(), 0: spec.one()})
    assert standard_form(WittVector(spec, (entry,))).extension_degree == 3


# residues (F_7), element indices (F_9) and coefficient tuples (F_{3^8})
@pytest.mark.parametrize("p, k", [(7, 1), (3, 2), (3, 8)])
def test_polynomial_operations_build_no_field_element(monkeypatch, p, k):
    """Poly and LaurentPoly compute on the stored values they hold: with
    the field's caches built by a first round (its arithmetic bundle, the
    fold, Frobenius and p-th root maps), no ring operation, division, gcd,
    modular power, derivative, Laurent product, Witt Frobenius, ``cartier``
    or ``ddc_check`` builds a FieldElement, nor does ``embed_poly`` from
    F_7 into F_49 or from F_9 into F_{3^8} with its map built, ``evaluate``
    builds exactly its result, and no leaf of the pruned search builds
    one."""
    spec = make_field(p, k)
    rng = random.Random(f"unboxed:{p}:{k}")
    a, b = _poly_of_degree(rng, spec, 6), _poly_of_degree(rng, spec, 3)
    c = spec.element_by_index(rng.randrange(1, spec.order))
    h = LaurentPoly(spec, -7, a.coeffs)
    g = LaurentPoly(spec, -2, b.coeffs)
    q = Quadruple(p, 2, 1, p - 1)
    f = Poly(spec, [c] + [spec.zero(), c] * ((p - 1) // 2))
    operations = [
        lambda: a * b, lambda: a * a, lambda: a**5, lambda: a + b, lambda: a - b,
        lambda: -a, lambda: a * c, lambda: 3 * a, lambda: a.divmod(b),
        lambda: a.gcd(b), lambda: _powmod(a, 11, b), lambda: a.derivative(),
        lambda: h * g, lambda: laurent_frobenius(h), lambda: cartier(h),
        lambda: ddc_check(q, f),
    ]
    if (p, k) != (3, 8):
        big = make_field(p, 2 if k == 1 else 8)
        operations.append(lambda: embed_poly(a, big))
    results = [op() for op in operations]
    value = a.evaluate(c)
    tree = search._PrunedSearch(q, spec, None)
    built, init = [], FieldElement.__init__

    def counted(self, spec, v):
        built.append(v)
        init(self, spec, v)

    monkeypatch.setattr(FieldElement, "__init__", counted)
    assert [op() for op in operations] == results
    assert built == []
    assert a.evaluate(c) == value and len(built) == 1
    built.clear()
    leaves = list(tree.leaves())
    assert leaves and built == []
