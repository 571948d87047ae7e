import random

import pytest

from ddcrit.cartier import Quadruple, cartier, ddc_check, validate_shape
from ddcrit.errors import (
    BadSupport,
    InvalidQuadruple,
    VanishesAtZero,
    WrongDegree,
    ZeroRoot,
)
from ddcrit.gf import make_field
from ddcrit.poly import LaurentPoly, Poly
from reference import dlog_truncated, is_exact, laurent_frobenius_reference

F3 = make_field(3, 1)
F9 = make_field(3, 2)


def form(spec, terms):
    return LaurentPoly.from_terms(spec, {e: spec.from_int(c) for e, c in terms.items()})


def random_form(rng, spec, nterms=4):
    terms = {}
    for _ in range(nterms):
        terms[rng.randint(-8, 8)] = spec.element_by_index(rng.randrange(spec.order))
    return LaurentPoly.from_terms(spec, terms)


class TestQuadruple:
    def test_derived_parts(self):
        q = Quadruple(3, 2, 5, 8)
        assert (q.u, q.nu) == (5, 0)
        q = Quadruple(5, 2, 75, 10)
        assert (q.u, q.nu) == (3, 2)

    @pytest.mark.parametrize(
        "args",
        [
            (4, 2, 1, 2),  # p not prime
            (2, 1, 1, 0),  # p even
            (3, 1, 1, 2),  # m = 1
            (3, 4, 3, 4),  # m does not divide p-1
            (3, 2, 2, 2),  # u~ not -1 mod m
            (3, 2, 1, 3),  # N1 not multiple of m
            (3, 2, 1, -2),  # N1 negative
        ],
    )
    def test_rejects(self, args):
        with pytest.raises(InvalidQuadruple):
            Quadruple(*args)


def test_cartier_normalization():
    assert cartier(form(F3, {2: 1})) == form(F3, {0: 1})  # t^{p-1} dt -> dt
    assert cartier(form(F3, {-1: 1})) == form(F3, {-1: 1})
    assert not cartier(form(F3, {1: 1}))


def test_cartier_takes_pth_roots():
    g = F9.element([0, 1])
    w = LaurentPoly.from_terms(F9, {2: g**3})
    assert cartier(w).term_dict() == {0: g}


def test_is_exact():
    assert is_exact(form(F3, {0: 1}))
    assert not is_exact(form(F3, {-1: 1}))
    # -4 = -1 mod 3, so t^-4 dt is NOT exact
    assert not is_exact(form(F3, {-4: 1}))
    assert is_exact(form(F3, {-3: 1, -5: 2}))


def test_exactness_matches_cartier_kernel():
    rng = random.Random(9)
    for _ in range(200):
        w = random_form(rng, F3)
        assert is_exact(w) == (not cartier(w))


def test_cartier_additive_and_semilinear():
    rng = random.Random(17)
    for _ in range(100):
        w1, w2 = random_form(rng, F9), random_form(rng, F9)
        assert cartier(w1) + cartier(w2) == cartier(w1 + w2)
        f = LaurentPoly.from_terms(
            F9, {rng.randint(-3, 3): F9.element_by_index(rng.randrange(1, 9))}
        )
        fp = laurent_frobenius_reference(f)  # f^p
        assert cartier(fp * w1) == f * cartier(w1)


def test_ddc_known_witnesses():
    assert ddc_check(Quadruple(3, 2, 5, 8), Poly.from_ints(F3, [1, 0, 0, 0, 0, 0, 1, 0, 1]))
    assert ddc_check(
        Quadruple(3, 2, 5, 10), Poly.from_ints(F3, [1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 2])
    )


def test_ddc_constants():
    q = Quadruple(3, 2, 1, 0)
    assert ddc_check(q, Poly.from_ints(F3, [2]))
    assert not ddc_check(q, Poly.from_ints(F3, [1]))


def test_ddc_negative():
    q = Quadruple(3, 2, 5, 8)
    assert not ddc_check(q, Poly.from_ints(F3, [1, 0, 0, 0, 0, 0, 0, 0, 1]))


def test_shape_errors():
    q = Quadruple(3, 2, 5, 8)
    with pytest.raises(BadSupport):
        validate_shape(q, Poly.from_ints(F3, [1, 1, 0, 0, 0, 0, 0, 0, 1]))
    with pytest.raises(WrongDegree):
        validate_shape(q, Poly.from_ints(F3, [1, 0, 1]))
    with pytest.raises(VanishesAtZero):
        validate_shape(q, Poly.from_ints(F3, [0, 0, 1, 0, 0, 0, 0, 0, 1]))


def test_dlog_truncated_power_sums():
    """The t^{-q-1} coefficient is sum_j a_j x_j^q."""
    x = F3.from_int(2)
    w = dlog_truncated([(x, 1)], 4)
    assert w.term_dict() == {
        -2: x,
        -3: x**2,
        -4: x**3,
        -5: x**4,
    }


def test_dlog_empty_and_zero_root():
    assert not dlog_truncated([], 3, F3)
    with pytest.raises(ZeroRoot):
        dlog_truncated([(F3.zero(), 1)], 3)


def test_dlog_cartier_fixed():
    """C fixes logarithmic forms: on the truncation window, applying C to a
    long dlog expansion reproduces the short one."""
    rng = random.Random(23)
    for _ in range(20):
        factors = [
            (F9.element_by_index(rng.randrange(1, 9)), rng.randint(1, 2))
            for _ in range(rng.randint(1, 3))
        ]
        trunc = 6
        long_form = dlog_truncated(factors, trunc * 3 + 2)
        short_form = dlog_truncated(factors, trunc)
        image = cartier(long_form)
        window = {
            e: c for e, c in image.terms() if e >= -(trunc + 1)
        }
        assert window == short_form.term_dict()
