"""Acceptance suite: the ten end-to-end criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the status lines.
Each test enforces its runtime budget where one is specified.
"""

import itertools
import random
import time
from fractions import Fraction

from ddcrit.cartier import Quadruple, cartier, ddc_check
from ddcrit.construct import construct_small, construct_trace
from ddcrit.criterion import (
    certify,
    criterion_exponents,
    isolation_check,
    power_sum_check,
    reconstruct_f,
    residue_data,
)
from ddcrit.errors import DdcritError
from ddcrit.gf import make_field
from ddcrit.poly import (
    LaurentPoly,
    Poly,
    embed_poly,
    mu_m_orbit_reps,
    roots_in_splitting_field,
)
from ddcrit.planner import lifting_radii, profiles_for_group, quadruple_for_step
from ddcrit.search import search_group
from ddcrit.witt import (
    WittVector,
    reduce_jumps,
    standard_form,
    upper_breaks,
    witt_add,
    wp,
)

from ghost_oracle import ghosts_agree
from reference import (
    binomial_det,
    dlog_truncated,
    elementary_symmetric_reference,
    is_exact,
    laurent_frobenius_reference,
)

F3 = make_field(3, 1)
F8 = Poly.from_ints(F3, [1, 0, 0, 0, 0, 0, 1, 0, 1])
F10 = Poly.from_ints(F3, [1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 2])


class _Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.name}: {status} ({elapsed:.2f}s)")
        if exc_type is None and self.seconds is not None:
            assert elapsed < self.seconds, (
                f"{self.name} exceeded its {self.seconds}s budget: {elapsed:.2f}s"
            )


def _squared_rep_poly(f):
    d, roots = roots_in_splitting_field(f)
    big = make_field(3, d)
    reps = mu_m_orbit_reps(roots, 2, big)
    es = elementary_symmetric_reference([r * r for r in reps])
    n = len(reps)
    coeffs = [es[n - i] * ((-1) ** (n - i)) for i in range(n + 1)]
    return big, Poly(big, coeffs)


def test_01_dihedral_witness_checks():
    """Both hardcoded witnesses certify fully; elementary-symmetric
    cross-checks reproduce the stated polynomials."""
    with _Budget("1 (witness checks)", 2 * 1.0):
        for q, f in [(Quadruple(3, 2, 5, 8), F8), (Quadruple(3, 2, 5, 10), F10)]:
            cert = certify(q, f)
            assert cert.ddc_ok and cert.power_sum_ok and cert.isolated
        big, prod8 = _squared_rep_poly(F8)
        assert prod8 == embed_poly(Poly.from_ints(F3, [1, 0, 0, 1, 1]), big)
        big, prod10 = _squared_rep_poly(F10)
        assert prod10 == embed_poly(Poly.from_ints(F3, [2, 0, 0, 2, 2, 1]), big)


def test_02_dihedral_pipeline():
    """plan (3,2,2) yields the four quadruples and six profiles; search
    certifies all four with isolation over F_3."""
    with _Budget("2 (group pipeline)", 10.0):
        from ddcrit.planner import quadruples_for_group

        quads = quadruples_for_group(3, 2, 2)
        assert {(q.u_tilde, q.n1) for q in quads} == {
            (1, 2), (1, 0), (5, 10), (5, 8)
        }
        profiles = [p.breaks for p in profiles_for_group(3, 2, 2)]
        assert profiles == [(1, 3), (1, 5), (1, 7), (5, 15), (5, 17), (5, 19)]
        result = search_group(3, 2, 2, 1, require_isolated=True)
        assert result.complete
        assert all(c.all_ok for c in result.results.values())


def test_03_small_family_sweep():
    with _Budget("3 (small family sweep)", 5.0):
        for p in (3, 5, 7, 11, 13):
            for n1 in (p - 1, p - 3):
                rd = construct_small(p, n1)
                cert = certify(rd.quadruple, reconstruct_f(rd))
                assert cert.all_ok, (p, n1)


def test_04_trace_family_dichotomy():
    """power_sum always passes; isolation passes exactly at
    u~ = (m-1) p^nu, and otherwise the constant-reduced matrix has two
    equal rows."""
    with _Budget("4 (trace dichotomy)", 30.0):
        cases = []
        for p in (3, 5, 7):
            for m in (d for d in range(2, p) if (p - 1) % d == 0):
                for u_tilde in range(m - 1, 4 * m, m):
                    cases.append((p, m, u_tilde))
        checked = 0
        for p, m, u_tilde in cases:
            try:
                rd = construct_trace(p, m, u_tilde, degree_cap=8)
            except Exception:
                continue  # needs a larger field than the sweep allows
            assert power_sum_check(rd), (p, m, u_tilde)
            q = rd.quadruple
            assert len(rd.reps) * m == q.n1, (p, m, u_tilde)
            _, isolated = isolation_check(rd, reconstruct_f(rd))
            expected = u_tilde == (m - 1) * p**q.nu
            assert isolated == expected, (p, m, u_tilde)
            if not expected:
                exps = criterion_exponents(q)
                reduced = [[x ** (e - 1) for x in rd.reps] for e in exps]
                assert any(
                    reduced[i] == reduced[j]
                    for i in range(len(reduced))
                    for j in range(i + 1, len(reduced))
                ), (p, m, u_tilde)
            checked += 1
        # the named instances must all be in the sweep
        assert checked >= 8
        for p, m, u in [(3, 2, 1), (5, 2, 1), (5, 4, 3)]:
            rd = construct_trace(p, m, u)
            _, iso = isolation_check(rd, reconstruct_f(rd))
            assert iso
        rd = construct_trace(3, 2, 5)
        _, iso = isolation_check(rd, reconstruct_f(rd))
        assert not iso


def test_05_equivalence_oracle():
    """ddc_check agrees with the residue pipeline (squarefree, prime-field
    residues, power sums, and f equal to its own reconstruction) on every
    shape-valid f for three quadruples over F_3.

    The reconstruction equality is what carries the n1 = 0 case: there the
    power-sum system is empty, yet the criterion still pins the constant."""
    with _Budget("5 (equivalence oracle)", None):
        disagreements = 0
        for q in [Quadruple(3, 2, 1, 2), Quadruple(3, 2, 1, 0), Quadruple(3, 2, 5, 8)]:
            ncoeff = q.n1 // q.m + 1
            for digits in itertools.product(range(3), repeat=ncoeff):
                if digits[0] == 0 or digits[-1] == 0:
                    continue
                coeffs = [0] * (q.n1 + 1)
                for i, d in enumerate(digits):
                    coeffs[i * q.m] = d
                f = Poly.from_ints(F3, coeffs)
                direct = ddc_check(q, f)
                try:
                    rd = residue_data(q, f)
                    pipeline = power_sum_check(rd) and reconstruct_f(rd) == f
                except DdcritError:
                    pipeline = False
                if direct != pipeline:
                    disagreements += 1
        assert disagreements == 0


def test_06_jump_reduction_example():
    with _Budget("6 (jump reduction)", None):
        reduced = reduce_jumps([11, 79, 433, 2165], 5, 2)
        assert reduced == [1, 9, 53, 265]
        assert reduce_jumps(reduced, 5, 2) == reduced


def test_07_witt_suite():
    with _Budget("7 (witt suite)", 60.0):
        rng = random.Random(2024)

        def rand_vec(spec, n, max_terms=2):
            entries = []
            for _ in range(n):
                terms = {
                    rng.randint(-4, 0): spec.element_by_index(
                        rng.randrange(1, spec.order)
                    )
                    for _ in range(rng.randint(0, max_terms))
                }
                entries.append(LaurentPoly.from_terms(spec, terms))
            return WittVector(spec, tuple(entries))

        # (a) ghost oracle on 500 random additions
        for _ in range(500):
            p = rng.choice([3, 5])
            spec = make_field(p, 1)
            n = rng.randint(1, 3)
            v, w = rand_vec(spec, n), rand_vec(spec, n)
            assert ghosts_agree(v, w, witt_add(v, w), p, list(spec.modulus))

        # (b) break invariance for 200 random (v, g)
        spec = F3
        done = 0
        while done < 200:
            n = rng.randint(1, 2)
            v = rand_vec(spec, n)
            if not v.entries[0]:
                continue
            g = rand_vec(spec, n, max_terms=1)
            base = standard_form(v, extension_cap=81)
            shifted = standard_form(witt_add(v, wp(g)), extension_cap=81)
            if not base.vector.entries[0]:
                assert not shifted.vector.entries[0]
                continue
            assert (
                upper_breaks(base.vector).breaks
                == upper_breaks(shifted.vector).breaks
            )
            done += 1

        # (c) profile invariants on standard-form samples
        for _ in range(50):
            v = rand_vec(F3, rng.randint(1, 3))
            res = standard_form(v, extension_cap=81)
            if not res.vector.entries[0]:
                continue
            upper_breaks(res.vector).validate(3)

        # (d) (a, 0) + (0, b) = (a, b)
        for _ in range(50):
            p = rng.choice([3, 5])
            spec = make_field(p, 1)
            n = rng.randint(2, 3)
            a = rand_vec(spec, 1).entries[0]
            b = rand_vec(spec, 1).entries[0]
            z = LaurentPoly.zero(spec)
            s = witt_add(
                WittVector(spec, (a,) + (z,) * (n - 1)),
                WittVector(spec, (z, b) + (z,) * (n - 2)),
            )
            assert s.entries[0] == a and s.entries[1] == b
            assert not any(s.entries[2:])
        # and in general (x_0..x_{i-1}, 0, ...) + V^i[y] = (x_0..x_{i-1}, y,
        # 0, ...) at level 3, which assembles the standard-form adjustment
        for spec in (F3, make_field(5, 1), make_field(3, 2)):
            z = LaurentPoly.zero(spec)
            for i in (1, 2):
                for _ in range(10):
                    lower = (z,)
                    while not all(lower):
                        lower = rand_vec(spec, i).entries
                    y = rand_vec(spec, 1).entries[0]
                    s = witt_add(
                        WittVector(spec, lower + (z,) * (3 - i)),
                        WittVector(spec, (z,) * i + (y,) + (z,) * (2 - i)),
                    )
                    assert s.entries == lower + (y,) + (z,) * (2 - i)


def test_08_cartier_property_suite():
    with _Budget("8 (cartier properties)", 5.0):
        rng = random.Random(77)
        spec = make_field(3, 2)

        def rand_form():
            terms = {
                rng.randint(-8, 8): spec.element_by_index(rng.randrange(9))
                for _ in range(rng.randint(0, 5))
            }
            return LaurentPoly.from_terms(spec, terms)

        for _ in range(1000):
            w1, w2 = rand_form(), rand_form()
            assert cartier(w1 + w2) == cartier(w1) + cartier(w2)
            assert is_exact(w1) == (not cartier(w1))
            f = LaurentPoly.from_terms(
                spec, {rng.randint(-2, 2): spec.element_by_index(rng.randrange(1, 9))}
            )
            assert cartier(laurent_frobenius_reference(f) * w1) == f * cartier(w1)
        # C-fixedness of dlog truncations
        for _ in range(25):
            factors = [
                (spec.element_by_index(rng.randrange(1, 9)), rng.randint(1, 2))
                for _ in range(rng.randint(1, 3))
            ]
            trunc = 5
            image = cartier(dlog_truncated(factors, 3 * trunc + 2))
            short = dlog_truncated(factors, trunc)
            window = {e: c for e, c in image.terms() if e >= -(trunc + 1)}
            assert window == short.term_dict()


def test_09_radii_identities():
    with _Budget("9 (radii identities)", None):
        for p, m, n in [(3, 2, 2), (5, 2, 2)]:
            for prof in profiles_for_group(p, m, n):
                prev = prof.breaks[0]
                for u in prof.breaks[1:]:
                    q = quadruple_for_step(p, m, prev, u)
                    r = lifting_radii(p, m, prev, u, q.n1)
                    lhs = (q.n1 + r.n2 + prev) * r.r_hub + (q.n1 + prev) * (
                        r.r_crit - r.r_hub
                    )
                    assert lhs == Fraction(p, p - 1)
                    if r.n2 > 0:
                        assert r.r_n < r.r_hub < r.r_crit
                    prev = u


def test_10_determinant_oracle():
    with _Budget("10 (determinant oracle)", None):
        for size in range(1, 5):
            for b in itertools.combinations(range(30, 0, -1), size):
                direct, formula = binomial_det(list(b))
                assert direct == formula, b
