from fractions import Fraction

import pytest

from ddcrit.errors import (
    BadCongruence,
    EssentialRamification,
    InconsistentRadii,
    InvalidProfile,
    InvalidQuadruple,
)
from ddcrit.planner import (
    RadiiReport,
    lifting_radii,
    profile_steps,
    profiles_for_group,
    quadruple_for_step,
    quadruples_for_group,
    step_radii,
)
from reference import step_radii_reference


def quad_tuple(q):
    return (q.p, q.m, q.u_tilde, q.n1)


def test_step_rule():
    assert quad_tuple(quadruple_for_step(3, 2, 1, 3)) == (3, 2, 1, 2)
    assert quad_tuple(quadruple_for_step(3, 2, 1, 5)) == (3, 2, 1, 0)
    assert quad_tuple(quadruple_for_step(3, 2, 5, 15)) == (3, 2, 5, 10)
    assert quad_tuple(quadruple_for_step(3, 2, 5, 17)) == (3, 2, 5, 8)


def test_step_errors():
    with pytest.raises(EssentialRamification):
        quadruple_for_step(3, 2, 1, 9)
    with pytest.raises(EssentialRamification):
        quadruple_for_step(3, 2, 5, 13)
    with pytest.raises(BadCongruence):
        quadruple_for_step(3, 2, 1, 4)


def test_quadruples_d9():
    got = [quad_tuple(q) for q in quadruples_for_group(3, 2, 2)]
    assert set(got) == {
        (3, 2, 1, 2),
        (3, 2, 1, 0),
        (3, 2, 5, 10),
        (3, 2, 5, 8),
    }
    assert len(got) == 4


def test_quadruples_base_case_empty():
    assert quadruples_for_group(3, 2, 1) == []
    assert quadruples_for_group(7, 2, 1) == []


def test_quadruples_522():
    got = [quad_tuple(q) for q in quadruples_for_group(5, 2, 2)]
    assert len(got) == 8
    assert {q[2] for q in got} == {1, 3, 7, 9}


def test_profiles_d9():
    got = [p.breaks for p in profiles_for_group(3, 2, 2)]
    assert got == [(1, 3), (1, 5), (1, 7), (5, 15), (5, 17), (5, 19)]


def test_profiles_length1():
    assert [p.breaks for p in profiles_for_group(3, 2, 1)] == [(1,), (5,)]


@pytest.mark.parametrize("p, m, n", [
    (4, 3, 1), (9, 2, 1), (3, 5, 1), (2, 1, 1), (3, 1, 2), (3, 2, 0), (3, 2, -1),
])
def test_invalid_groups_are_rejected_for_every_n(p, m, n):
    with pytest.raises(InvalidQuadruple):
        quadruples_for_group(p, m, n)
    with pytest.raises(InvalidProfile):
        profiles_for_group(p, m, n)


# (p, m, n): profiles, listed quadruples, quadruples that profile steps reach
PLANNER_COUNTS = {
    (3, 2, 2): (6, 4, 4), (5, 2, 2): (20, 8, 8), (7, 2, 2): (42, 12, 12),
    (5, 4, 2): (20, 8, 8), (3, 2, 3): (18, 22, 14), (5, 2, 3): (100, 58, 44),
    (5, 4, 3): (100, 58, 46), (7, 3, 3): (294, 110, 92), (3, 2, 4): (54, 76, 44),
}


def test_profiles_map_into_quadruple_list():
    """``quadruples_for_group`` and the profile steps answer one question
    twice: every quadruple a step reaches is listed, with the counts of
    both pinned; for n >= 3 the list holds quadruples no step reaches."""
    for (p, m, n), counts in PLANNER_COUNTS.items():
        listed = [quad_tuple(q) for q in quadruples_for_group(p, m, n)]
        quads = set(listed)
        assert len(quads) == len(listed), "quadruples_for_group repeats one"
        profiles = profiles_for_group(p, m, n)
        stepped = {
            quad_tuple(quadruple_for_step(p, m, prev, u))
            for prof in profiles
            for prev, u in zip(prof.breaks, prof.breaks[1:])
        }
        assert stepped <= quads
        assert (len(profiles), len(quads), len(stepped)) == counts, (p, m, n)
        if (p, m, n) == (3, 2, 3):  # D_27: the listed u~ no step reaches
            assert {q[2] for q in quads - stepped} == {11, 13, 21, 23}


def test_profile_steps_walk_consecutive_breaks():
    for p, m, n in [(3, 2, 1), (3, 2, 3), (5, 4, 2)]:
        for prof in profiles_for_group(p, m, n):
            u = prof.breaks
            expected = []
            for i in range(1, n):
                q = quadruple_for_step(p, m, u[i - 1], u[i])
                expected.append((i, q, lifting_radii(p, m, u[i - 1], u[i], q.n1)))
            assert list(profile_steps(p, m, prof)) == expected


def test_radii_example():
    r = lifting_radii(3, 2, 5, 17, 8)
    assert r.n2 == 4
    assert r.r_crit == Fraction(1, 10)
    assert r.r_hub == Fraction(1, 20)
    assert r.r_n == Fraction(1, 34)
    assert r.delta_hub == Fraction(17, 20)


def test_radii_hub_zero_on_equal_jump():
    r = lifting_radii(3, 2, 5, 15, 10)
    assert r.n2 == 0 and r.r_hub == 0 and r.delta_hub == 0


def test_radii_inconsistent_n1():
    with pytest.raises(InvalidQuadruple):
        lifting_radii(3, 2, 5, 17, 10)


def _steps(p, m, n):
    for prof in profiles_for_group(p, m, n):
        prev = prof.breaks[0]
        for u in prof.breaks[1:]:
            q = quadruple_for_step(p, m, prev, u)
            yield p, m, prev, u, q.n1
            prev = u


@pytest.mark.parametrize("group", [(3, 2, 2), (5, 2, 2), (5, 4, 2), (3, 2, 3)])
def test_radii_linearity_identity(group):
    """(N1+N2+u_prev) r_hub + (N1+u_prev)(r_crit - r_hub) = p/(p-1)."""
    for p, m, u_prev, u_next, n1 in _steps(*group):
        r = lifting_radii(p, m, u_prev, u_next, n1)
        lhs = (n1 + r.n2 + u_prev) * r.r_hub + (n1 + u_prev) * (
            r.r_crit - r.r_hub
        )
        assert lhs == Fraction(p, p - 1)
        if r.n2 > 0:
            assert r.r_n < r.r_hub < r.r_crit
        assert r.n2 <= 2 * m * p - 2 * m
        assert (r.n2 == 0) == (u_next == p * u_prev)


def test_radii_report_rejects_inconsistent_radii():
    half, third, quarter = (1, 2), (1, 3), (1, 4)
    with pytest.raises(InconsistentRadii):  # r_hub above r_crit
        RadiiReport(crit=third, hub=half, n=quarter, n2=1, delta=half)
    with pytest.raises(InconsistentRadii):  # r_hub nonzero with n2 = 0
        RadiiReport(crit=half, hub=third, n=quarter, n2=0, delta=half)
    with pytest.raises(InconsistentRadii):  # r_n above r_hub
        RadiiReport(crit=half, hub=quarter, n=third, n2=1, delta=half)
    RadiiReport(crit=half, hub=third, n=quarter, n2=1, delta=half)


def _small_groups(max_profiles):
    """Every group Z/p^n x| Z/m with p <= 13, 1 < m | p - 1, n >= 2 and at
    most max_profiles jump profiles, (p-1) p^(n-1) of them."""
    for p in (3, 5, 7, 11, 13):
        for m in range(2, p):
            if (p - 1) % m == 0:
                n = 2
                while (p - 1) * p ** (n - 1) <= max_profiles:
                    yield p, m, n
                    n += 1


def test_step_radii_matches_the_fraction_reference():
    """The closed forms on int pairs equal the Fraction formula on every
    lifting step of every small group, read as Fractions and as JSON."""
    groups = list(_small_groups(2000))
    assert max(n for p, _, n in groups if p == 3) == 7
    assert {p: max(n for q, _, n in groups if q == p) for p in (5, 7, 11, 13)} == {
        5: 4, 7: 3, 11: 3, 13: 2
    }
    for p, m, n in groups:
        steps = {
            prof.breaks[i - 1 : i + 1]
            for prof in profiles_for_group(p, m, n)
            for i in range(1, n)
        }
        for u_prev, u_next in steps:
            _, report = step_radii(p, m, u_prev, u_next)
            expected = step_radii_reference(p, m, u_prev, u_next)
            got = {key: getattr(report, key) for key in expected}
            assert got == expected, (p, m, u_prev, u_next)
            assert report.to_json() == {
                key: value if key == "n2"
                else {"num": value.numerator, "den": value.denominator}
                for key, value in expected.items()
            }
