"""Integer and exact-rational bookkeeping: from a target group and jump
profile to the finite list of quadruples the criterion must realize, and the
critical/hub radii attached to each lifting step."""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from math import gcd

from .cartier import Quadruple, _group_error
from .errors import (
    BadCongruence,
    DdcritError,
    EssentialRamification,
    InconsistentRadii,
    InvalidProfile,
    InvalidQuadruple,
)
from .witt import JumpProfile


def _pair_json(x: tuple[int, int]) -> dict:
    return {"num": x[0], "den": x[1]}


def _fraction(pair: tuple[int, int]):
    """The Fraction num/den of an int pair; ``fractions`` is imported here,
    on first use, so that no command that only prints pairs loads it."""
    from fractions import Fraction

    return Fraction(*pair)


class RadiiReport(namedtuple("RadiiReport", "crit hub n n2 delta")):
    """The exact radii of one lifting step, each kept as its reduced
    (num, den) int pair with den > 0: ``crit``, ``hub`` and ``n`` for
    r_crit, r_hub and r_n, and ``delta`` for delta_hub = u_next*r_hub.
    ``r_crit``, ``r_hub``, ``r_n`` and ``delta_hub`` read them as
    Fractions.  Both consistency checks compare the pairs by
    cross-multiplication, and ``to_json`` renders them, so neither builds a
    Fraction.

    Fields: ``crit``, ``hub`` and ``n``, each a ``tuple[int, int]``,
    ``n2: int`` and ``delta: tuple[int, int]``."""

    __slots__ = ()

    def __new__(cls, crit, hub, n, n2, delta):
        self = super().__new__(cls, crit, hub, n, n2, delta)
        (cn, cd), (hn, hd), (nn, nd) = crit, hub, n
        if n2 > 0 and not (nn * hd < hn * nd and hn * cd < cn * hd):
            raise InconsistentRadii(
                f"r_n, r_hub, r_crit = {self.r_n}, {self.r_hub}, {self.r_crit} "
                "are not increasing"
            )
        if n2 <= 0 and hn != 0:
            raise InconsistentRadii(f"r_hub = {self.r_hub} with n2 = {n2}")
        return self

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    @property
    def r_crit(self):
        return _fraction(self.crit)

    @property
    def r_hub(self):
        return _fraction(self.hub)

    @property
    def r_n(self):
        return _fraction(self.n)

    @property
    def delta_hub(self):
        return _fraction(self.delta)

    def to_json(self):
        return {
            "r_crit": _pair_json(self.crit),
            "r_hub": _pair_json(self.hub),
            "r_n": _pair_json(self.n),
            "n2": self.n2,
            "delta_hub": _pair_json(self.delta),
        }


def quadruple_for_step(p: int, m: int, u_prev: int, u_next: int) -> Quadruple:
    """The quadruple attached to one step u_prev -> u_next of a reduced jump
    profile: N1 = (p-1)u_prev when u_next = p*u_prev, else (p-1)u_prev - m."""
    if u_prev % m != m - 1 or u_next % m != m - 1:
        raise BadCongruence("both jumps must be -1 mod m")
    if not p * u_prev <= u_next < p * u_prev + m * p:
        raise EssentialRamification(
            f"u_next = {u_next} outside [p*u_prev, p*u_prev + mp)"
        )
    n1 = (p - 1) * u_prev if u_next == p * u_prev else (p - 1) * u_prev - m
    return Quadruple(p, m, u_prev, n1)


# the most jump profiles a group may have; the largest catalog plan,
# Z/7^3 x| Z/3, has 294
MAX_PROFILES = 2**16


def _check_group(p: int, m: int, n: int, error: type[DdcritError]) -> None:
    """Raise error unless Z/p^n x| Z/m is a group the criterion covers: p an
    odd prime, 1 < m with m | p - 1, and n >= 1, with at most MAX_PROFILES
    jump profiles.  It has (p-1) p^(n-1) of them, fewer than twice as many
    quadruples, and p^16 alone exceeds MAX_PROFILES."""
    if group_error := _group_error(p, m):
        raise error(group_error)
    if n < 1:
        raise error(f"n = {n} must be at least 1")
    if (p - 1) * p ** min(n - 1, 16) > MAX_PROFILES:
        raise error(f"Z/{p}^{n} x| Z/{m} has more than {MAX_PROFILES} jump profiles")


def quadruples_for_group(p: int, m: int, n: int) -> list[Quadruple]:
    """All quadruples whose realization settles the group Z/p^n x| Z/m:
    u~ = -1 mod m, p^(n-1) does not divide u~, u~ < m(p^(n-1)+...+p), with
    both N1 = (p-1)u~ and (p-1)u~ - m.  Empty for n = 1."""
    _check_group(p, m, n, InvalidQuadruple)
    bound = m * sum(p**i for i in range(1, n))
    return [
        Quadruple(p, m, u_tilde, n1)
        for u_tilde in range(m - 1, bound, m)
        if u_tilde % p ** (n - 1)
        for n1 in ((p - 1) * u_tilde, (p - 1) * u_tilde - m)
    ]


def profiles_for_group(p: int, m: int, n: int) -> list[JumpProfile]:
    """All KGB-vanishing jump profiles of length n with no essential
    ramification: u_1 < mp, p*u_{i-1} <= u_i < p*u_{i-1} + mp, every u_i = -1
    mod m, and p | u_i only when u_i = p*u_{i-1}."""
    _check_group(p, m, n, InvalidProfile)
    profiles: list[tuple[int, ...]] = [()]
    for i in range(n):
        nxt = []
        for prof in profiles:
            lo = p * prof[-1] if prof else 0
            for u in range(lo, lo + m * p):
                if u % m != m - 1:
                    continue
                if u % p == 0 and u != lo:
                    continue
                if i == 0 and u % p == 0:
                    continue
                nxt.append(prof + (u,))
        profiles = nxt
    return [JumpProfile(prof).validate(p) for prof in profiles]


def lifting_radii(
    p: int, m: int, u_prev: int, u_next: int, n1: int
) -> RadiiReport:
    """Exact critical/hub radii for one lifting step."""
    q, report = step_radii(p, m, u_prev, u_next)
    if q.n1 != n1:
        raise InvalidQuadruple(
            f"N1 = {n1} inconsistent with the step rule (expected {q.n1})"
        )
    return report


def _reduced(num: int, den: int) -> tuple[int, int]:
    g = gcd(num, den)
    return num // g, den // g


def step_radii(
    p: int, m: int, u_prev: int, u_next: int
) -> tuple[Quadruple, RadiiReport]:
    """The quadruple of the lifting step u_prev -> u_next and its exact
    critical/hub radii, by their closed forms on ints.  With d = (p-1)u_prev:
    r_crit = 1/d and r_n = 1/((p-1)u_next).  N2 = u_next - u_prev - N1 is 0
    exactly when u_next = p*u_prev, and then r_hub = delta_hub = 0.
    Otherwise N1 = d - m, so r_hub = 1/N2 - N1/(d*N2) = m/(d*N2) and
    delta_hub = u_next*r_hub, each reduced by one gcd."""
    q = quadruple_for_step(p, m, u_prev, u_next)
    n2 = u_next - u_prev - q.n1
    d = (p - 1) * u_prev
    if n2 == 0:
        hub = delta = (0, 1)
    else:
        hub = _reduced(m, d * n2)
        delta = _reduced(u_next * m, d * n2)
    return q, RadiiReport((1, d), hub, (1, (p - 1) * u_next), n2, delta)


def profile_steps(
    p: int, m: int, profile: JumpProfile
) -> Iterator[tuple[int, Quadruple, RadiiReport]]:
    """(i, quadruple, radii) for each lifting step u_(i-1) -> u_i of the
    profile, i = 1 .. n-1 indexing ``profile.breaks``."""
    u = profile.breaks
    for i in range(1, len(u)):
        yield (i, *step_radii(p, m, u[i - 1], u[i]))
