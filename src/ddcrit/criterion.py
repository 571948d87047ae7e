"""Power-sum formulation of the differential data criterion: residue
extraction, the power-sum system, the isolation (Jacobian) determinant,
exact reconstruction of f from residue data, and certificate assembly.

``certify`` decides whether every residue lies in F_p, and whether the
power sums hold, from the coefficients of f over its own field; it builds
the splitting field only for data it prints.  ``certify_data`` certifies
constructed residue data: it checks the data's own reps against the
reconstructed f instead of searching for them, and runs ``ddc_check`` once.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import combinations

from .cartier import Quadruple, ddc_check, validate_shape
from .errors import (
    DdcritError,
    NonSquareSystem,
    NotAField,
    NotSquarefree,
    ReconstructionMismatch,
    ResidueNotPrimeField,
)
from .gf import FieldElement, FieldSpec, make_field, prime_factors
from .poly import (
    Poly,
    _mu_m_values,
    _powmod,
    embed,
    embed_poly,
    orbit_reps_in_splitting_field,
)


class ResidueData(
    namedtuple("ResidueData", "quadruple splitting_degree reps residues")
):
    """Orbit representatives x_j (in F_{p^D}) and residues a_j (in F_p^x,
    stored as ints) of omega = dt/(f t^(u~+1)) at the roots of f.

    Fields: ``quadruple: Quadruple``, ``splitting_degree: int`` (D),
    ``reps: tuple[FieldElement, ...]`` and ``residues: tuple[int, ...]``."""

    __slots__ = ()

    @property
    def field(self) -> FieldSpec:
        return make_field(self.quadruple.p, self.splitting_degree)


class Certificate(
    namedtuple(
        "Certificate",
        "quadruple field f residue_data ddc_ok power_sum_ok isolation_det isolated",
    )
):
    """The outcome of certifying f for a quadruple.

    Fields: ``quadruple: Quadruple``, ``field: FieldSpec`` (f's field),
    ``f: Poly``, ``residue_data: ResidueData | None``, ``ddc_ok: bool``,
    ``power_sum_ok: bool``, ``isolation_det: FieldElement | None`` and
    ``isolated: bool``."""

    __slots__ = ()

    @property
    def all_ok(self) -> bool:
        return self.ddc_ok and self.power_sum_ok and self.isolated

    def to_json(self) -> dict:
        rd = self.residue_data
        return {
            "quadruple": self.quadruple.to_json(),
            "field": self.field.to_json(),
            "f": self.f.to_json(),
            "splitting_degree": rd.splitting_degree if rd else None,
            "reps": [r.to_json() for r in rd.reps] if rd else [],
            "residues": list(rd.residues) if rd else [],
            "flags": {
                "ddc": self.ddc_ok,
                "power_sum": self.power_sum_ok,
                "isolated": self.isolated,
            },
            "isolation_det": self.isolation_det.to_json()
            if self.isolation_det is not None
            else None,
        }


def criterion_exponents(q: Quadruple) -> list[int]:
    """The q-range of the power-sum system: 1..N1+u~-1, = -1 mod m, prime
    to p, ascending."""
    return [
        e
        for e in range(1, q.n1 + q.u_tilde)
        if e % q.m == q.m - 1 and e % q.p != 0
    ]


def _residue_poly(q: Quadruple, big_f: Poly) -> Poly | None:
    """r = 1/(s c) mod F over the field F_q of f = F(s), s = t^m, where
    c = m s^w F'(s) mod F and w = (u~+1)/m, if every residue of
    omega = dt/(f t^(u~+1)) lies in F_p; else None.

    At a root x of f with y = x^m, x^(u~+1) f'(x) = c(y) x^(m-1), so the
    residue is a = 1/(c(y) x^(m-1)) and, with E = (m-1)(p-1)/m,
    a^(p-1) = 1/(c(y)^(p-1) y^E): every residue lies in F_p exactly when
    c^(p-1) s^E = 1 mod F.  Then r = c^(p-2) s^(E-1) and a = x r(y).  At a
    repeated root c vanishes, so a passing test means F is squarefree."""
    spec, p, m = big_f.spec, q.p, q.m
    w, e = (q.u_tilde + 1) // m, (m - 1) * (p - 1) // m
    if not big_f.degree:  # no roots: the ring F_q[s]/F is zero
        return Poly.zero(spec)

    def shift(a: Poly, n: int) -> Poly:  # a s^n
        return Poly._make(spec, 0, (spec._zero,) * n + a.values)

    c = shift(big_f.derivative() * m, w) % big_f
    r = shift(_powmod(c, p - 2, big_f), e - 1) % big_f
    if shift(r * c, 1) % big_f != Poly.one(spec):
        return None
    return r


def _series_inverse(spec: FieldSpec, coeffs, length: int) -> list:
    """The first ``length`` >= 1 coefficients of 1/C(s), C = sum_i
    coeffs[i] s^i with coeffs[0] != 0, stored values of spec, of which the
    first n = min(len(coeffs), length) count.  For their reversal R =
    s^(n-1) C(1/s), the quotient Q of s^(n+length-2) by R has s^(length-1)
    Q(1/s) C(s) = 1 mod s^length, so the inverse is Q read backwards (von
    zur Gathen-Gerhard, Modern Computer Algebra, 9.1)."""
    rev = Poly._make(spec, 0, coeffs[length - 1 :: -1])
    power = Poly.from_ints(spec, [0] * (len(rev.values) + length - 2) + [1])
    return list((power // rev).values[::-1])


def _checked_reps(q: Quadruple, big_f: Poly, known: ResidueData):
    """(K, reps) from the splitting degree K and reps of ``known`` if they
    are exactly what ``orbit_reps_in_splitting_field(f, m)`` returns for
    f = F(t^m), else None.

    The reps must lie in the canonical F_{p^K}, with k | K for f's field
    F_{p^k}, be deg F in number, ascend strictly and each be the least of
    its mu_m orbit, so the y_j = x_j^m are distinct (x_i^m = x_j^m puts
    x_i and x_j in one orbit), and give F(y_j) = 0.  Then F splits into
    distinct linear factors over F_{p^K}, the roots of f are the orbits
    x_j mu_m, and their field F_{p^D} (k | D) lies in F_{p^K}, so D | K;
    D = K since for each prime r | K/k some rep lies outside F_{p^(K/r)}.
    The check costs one evaluation of F per Frobenius orbit and one q-th
    power per y_j, where a search factors F and splits it over F_{p^K}."""
    p, m, k = q.p, q.m, big_f.spec.k
    degree, reps = known.splitting_degree, known.reps
    big = make_field(p, degree)
    if degree % k or len(reps) != big_f.degree or any(x.spec != big for x in reps):
        return None
    # the checks run on stored values, which sort as the elements do
    ops = big._ops
    mul, power, frobenius = ops.mul, ops.pow, ops.frobenius
    values = [x.v for x in reps]
    if any(a >= b for a, b in zip(values, values[1:])):
        return None
    mu_m = _mu_m_values(big, m)
    if any(mul(v, w) < v for v in values for w in mu_m):
        return None
    # F(y^q) = F(y)^q over F_q: one evaluation per orbit of y -> y^q, the
    # q-th power as k Frobenius steps
    seen = set()
    big_f = embed_poly(big_f, big)
    for v in values:
        y = power(v, m)
        if y in seen:
            continue
        if big_f.evaluate(big.from_values([y])[0]):
            return None
        while y not in seen:
            seen.add(y)
            for _ in range(k):
                y = frobenius(y)
    for r in prime_factors(degree // k):
        sub = p ** (degree // r)
        if all(power(v, sub) == v for v in values):
            return None
    return degree, reps


def residue_data(
    q: Quadruple, f: Poly, known: ResidueData | None = None
) -> ResidueData:
    """Extract splitting field, mu_m orbit representatives and residues
    a_j = 1/(x_j^(u~+1) f'(x_j)) of omega = dt/(f t^(u~+1)).

    The residues are first tested over f's own field (``_residue_poly``):
    if one falls outside F_p, this raises NotSquarefree when f has repeated
    roots and ResidueNotPrimeField otherwise (both mean f fails the
    criterion), and builds no splitting field.  The splitting degree and
    reps are those of ``known`` when they pass ``_checked_reps``, else
    ``orbit_reps_in_splitting_field``'s.  Then a_j = x_j r(y_j); NotAField
    if one of them is not in F_p, since the splitting field is then no
    field."""
    validate_shape(q, f)
    big_f = Poly._make(f.spec, 0, f.values[:: q.m])
    r = _residue_poly(q, big_f)
    if r is None:
        if not big_f.is_squarefree():
            raise NotSquarefree("f has repeated roots")
        raise ResidueNotPrimeField("residue outside the prime field")
    checked = known is not None and _checked_reps(q, big_f, known)
    degree, reps = checked or orbit_reps_in_splitting_field(f, q.m)
    big = make_field(q.p, degree)
    r = embed_poly(r, big)
    residues = []
    for x in reps:
        a = x * r.evaluate(x**q.m)
        if not a.in_prime_field():
            raise NotAField(f"F_{{{q.p}^{degree}}}: residue outside F_{q.p}")
        residues.append(a.prime_int())
    return ResidueData(q, degree, tuple(reps), tuple(residues))


def _power_sums_hold(q: Quadruple, f: Poly) -> bool:
    """``power_sum_check`` of the residue data of a squarefree f, over f's
    own field.  The form t^(e-u~-1) dt/f has no residue at infinity for
    e <= N1+u~-1, and the roots of one mu_m orbit contribute alike, so by
    the residue theorem m sum_j a_j x_j^e = -[t^(u~-e)] 1/f.  So the power
    sums hold iff [s^((u~-e)/m)] 1/F = -u [e = u] for every criterion
    exponent e <= u~; the larger ones have no pole at 0 and sum to 0."""
    exps = [e for e in criterion_exponents(q) if e <= q.u_tilde]
    if not exps:
        return True
    spec, m = f.spec, q.m
    inverse = _series_inverse(spec, f.values[::m], (q.u_tilde - exps[0]) // m + 1)
    target = spec._int_value(-q.u)
    return all(
        inverse[(q.u_tilde - e) // m] == (target if e == q.u else spec._zero)
        for e in exps
    )


def power_sum_check(rd: ResidueData) -> bool:
    """The definition of the power-sum condition: sum_j a_j x_j^e = u/m
    at e = u and 0 at every other criterion exponent e.  No library code
    calls it: ``certify`` decides the power sums from f
    (``_power_sums_hold``), and this is the test oracle for that flag."""
    q = rd.quadruple
    spec = rd.field
    target = spec.from_int(q.u) / spec.from_int(q.m)
    for e in criterion_exponents(q):
        total = spec.zero()
        for x, a in zip(rd.reps, rd.residues):
            total = total + x**e * a
        if total != (target if e == q.u else spec.zero()):
            return False
    return True


def isolation_check(rd: ResidueData, f: Poly):
    """The determinant of the Jacobian (e a_j x_j^(e-1)) of the power-sum
    system, rows over the ascending criterion exponents, and the isolation
    flag (nonzero determinant, or no reps): ``(det, isolated)``.  rd must
    be f's residue data.

    Each exponent has e - 1 = (m - 2) + m k_e, so with y_j = x_j^m the
    determinant is (prod e)(prod a_j)(prod x_j^(m-2)) det(y_j^(k_i)), and
    det(y_j^(k_i)) = V(y) s_lambda(y), V(y) = prod_{i<j} (y_j - y_i), with
    lambda the k_i - i sorted descending, zeros dropped.  Jacobi-Trudi gives
    s_lambda = det(h_(lambda_a - a + b)), sum h_k s^k = 1/prod_j (1 - y_j s)
    (Macdonald, Symmetric Functions and Hall Polynomials, I.3).  The y_j
    are the roots of F, f = F(t^m), so prod_j (1 - y_j s) is F reversed
    over its leading coefficient, and s_lambda is computed over f's own
    field and embedded once into the splitting field."""
    q = rd.quadruple
    spec = rd.field
    exps = criterion_exponents(q)
    n = len(rd.reps)
    if n == 0:
        return spec.one(), True
    if len(exps) != n:
        raise NonSquareSystem(
            f"power-sum system is not square for {q}: {len(exps)} exponents, "
            f"{n} orbit representatives"
        )
    m = q.m
    # (prod e)(prod a_j)(prod x_j^(m-2)) V(y) on stored values
    ops = spec._ops
    mul, sub = ops.mul, ops.sub
    values = [x.v for x in rd.reps]
    det = spec._int_value(math.prod(exps) * math.prod(rd.residues))
    if m > 2:
        for v in values:
            det = mul(det, ops.pow(v, m - 2))
    for z, y in combinations([ops.pow(v, m) for v in values], 2):
        det = mul(det, sub(y, z))
    det = spec.from_values([det])[0]
    lam = [k - i for i, k in enumerate((e + 1) // m - 1 for e in exps)]
    lam = [part for part in reversed(lam) if part]
    if lam:
        own, big_f = f.spec, f.values[::m]
        mul = own._ops.mul
        # h_k at index k + len(lam); the zeros before it are the h_k, k < 0
        h = own.from_values([own._zero] * len(lam) + [
            mul(big_f[-1], c)
            for c in _series_inverse(own, big_f[::-1], lam[0] + len(lam))
        ])
        matrix = [
            [h[part - a + b + len(lam)] for b in range(len(lam))]
            for a, part in enumerate(lam)
        ]
        det = det * embed(_det(matrix, own), spec)
    return det, bool(det)


def _det(matrix, spec: FieldSpec) -> FieldElement:
    m = [row[:] for row in matrix]
    n = len(m)
    det = spec.one()
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return spec.zero()
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det = det * m[col][col]
        inv = m[col][col].inverse()
        for r in range(col + 1, n):
            if m[r][col]:
                factor = m[r][col] * inv
                for c in range(col, n):
                    m[r][c] = m[r][c] - factor * m[col][c]
    return det


def reconstruct_f(rd: ResidueData) -> Poly:
    """Rebuild f from (reps, residues): form the logarithmic derivative of
    g = prod_{j,l} (1 - zeta_m^-l x_j t^-1)^(lift(zeta_m^-l a_j)), subtract
    u * sum_s t^(-u p^s - 1) dt, and invert eta = dt/(f t^(u~+1)).

    Over the field the lifts e_l = zeta^-l a of one mu_m orbit fold into
    one term: the residue of m a x^(m-1)/(t^m - x^m) at t = zeta^-l x is
    a zeta^(l(m-1)) = a zeta^-l, so
        sum_l e_l/(t - zeta^-l x) = m a x^(m-1)/(t^m - x^m),
    and the orbit's lifts sum to a * sum(mu_m) = 0 mod p. So with s = t^m
    and j over the reps with a_j != 0 mod p,
        dg/g = S(s)/P(s),  P(s) = prod_j (s - x_j^m),
        S(s) = sum_j m a_j x_j^(m-1) prod_{i != j} (s - x_i^m),
    with no 1/t term (the lifts' total vanishes), and
    eta t^(u~+1) = N/P(t^m) with N = t^(u~+1) S(t^m) - T P(t^m), T/t^(u~+1)
    the subtracted tail; f = P(t^m)/N.

    Only the lifts' values mod p enter, so the result is independent of the
    integer lifts chosen for the exponents; shape failures raise
    ReconstructionMismatch."""
    q = rd.quadruple
    spec = rd.field
    m = q.m
    # P, S and N as lists of stored values
    ops = spec._ops
    mul, add, sub, zero = ops.mul, ops.add, ops.sub, ops.zero
    # product rule over each y = x_j^m with weight w = m a_j x_j^(m-1):
    # (P, S) <- (P (s - y), S (s - y) + w P) keeps S/P = sum_j w_j/(s - y_j)
    big_p, big_s = [ops.one], []
    for x, a in zip(rd.reps, rd.residues):
        if a % q.p == 0:
            continue
        x_m1 = ops.pow(x.v, m - 1)
        y, w = mul(x_m1, x.v), mul(x_m1, spec._int_value(m * a))
        big_s = [
            add(sub(lo, mul(y, hi)), mul(w, c))
            for lo, hi, c in zip([zero, *big_s], [*big_s, zero], big_p)
        ]
        big_p = [sub(lo, mul(y, hi)) for lo, hi in zip([zero, *big_p], [*big_p, zero])]
    # N = t^(u~+1) S(t^m) - T P(t^m) by index arithmetic, where
    # u * sum_s t^(-u p^s - 1) = u * (sum_s t^(u~ - u p^s)) / t^(u~ + 1)
    # puts u at t^(u~ - u p^s) in T
    u = spec._int_value(q.u)
    coeffs = [zero] * (q.u_tilde + 1 + m * (len(big_p) - 1))
    for i, c in enumerate(big_s):
        coeffs[q.u_tilde + 1 + m * i] = c
    for s in range(q.nu + 1):
        e = q.u_tilde - q.u * q.p**s
        for i, c in enumerate(big_p):
            coeffs[e + m * i] = sub(coeffs[e + m * i], mul(c, u))
    p_of_t = [zero] * (m * (len(big_p) - 1) + 1)
    p_of_t[::m] = big_p
    f, rem = Poly._make(spec, 0, p_of_t).divmod(Poly._make(spec, 0, coeffs))
    if rem:
        raise ReconstructionMismatch("reconstructed f is not a polynomial")
    if spec.k > 1 and all(ops.frobenius(c) == c for c in f.values):
        # descend to the prime field so round trips are literal identities
        f = Poly.from_ints(make_field(q.p, 1), [spec._decode(c)[0] for c in f.values])
    try:
        ok = ddc_check(q, f)
    except DdcritError as exc:  # shape validation
        raise ReconstructionMismatch(f"reconstructed f has bad shape: {exc}") from exc
    if not ok:
        raise ReconstructionMismatch("reconstructed f fails the criterion")
    return f


def _certificate(
    q: Quadruple, f: Poly, ddc_ok: bool, known: ResidueData | None
) -> Certificate:
    """The certificate of f given its ddc flag, recording a failed criterion
    as flags; ``known`` is handed to ``residue_data``."""
    power_sum_ok = False
    det = None
    isolated = False
    try:
        rd = residue_data(q, f, known)
    except (NotSquarefree, ResidueNotPrimeField):
        rd = None
    if rd is not None:
        power_sum_ok = _power_sums_hold(q, f)
        det, isolated = isolation_check(rd, f)
    return Certificate(
        quadruple=q,
        field=f.spec,
        f=f,
        residue_data=rd,
        ddc_ok=ddc_ok,
        power_sum_ok=power_sum_ok,
        isolation_det=det,
        isolated=isolated,
    )


def certify(q: Quadruple, f: Poly) -> Certificate:
    """Run the full pipeline, recording flags rather than raising on
    criterion failure (shape errors still raise)."""
    return _certificate(q, f, ddc_check(q, f), None)


def certify_data(rd: ResidueData) -> Certificate:
    """``certify(rd.quadruple, reconstruct_f(rd))``, the same certificate
    with one ``ddc_check``: ``reconstruct_f`` raises ReconstructionMismatch
    unless its f passes it.  The reps of rd are checked against f and used
    when they pass (``_checked_reps``); the residues still come from f."""
    return _certificate(rd.quadruple, reconstruct_f(rd), True, rd)


def verify_certificate_json(data: dict) -> bool:
    """Re-run ``certify`` on the quadruple and f of a serialized
    certificate: True iff the new certificate serializes to exactly
    ``data``, so the field modulus, splitting degree, reps, residues,
    flags and isolation determinant are all checked."""
    qd = data["quadruple"]
    q = Quadruple(qd["p"], qd["m"], qd["u_tilde"], qd["n1"])
    spec = make_field(data["field"]["p"], data["field"]["k"])
    f = Poly(spec, [spec.element(c) for c in data["f"]])
    return certify(q, f).to_json() == data
