"""Closed-form families of criterion witnesses: the small family
(N1 = p-1 or p-3 over the prime field), the trace family built from roots of
unity with trace conditions, and the four hardcoded dihedral witnesses.

The constructors build residue data and decide nothing about it:
``criterion.certify_data`` decides the criterion for it, and its flags say
whether the data is a witness.
"""

from __future__ import annotations

from .cartier import Quadruple
from .criterion import Certificate, ResidueData, certify_data
from .errors import ExtensionCapExceeded
from .gf import make_field, root_of_unity, subfield_trace
from .poly import mu_m_orbit_reps

DEFAULT_DEGREE_CAP = 16


def construct_small(p: int, n1: int) -> ResidueData:
    """Witness data for the quadruple (p, 2, 1, n1) with n1 in {p-1, p-3}
    (or 0): representatives x_j = j for j = 1..n1/2 and residues in closed
    form.

    The criterion exponents are e = 2i+1 for i < n1/2, so with b_j = a_j j
    and y_j = j^2 the power-sum system reads sum_j b_j y_j^i = [i = 0]/2, a
    Vandermonde system in the nodes y_j, which are distinct and nonzero.
    Its solution is b_j = L_j(0)/2 with the Lagrange weight
    L_j(0) = prod_{l != j} y_l/(y_l - y_j), so a_j = L_j(0)/(2j), never 0.
    Its certificate is ``all_ok``, isolation included."""
    q = Quadruple(p, 2, 1, n1)
    spec = make_field(p, 1)
    if n1 not in (p - 1, p - 3, 0):
        raise ValueError(f"N1 = {n1} must be p-1 or p-3 (or 0)")
    reps = range(1, n1 // 2 + 1)
    nodes = [j * j % p for j in reps]
    residues = []
    for j, y_j in zip(reps, nodes):
        num = den = 1
        for y in nodes:
            if y != y_j:
                num, den = num * y % p, den * (y - y_j) % p
        residues.append(num * pow(2 * j * den, -1, p) % p)
    return ResidueData(
        q, 1, tuple(spec.from_int(x) for x in reps), tuple(residues)
    )


def construct_trace(
    p: int, m: int, u_tilde: int, degree_cap: int = DEFAULT_DEGREE_CAP
) -> ResidueData:
    """Residue data for (p, m, u~, (p-1)u~) from roots of unity.

    Working in F_{p^D}, D the order of p mod M = u(p^(nu+1)-1), which nu+1
    divides (p has order nu+1 mod p^(nu+1)-1, a divisor of M): among the
    M-th roots of unity, discard the set S whose -u-th powers have zero
    trace to F_p, take mu_m orbit representatives of the rest, and set a_j =
    -Tr(x_j^-u).  |S| = u(p^nu - 1) leaves N1/m reps; ``certify_data`` needs
    no count, since ``reconstruct_f`` raises ReconstructionMismatch unless f
    has degree N1.  The power sums always hold, and the data is isolated
    exactly when u~ = (m-1) p^nu.  D is sought up to degree_cap only, so
    ExtensionCapExceeded names the cap, not D."""
    q = Quadruple(p, m, u_tilde, (p - 1) * u_tilde)
    big_m = q.u * (p ** (q.nu + 1) - 1)
    degree = next((d for d in range(1, degree_cap + 1) if pow(p, d, big_m) == 1), 0)
    if not degree:
        raise ExtensionCapExceeded(
            f"trace family needs F_{{{p}^D}} with D > {degree_cap} (cap {degree_cap})"
        )
    spec = make_field(p, degree)
    zeta = root_of_unity(spec, big_m)
    # x = zeta^i has x^(-u) = step^i, and step has order p^(nu+1) - 1, so
    # x^(-u) lies in F_{p^(nu+1)}: each trace is taken once, untested.  The
    # walk runs on stored values, keyed by the value of x
    ops = spec._ops
    mul, zero = ops.mul, ops.zero
    z, step = zeta.v, (zeta ** (-q.u)).v
    trace_of = {}
    x = y = ops.one
    for _ in range(big_m):
        trace_of[x] = subfield_trace(ops, y, q.nu + 1)
        x, y = mul(x, z), mul(y, step)
    kept = spec.from_values([x for x, trace in trace_of.items() if trace != zero])
    reps = mu_m_orbit_reps(kept, m, spec)
    residues = spec.from_values([ops.neg(trace_of[x.v]) for x in reps])
    return ResidueData(q, degree, tuple(reps), tuple(a.prime_int() for a in residues))


# mu_2 orbit reps, as coefficient vectors over the canonical F_{3^D}, and
# residues of the witnesses f = t^8 + t^6 + 1 (N1 = 8, D = 3) and
# f = 2t^10 + t^8 + t^6 + 1 (N1 = 10, D = 5) of (3, 2, 5, N1) over F_3
_D9_ROOTS = {
    8: (((0, 1, 1), (0, 1, 2), (1, 0, 0), (1, 0, 2)), (2, 1, 2, 1)),
    10: (
        ((0, 1, 0, 2, 0), (0, 1, 1, 0, 0), (0, 1, 2, 2, 0), (1, 0, 2, 1, 1),
         (1, 2, 0, 1, 1)),
        (1, 1, 2, 2, 1),
    ),
}


def d9_residue_data() -> list[ResidueData]:
    """Residue data of the four witnesses behind the dihedral group of
    order 18: quadruples (3,2,1,2), (3,2,1,0), (3,2,5,8), (3,2,5,10)."""
    out = [construct_small(3, n1) for n1 in (2, 0)]
    for n1, (reps, residues) in _D9_ROOTS.items():
        spec = make_field(3, len(reps[0]))
        reps = tuple(spec.element(c) for c in reps)
        out.append(ResidueData(Quadruple(3, 2, 5, n1), spec.k, reps, residues))
    return out


def d9_witnesses() -> list[Certificate]:
    """The certificates of ``d9_residue_data``; each is ``all_ok``."""
    return [certify_data(rd) for rd in d9_residue_data()]
