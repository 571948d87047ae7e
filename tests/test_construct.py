import time

import pytest

from ddcrit.cartier import Quadruple, ddc_check
from ddcrit.construct import construct_small, construct_trace, d9_witnesses
from ddcrit.criterion import (
    certify,
    criterion_exponents,
    isolation_check,
    power_sum_check,
    reconstruct_f,
)
from ddcrit.errors import ExtensionCapExceeded
from ddcrit.gf import is_prime, make_field
from ddcrit.poly import Poly
from ddcrit.search import first_witness
from reference import ord_mod, small_family_residues_reference, trace_to_prime


def test_small_p3():
    rd = construct_small(3, 2)
    assert [r.coeffs[0] for r in rd.reps] == [1]
    assert rd.residues == (2,)
    assert reconstruct_f(rd) == Poly.from_ints(make_field(3, 1), [2, 0, 1])


def test_small_empty():
    rd = construct_small(7, 0)
    assert rd.reps == () and rd.residues == ()


def test_small_p5():
    rd = construct_small(5, 4)
    assert [r.coeffs[0] for r in rd.reps] == [1, 2]
    assert certify(rd.quadruple, reconstruct_f(rd)).all_ok


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_small_sweep_isolated(p):
    for n1 in (p - 1, p - 3):
        rd = construct_small(p, n1)
        f = reconstruct_f(rd)
        _, isolated = isolation_check(rd, f)
        assert isolated
        cert = certify(rd.quadruple, f)
        assert cert.all_ok


def test_small_residues_match_gauss_jordan():
    """The closed-form Lagrange weights are the solution of the power-sum
    system by Gauss-Jordan, and none is 0, for every odd prime p < 100 and
    every N1 of the family."""
    for p in range(3, 100):
        if not is_prime(p):
            continue
        for n1 in (p - 1, p - 3, 0):
            residues = construct_small(p, n1).residues
            assert residues == small_family_residues_reference(p, n1), (p, n1)
            assert all(residues)


def test_small_rejects_other_degrees():
    with pytest.raises(ValueError):
        construct_small(7, 2)


def test_trace_321():
    rd = construct_trace(3, 2, 1)
    assert rd.splitting_degree == 1
    assert [r.coeffs[0] for r in rd.reps] == [1]
    assert rd.residues == (2,)
    # coincides with the small family
    small = construct_small(3, 2)
    assert rd.reps == small.reps and rd.residues == small.residues


def test_trace_521():
    rd = construct_trace(5, 2, 1)
    assert [r.coeffs[0] for r in rd.reps] == [1, 2]
    assert rd.residues == (4, 2)
    assert power_sum_check(rd)


def test_trace_325_not_isolated():
    rd = construct_trace(3, 2, 5)
    assert rd.splitting_degree == 4
    assert len(rd.reps) == 5
    assert power_sum_check(rd)
    det, isolated = isolation_check(rd, reconstruct_f(rd))
    assert not isolated and not det
    # the constant-reduced matrix has two identical rows (exponents 1, 11)
    exps = criterion_exponents(rd.quadruple)
    reduced = [[x ** (e - 1) for x in rd.reps] for e in exps]
    assert any(
        reduced[i] == reduced[j]
        for i in range(len(reduced))
        for j in range(i + 1, len(reduced))
    )


def test_trace_dichotomy_sweep():
    """Isolation holds exactly when u~ = (m-1) p^nu."""
    cases = [(3, 2, 1), (5, 2, 1), (5, 4, 3), (3, 2, 3), (5, 2, 5), (3, 2, 5)]
    for p, m, u_tilde in cases:
        rd = construct_trace(p, m, u_tilde)
        assert power_sum_check(rd)
        q = rd.quadruple
        expected = u_tilde == (m - 1) * p**q.nu
        _, isolated = isolation_check(rd, reconstruct_f(rd))
        assert isolated == expected, (p, m, u_tilde)


@pytest.mark.parametrize("p, m, u_tilde", [(3, 2, 5), (5, 4, 3), (7, 6, 5), (3, 2, 3)])
def test_trace_takes_one_trace_per_root_of_unity(monkeypatch, p, m, u_tilde):
    """Each of the M roots of unity gets one trace, taken on its stored
    value by ``gf.subfield_trace``, with no subfield test, in F_{p^D} for D
    the order of p mod M; the residues are those of the checked
    ``trace_to_prime`` of x^(-u) (tests/reference.py)."""
    from ddcrit import construct, gf

    calls = []
    def subfield_trace(ops, v, d):
        calls.append(d)
        return gf.subfield_trace(ops, v, d)

    monkeypatch.setattr(construct, "subfield_trace", subfield_trace)
    rd = construct_trace(p, m, u_tilde)
    q = rd.quadruple
    big_m = q.u * (p ** (q.nu + 1) - 1)
    assert calls == [q.nu + 1] * big_m
    # the field degree is the order of p mod M, which nu + 1 divides
    assert rd.splitting_degree == ord_mod(p, big_m)
    assert rd.splitting_degree % (q.nu + 1) == 0
    assert rd.residues == tuple(
        (-trace_to_prime(x ** (-q.u), q.nu + 1)).prime_int() for x in rd.reps
    )


def test_trace_reconstruct_satisfies_ddc():
    rd = construct_trace(5, 4, 3)
    f = reconstruct_f(rd)
    assert ddc_check(rd.quadruple, f)


def test_trace_degree_cap():
    """The cap error names the prime of the field it would need and the cap
    that its degree exceeds.  At u~ = 10^9 + 7, where 3 has an order mod
    M = 2 u~ far above the cap, the order search stops at the cap at once."""
    with pytest.raises(
        ExtensionCapExceeded,
        match=r"^trace family needs F_\{3\^D\} with D > 2 \(cap 2\)$",
    ):
        construct_trace(3, 2, 5, degree_cap=2)
    start = time.perf_counter()
    with pytest.raises(
        ExtensionCapExceeded,
        match=r"^trace family needs F_\{3\^D\} with D > 16 \(cap 16\)$",
    ):
        construct_trace(3, 2, 10**9 + 7)
    assert time.perf_counter() - start < 5


def test_d9_witnesses():
    certs = d9_witnesses()
    assert len(certs) == 4
    assert all(c.all_ok for c in certs)
    by_quad = {(c.quadruple.u_tilde, c.quadruple.n1): c for c in certs}
    f3 = make_field(3, 1)
    assert by_quad[(5, 8)].f == Poly.from_ints(f3, [1, 0, 0, 0, 0, 0, 1, 0, 1])
    assert by_quad[(5, 10)].f == Poly.from_ints(
        f3, [1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 2]
    )
    assert by_quad[(1, 0)].f == Poly.from_ints(f3, [2])
    assert by_quad[(1, 2)].f == Poly.from_ints(f3, [2, 0, 1])
    # N1 = 0 entry: empty isolation matrix counts as isolated
    assert by_quad[(1, 0)].isolated
    assert by_quad[(1, 0)].residue_data.reps == ()


@pytest.mark.parametrize("n1", [8, 10])
def test_d9_hardcoded_witnesses_are_the_first_isolated_witnesses(n1):
    """The hardcoded (3,2,5,N1) data of ``d9_residue_data`` rebuilds exactly
    the f that the search finds first with isolation required, and the two
    certificates agree field by field."""
    q = Quadruple(3, 2, 5, n1)
    (cert,) = [c for c in d9_witnesses() if c.quadruple == q]
    found = first_witness(q, 1, require_isolated=True)
    assert cert.f == found.f
    assert cert == found and cert.to_json() == found.to_json()
