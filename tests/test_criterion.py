import itertools
import json
import random

import pytest

import ddcrit.criterion
from ddcrit.cartier import Quadruple, ddc_check
from ddcrit.construct import (
    construct_small,
    construct_trace,
    d9_residue_data,
    d9_witnesses,
)
from ddcrit.criterion import (
    ResidueData,
    _series_inverse,
    certify,
    certify_data,
    criterion_exponents,
    isolation_check,
    power_sum_check,
    reconstruct_f,
    residue_data,
    verify_certificate_json,
)
from ddcrit.errors import (
    ExtensionCapExceeded,
    NonSquareSystem,
    NotAField,
    NotSquarefree,
    ReconstructionMismatch,
    ResidueNotPrimeField,
    WrongDegree,
)
from ddcrit.gf import FieldElement, is_prime, make_field
from ddcrit.poly import Poly, root_of_unity
from reference import (
    RationalFunction,
    binomial_det,
    checked_reps_reference,
    construct_trace_reference,
    evaluate_reference,
    field_elimination_reference,
    isolation_det_reference,
    mu_m_orbit_reps_reference,
    reconstruct_f_reference,
    series_inverse_reference,
)

F3 = make_field(3, 1)

Q_T2 = Quadruple(3, 2, 1, 2)
Q_CONST = Quadruple(3, 2, 1, 0)
Q_F8 = Quadruple(3, 2, 5, 8)
F_T2 = Poly.from_ints(F3, [2, 0, 1])
F8 = Poly.from_ints(F3, [1, 0, 0, 0, 0, 0, 1, 0, 1])
F10 = Poly.from_ints(F3, [1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 2])


@pytest.mark.parametrize("p, k", [(3, 1), (13, 1), (3, 2), (3, 8)])
def test_series_inverse_matches_the_recurrence(p, k):
    """The reversed quotient of ``_series_inverse``, on stored values,
    against the recurrence of tests/reference.py on elements, for every
    length from 1 to three past the coefficient list, on lists with and
    without trailing zeros."""
    spec = make_field(p, k)
    rng = random.Random(f"series:{p}:{k}")
    zero = spec.zero()
    lists = [[spec.one()], [spec.from_int(2), zero, zero]]
    for n in (2, 5, 9):
        c = [spec.element_by_index(rng.randrange(spec.order)) for _ in range(n)]
        c[0] = c[0] or spec.one()
        lists += [c, c + [zero] * 2]
    for coeffs in lists:
        for length in range(1, len(coeffs) + 4):
            got = spec.from_values(_series_inverse(spec, [c.v for c in coeffs], length))
            assert got == series_inverse_reference(coeffs, length)


def test_exponent_range():
    assert criterion_exponents(Q_T2) == [1]
    assert criterion_exponents(Q_CONST) == []
    assert criterion_exponents(Q_F8) == [1, 5, 7, 11]


def test_residue_data_t2():
    rd = residue_data(Q_T2, F_T2)
    assert rd.splitting_degree == 1
    assert [r.coeffs[0] for r in rd.reps] == [1]
    assert rd.residues == (2,)


def test_residue_data_f8():
    rd = residue_data(Q_F8, F8)
    assert len(rd.reps) == 4
    assert all(a in (1, 2) for a in rd.residues)


def test_residue_data_constant():
    rd = residue_data(Q_CONST, Poly.from_ints(F3, [2]))
    assert rd.reps == () and rd.residues == ()


def test_residue_data_rejects_repeated_roots():
    q = Quadruple(3, 2, 1, 4)
    # (t^2+1)^2 = t^4 + 2t^2 + 1 has repeated roots
    with pytest.raises(NotSquarefree):
        residue_data(q, Poly.from_ints(F3, [1, 0, 2, 0, 1]))


def test_residue_outside_prime_field():
    # t^2 + 1 over F_3: roots +-i in F_9, residue 1/(x^2 f'(x)) = 1/(2x^3)
    # is not fixed by Frobenius
    with pytest.raises(ResidueNotPrimeField):
        residue_data(Q_T2, Poly.from_ints(F3, [1, 0, 1]))


def test_power_sum_values():
    rd = residue_data(Q_T2, F_T2)
    assert power_sum_check(rd)
    rd8 = residue_data(Q_F8, F8)
    assert power_sum_check(rd8)
    # spot-check the actual sums: q=5 gives u/m = 5/2 = 1, others 0
    spec = rd8.field
    sums = {}
    for e in criterion_exponents(Q_F8):
        total = spec.zero()
        for x, a in zip(rd8.reps, rd8.residues):
            total = total + x**e * a
        sums[e] = total
    assert sums[5] == spec.one()
    assert all(not sums[e] for e in (1, 7, 11))


def test_power_sum_pq_invariance():
    """Replacing q by pq raises both sides to the p-th power, so the p*q
    power sum is the p-th power of the q one."""
    rd = residue_data(Q_F8, F8)
    spec = rd.field

    def psum(e):
        total = spec.zero()
        for x, a in zip(rd.reps, rd.residues):
            total = total + x**e * a
        return total

    for q in criterion_exponents(Q_F8):
        assert psum(3 * q) == psum(q) ** 3


def test_isolation_t2():
    rd = residue_data(Q_T2, F_T2)
    det, isolated = isolation_check(rd, F_T2)
    matrix, reference_det = isolation_det_reference(rd)
    assert len(matrix) == 1
    assert matrix[0][0].coeffs[0] == 2
    assert det.coeffs[0] == 2 and det == reference_det
    assert isolated


def test_isolation_empty():
    """N1 = 0 has no orbit representatives, so its isolation matrix is
    empty, also where the criterion range is not: (3,2,5,0) has the one
    exponent 1. An empty matrix counts as isolated, with determinant 1; it
    is not a square check that fails."""
    q_wide = Quadruple(3, 2, 5, 0)
    assert criterion_exponents(q_wide) == [1]
    f = Poly.from_ints(F3, [2])
    for q in (Q_CONST, q_wide):
        rd = residue_data(q, f)
        assert isolation_check(rd, f) == (F3.one(), True)


def test_isolation_rejects_non_square_system():
    """N1 = 2 for u~ = 5 gives one orbit representative but four criterion
    exponents."""
    q = Quadruple(3, 2, 5, 2)
    f = Poly.from_ints(F3, [1, 0, 2])
    rd = residue_data(q, f)
    with pytest.raises(NonSquareSystem):
        isolation_check(rd, f)


def test_isolation_constant_reduction():
    """det(q a_j x^(q-1)) vanishes iff det(x^(q-1)) does, since the q and
    a_j are units of F_p."""
    rd = residue_data(Q_F8, F8)
    exps = criterion_exponents(Q_F8)
    reduced = [[x ** (e - 1) for x in rd.reps] for e in exps]
    full_det, _ = isolation_check(rd, F8)
    assert bool(full_det) == bool(field_elimination_reference(reduced)[1])


def test_reconstruct_roundtrip():
    for q, f in [(Q_T2, F_T2), (Q_F8, F8), (Quadruple(3, 2, 5, 10), F10)]:
        rd = residue_data(q, f)
        assert reconstruct_f(rd) == f


def _golden_check_witnesses():
    """The residue data of every golden ``check`` case that exits 0, over
    its ``--field-degree`` field."""
    from ddcrit.cli import parse_poly
    from test_golden import CASES

    out = []
    for case in CASES:
        argv = case["argv"]
        if argv[0] != "check" or case["exit_code"] != 0:
            continue
        opt = dict(zip(argv[1::2], argv[2::2]))
        q = Quadruple(*(int(opt[k]) for k in ("--p", "--m", "--u", "--n1")))
        f = parse_poly(make_field(q.p, int(opt.get("--field-degree", 1))), opt["--f"])
        out.append(residue_data(q, f))
    assert out
    return out


def _residue_data_sets():
    """Every residue-data set the construction tests build, the trace
    family at m > 2 and above the table bound (F_{5^6}, F_{3^16}), and the
    golden check witnesses."""
    out = [construct_small(7, 0)]
    for p in (3, 5, 7, 11, 13):
        out += [construct_small(p, p - 1), construct_small(p, p - 3)]
    trace_cases = [
        (3, 2, 1), (5, 2, 1), (5, 4, 3), (3, 2, 3), (5, 2, 5), (3, 2, 5),
        (5, 4, 7), (5, 4, 11), (7, 3, 2), (7, 6, 5), (11, 5, 4), (3, 2, 13),
        (3, 2, 17),
    ]
    out += [construct_trace(p, m, u_tilde) for p, m, u_tilde in trace_cases]
    out += [cert.residue_data for cert in d9_witnesses()]
    return out + _golden_check_witnesses()


def test_reconstruct_matches_rational_function_oracle():
    """The known-denominator reconstruction returns the f of the reference
    that sums reduced RationalFunctions."""
    for rd in _residue_data_sets():
        assert reconstruct_f(rd) == reconstruct_f_reference(rd), rd.quadruple


def _mismatch(reconstruct, rd) -> str:
    with pytest.raises(ReconstructionMismatch) as info:
        reconstruct(rd)
    return str(info.value)


def test_tampered_residues_fail_on_both_paths():
    """Setting one rep's residue to 0 (its orbit drops out of P and S) or
    shifting it by 1 makes both reconstructions raise the same
    ReconstructionMismatch. The F_{3^16} set is left out: its reference
    takes seconds per edit."""
    count = 0
    for rd in _residue_data_sets():
        q = rd.quadruple
        if q.p**rd.splitting_degree > 5**6:
            continue
        for j, a in enumerate(rd.residues):
            for edit in {0, (a + 1) % q.p}:
                residues = rd.residues[:j] + (edit,) + rd.residues[j + 1:]
                bad = rd._replace(residues=residues)
                assert _mismatch(reconstruct_f, bad) == _mismatch(
                    reconstruct_f_reference, bad
                ), (q, j, edit)
                count += 1
    assert count > 100


@pytest.mark.parametrize("p, m, k", [
    (3, 2, 1), (5, 2, 1), (5, 4, 1), (7, 3, 1), (7, 6, 1), (11, 5, 1),
    (3, 2, 2), (5, 4, 2),
])
def test_orbit_lifts_fold_into_one_term_in_t_to_the_m(p, m, k):
    """The identity behind ``reconstruct_f``: for every x != 0 of F_{p^k}
    and a in F_p^x, with c_l = zeta^-l x and e_l = lift(zeta^-l a),
    prod_l (t - c_l) = t^m - x^m, sum_l e_l prod_{l' != l} (t - c_l')
    = m a x^(m-1), and sum_l e_l = 0 mod p."""
    spec = make_field(p, k)
    zeta = root_of_unity(make_field(p, 1), m).prime_int()
    t = Poly.x(spec)
    for x in itertools.islice(spec.elements(), 1, None):
        conjugates = [x * pow(zeta, -ell, p) for ell in range(m)]
        linears = [t - Poly(spec, [c]) for c in conjugates]
        product = Poly.one(spec)
        for linear in linears:
            product = product * linear
        assert product == t**m - Poly(spec, [x**m])
        cofactors = [product // linear for linear in linears]
        for a in range(1, p):
            lifts = [pow(zeta, -ell, p) * a % p for ell in range(m)]
            assert sum(lifts) % p == 0
            folded = Poly.zero(spec)
            for e, cofactor in zip(lifts, cofactors):
                folded = folded + cofactor * e
            assert folded == Poly(spec, [x ** (m - 1) * (m * a)])


def test_reconstruct_wraps_only_shape_errors(monkeypatch):
    rd = residue_data(Q_F8, F8)

    def bad_shape(q, f):
        raise WrongDegree("deg f = 6, expected 8")

    monkeypatch.setattr(ddcrit.criterion, "ddc_check", bad_shape)
    with pytest.raises(ReconstructionMismatch, match="bad shape"):
        reconstruct_f(rd)

    def broken(q, f):
        raise RuntimeError("not a shape error")

    monkeypatch.setattr(ddcrit.criterion, "ddc_check", broken)
    with pytest.raises(RuntimeError):
        reconstruct_f(rd)


def test_reconstruct_constant():
    rd = residue_data(Q_CONST, Poly.from_ints(F3, [2]))
    assert reconstruct_f(rd) == Poly.from_ints(F3, [2])


def test_reconstruct_without_reps_needs_nu_zero():
    """For N1 = 0 the reconstruction is the general one with P = 1, S = 0
    and N = -T, so f = 1/N: (3,2,3,0) has u = 1, nu = 1 and
    N = -(t^2 + 1), which no constant inverts. Both paths raise the same
    ReconstructionMismatch."""
    rd = ResidueData(Quadruple(3, 2, 3, 0), 1, (), ())
    message = "reconstructed f is not a polynomial"
    assert _mismatch(reconstruct_f, rd) == message
    assert _mismatch(reconstruct_f_reference, rd) == message


def test_reconstruct_lift_independent():
    """Shifting an exponent lift by p multiplies g by an invariant p-th
    power, which dlog kills: dg/g computed with lifts e and e+p agree."""
    rd = residue_data(Q_T2, F_T2)
    spec = rd.field
    zeta = root_of_unity(spec, 2)
    x = rd.reps[0]
    t = Poly.x(spec)

    def dg_over_g(extra):
        total = RationalFunction(Poly.zero(spec), Poly.one(spec))
        for ell in range(1, 3):
            c = zeta ** (-ell) * x
            e = (zeta ** (-ell) * rd.residues[0]).prime_int() + extra
            num = Poly(spec, [c * e])
            den = t * (t - Poly(spec, [c]))
            total = total + RationalFunction(num, den)
        return total

    assert dg_over_g(0) == dg_over_g(3)


def test_certify_flags():
    assert certify(Q_F8, F8).all_ok
    assert certify(Q_T2, F_T2).all_ok
    bad = certify(Q_F8, Poly.from_ints(F3, [1, 0, 0, 0, 0, 0, 0, 0, 1]))
    assert not bad.ddc_ok and not bad.all_ok


def test_certificate_json_stable_and_self_verifying():
    cert = certify(Q_F8, F8)
    data = cert.to_json()
    assert list(data) == [
        "quadruple",
        "field",
        "f",
        "splitting_degree",
        "reps",
        "residues",
        "flags",
        "isolation_det",
    ]
    assert verify_certificate_json(json.loads(json.dumps(data)))


def _tampered(edit):
    data = json.loads(json.dumps(certify(Q_F8, F8).to_json()))
    edit(data)
    return data


@pytest.mark.parametrize("edit", [
    lambda d: d.update(splitting_degree=99),
    lambda d: d.update(reps=d["reps"][:1]),
    lambda d: d.update(residues=[1] * len(d["residues"])),
    lambda d: d.update(isolation_det=[0] * len(d["isolation_det"])),
    lambda d: d["flags"].update(isolated=not d["flags"]["isolated"]),
    lambda d: d["field"].update(modulus=[1, 1]),
    lambda d: d.update(extra=None),
], ids=["splitting_degree", "reps", "residues", "isolation_det", "flag",
        "modulus", "extra_key"])
def test_verify_rejects_every_tampered_field(edit):
    """The certificate of ``check --p 3 --m 2 --u 5 --n1 8 --f
    1,0,0,0,0,0,1,0,1`` verifies, and each edit of one field makes it fail,
    the ones that leave the three flags true included."""
    assert verify_certificate_json(_tampered(lambda d: None))
    assert not verify_certificate_json(_tampered(edit))


def test_certify_builds_no_root_list(monkeypatch):
    """On every golden CLI case, ``certify`` finds its reps without
    ``roots_in_splitting_field`` and factors nothing of degree above N1/m."""
    from ddcrit import poly
    from test_golden import CASES, run_case

    def no_root_list(f):
        raise AssertionError("roots_in_splitting_field called")

    bounds, degrees = [], []
    real_factor, real_residue_data = poly.factor, ddcrit.criterion.residue_data

    def factor(g):
        if bounds:
            assert g.degree <= bounds[-1]
            degrees.append(g.degree)
        return real_factor(g)

    def residue_data(q, f, *args):
        bounds.append(q.n1 // q.m)
        try:
            return real_residue_data(q, f, *args)
        finally:
            bounds.pop()

    monkeypatch.setattr(poly, "roots_in_splitting_field", no_root_list)
    monkeypatch.setattr(
        ddcrit.criterion, "roots_in_splitting_field", no_root_list, raising=False
    )
    monkeypatch.setattr(poly, "factor", factor)
    monkeypatch.setattr(ddcrit.criterion, "residue_data", residue_data)
    for case in CASES:
        assert run_case(case["argv"])[1] == case["exit_code"]
    assert degrees


def test_reconstruct_runs_no_product_outside_its_ddc_check(monkeypatch):
    """On every golden ``construct`` case, ``reconstruct_f`` builds P, S
    and N by coefficient updates: ``poly.kronecker_mul`` runs only inside
    its final ``ddc_check``."""
    from ddcrit import poly
    from test_golden import CASES, run_case

    depth = {"reconstruct": 0, "ddc": 0}
    stray = []
    real_mul = poly.kronecker_mul
    real_ddc_check = ddcrit.criterion.ddc_check
    real_reconstruct_f = ddcrit.criterion.reconstruct_f

    def kronecker_mul(a, b, spec):
        if depth["reconstruct"] and not depth["ddc"]:
            stray.append((len(a), len(b)))
            raise AssertionError("polynomial product in reconstruct_f")
        return real_mul(a, b, spec)

    def counted(key, fn):
        def wrapper(*args):
            depth[key] += 1
            try:
                return fn(*args)
            finally:
                depth[key] -= 1
        return wrapper

    reconstructed = []

    def reconstruct_f(rd):
        reconstructed.append(rd)
        return real_reconstruct_f(rd)

    monkeypatch.setattr(poly, "kronecker_mul", kronecker_mul)
    ddc = counted("ddc", real_ddc_check)
    monkeypatch.setattr(ddcrit.criterion, "ddc_check", ddc)
    # construct, cli and search reach it through certify_data
    monkeypatch.setattr(
        ddcrit.criterion, "reconstruct_f", counted("reconstruct", reconstruct_f)
    )
    for case in CASES:
        if case["argv"][0] == "construct":
            assert run_case(case["argv"])[1] == case["exit_code"], case["name"]
    assert reconstructed and not stray


def test_equivalence_exhaustive_small():
    """ddc_check iff squarefree + residues + power sums, for every
    shape-valid f of (3,2,1,2) over F_3."""
    for c0 in (1, 2):
        for c1 in (1, 2):
            f = Poly.from_ints(F3, [c0, 0, c1])
            direct = ddc_check(Q_T2, f)
            try:
                pipeline = f.is_squarefree() and power_sum_check(
                    residue_data(Q_T2, f)
                )
            except (NotSquarefree, ResidueNotPrimeField):
                pipeline = False
            assert direct == pipeline


def test_binomial_det_examples():
    assert binomial_det([5]) == (1, 1)
    assert binomial_det([7, 5]) == (2, 2)
    direct, formula = binomial_det([11, 7, 5])
    assert direct == formula


def test_binomial_det_random_agreement():
    rng = random.Random(4)
    for _ in range(50):
        b = sorted(rng.sample(range(1, 40), rng.randint(1, 5)), reverse=True)
        direct, formula = binomial_det(b)
        assert direct == formula


def test_binomial_det_rejects_non_descending():
    with pytest.raises(ValueError):
        binomial_det([5, 7])
    with pytest.raises(ValueError):
        binomial_det([5, 5])
    with pytest.raises(ValueError):
        binomial_det([3, 0])


def test_certify_seeks_no_generator_above_the_prime_field(monkeypatch, capsys):
    # mu_m lies in F_p since m | p - 1: the residues of f lie in F_7 and its
    # roots in F_{7^6}, above the table bound, yet only F_7 needs a generator.
    # mu_m is cached per (p, m), so the cache is cleared for F_7's to be sought
    from ddcrit import cli, gf
    from ddcrit.poly import _mu_m, roots_in_splitting_field

    coeffs = [6, 0, 0, 0, 4, 0, 5, 0, 0, 0, 6, 0, 5]
    assert roots_in_splitting_field(Poly.from_ints(make_field(7, 1), coeffs))[0] == 6
    _mu_m.cache_clear()
    specs = []
    least_generator = gf._least_generator
    monkeypatch.setattr(
        gf, "_least_generator", lambda spec: specs.append(spec) or least_generator(spec)
    )
    code = cli.main(
        ["--compact", "check", "--p", "7", "--m", "2", "--u", "3", "--n1", "12",
         "--f", ",".join(map(str, coeffs))]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["flags"]["ddc"] is False
    assert out["splitting_degree"] == 6
    assert specs and all(spec.k == 1 for spec in specs)


def test_certify_builds_no_splitting_field_for_residues_outside_the_prime_field(
    monkeypatch, capsys
):
    """f = t^8 + 2t^6 + 2t^4 + 2t^2 + 1 over F_3 splits in F_{3^8}, but one
    of its residues lies outside F_3, which the test over F_3 finds: no orbit
    reps are sought and no field above F_3 is built."""
    from ddcrit import cli, gf
    from ddcrit.poly import roots_in_splitting_field

    f = Poly.from_ints(F3, [1, 0, 2, 0, 2, 0, 1, 0, 2])
    assert f.is_squarefree() and roots_in_splitting_field(f)[0] == 8

    def no_reps(f, m):
        raise AssertionError("orbit_reps_in_splitting_field called")

    built = []
    make = gf.make_field
    monkeypatch.setattr(ddcrit.criterion, "orbit_reps_in_splitting_field", no_reps)
    monkeypatch.setattr(
        ddcrit.criterion, "make_field", lambda p, k: built.append(k) or make(p, k)
    )
    code = cli.main(
        ["--compact", "check", "--p", "3", "--m", "2", "--u", "5", "--n1", "8",
         "--f", "1,0,2,0,2,0,1,0,2"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["splitting_degree"] is None
    assert out["flags"] == {"ddc": False, "power_sum": False, "isolated": False}
    assert all(k == 1 for k in built)


def _oracle_cases():
    """(q, f) for every f over F_3 with N1 <= 8 and u~ < 6m, and seeded
    samples over F_5, F_7 and F_9 with N1 <= 8 and u~ < 6m."""
    def shaped(spec, m, inner):
        coeffs = [spec.zero()] * (m * (len(inner) - 1) + 1)
        coeffs[::m] = inner
        return Poly(spec, coeffs)

    cases = []
    for n in range(5):
        if n == 0:
            inners = [[c] for c in (1, 2)]
        else:
            inners = [
                [c0, *mid, top]
                for c0 in (1, 2)
                for top in (1, 2)
                for mid in itertools.product(range(3), repeat=n - 1)
            ]
        for inner in inners:
            f = shaped(F3, 2, [F3.from_int(c) for c in inner])
            cases.append((f, [Quadruple(3, 2, u, 2 * n) for u in range(1, 12, 2)]))
    rng = random.Random(29)
    for p, k, ms, count in [(5, 1, (2, 4), 300), (7, 1, (2, 3, 6), 300), (3, 2, (2,), 300)]:
        spec = make_field(p, k)
        nonzero = list(spec.elements())[1:]
        for _ in range(count):
            m = rng.choice(ms)
            n = rng.randint(0, 8 // m)
            inner = [rng.choice(nonzero)]
            inner += [rng.choice([spec.zero(), *nonzero]) for _ in range(n - 1)]
            inner += [rng.choice(nonzero)] if n else []
            f = shaped(spec, m, inner)
            qs = [Quadruple(p, m, u, m * n) for u in range(m - 1, 6 * m, m)]
            cases.append((f, qs))
    return cases


def test_base_field_paths_match_their_oracles():
    """The three fast paths of ``certify`` against the routes they replace,
    on every f over F_3 with N1 <= 8 and u~ < 6m and on seeded samples over
    F_5, F_7 and F_9:
    - the residue test over f's field against the residues
      1/(x^(u~+1) f'(x)) at every root from ``roots_in_splitting_field``,
      and the residues of ``residue_data`` against the same formula at
      its reps;
    - the power-sum flag from 1/F against ``power_sum_check``;
    - the closed-form isolation determinant against the elimination of
      ``isolation_det_reference``, on the square systems among these and on
      random reps and residues.
    That is 6,240 (q, f) pairs, 132 of them with a splitting field that is
    no field (ROADMAP defect 1), and 156 random determinants."""
    from ddcrit.criterion import _power_sums_hold, _residue_poly
    from ddcrit.poly import embed_poly, roots_in_splitting_field

    counts = dict.fromkeys(
        ["cases", "pass", "not_squarefree", "outside", "det", "schur", "no_field",
         "random_det"],
        0,
    )
    for f, qs in _oracle_cases():
        try:
            degree, roots = roots_in_splitting_field(f)
        except NotAField:  # ROADMAP defect 1: F_{3^12} is no field
            counts["no_field"] += len(qs)
            continue
        big = make_field(f.spec.p, degree)
        fprime = embed_poly(f, big).derivative()
        squarefree = len(set(roots)) == len(roots)
        for q in qs:
            counts["cases"] += 1

            def residue(x):
                return (x ** (q.u_tilde + 1) * fprime.evaluate(x)).inverse()

            in_fp = squarefree and all(residue(x).in_prime_field() for x in roots)
            big_f = Poly(f.spec, f.coeffs[:: q.m])
            assert (_residue_poly(q, big_f) is not None) == in_fp, (q, f)
            if not in_fp:
                key = "outside" if squarefree else "not_squarefree"
                counts[key] += 1
                error = ResidueNotPrimeField if squarefree else NotSquarefree
                with pytest.raises(error):
                    residue_data(q, f)
                continue
            counts["pass"] += 1
            rd = residue_data(q, f)
            assert rd.splitting_degree == degree
            assert rd.residues == tuple(residue(x).prime_int() for x in rd.reps)
            assert _power_sums_hold(q, f) == power_sum_check(rd), (q, f)
            exps = criterion_exponents(q)
            if rd.reps and len(exps) == len(rd.reps):
                counts["det"] += 1
                # a nonempty partition lambda: some exponent skipped
                counts["schur"] += exps[-1] != q.m * len(exps) - 1
                det, isolated = isolation_check(rd, f)
                assert det == isolation_det_reference(rd)[1], (q, f)
                assert isolated == bool(det)
    # the determinant identity holds for any reps and residues: random data
    # over F_27, F_25, F_49 and F_121 at every square system with a skipped
    # exponent, for N1 <= 24 and u~ < 8m, with f = c prod_j (t^m - x_j^m)
    # for a c outside F_p, whose F has the roots y_j = x_j^m
    rng = random.Random(29)
    for p, k in [(3, 3), (5, 2), (7, 2), (11, 2)]:
        spec = make_field(p, k)
        nonzero = list(spec.elements())[1:]
        for m in (m for m in range(2, p) if (p - 1) % m == 0):
            for u_tilde, n1 in itertools.product(range(m - 1, 8 * m, m), range(m, 25, m)):
                q = Quadruple(p, m, u_tilde, n1)
                exps = criterion_exponents(q)
                if len(exps) != n1 // m or exps[-1] == m * len(exps) - 1:
                    continue
                for _ in range(3):
                    reps = sorted(rng.sample(nonzero, n1 // m), key=FieldElement.sort_key)
                    residues = tuple(rng.randrange(1, p) for _ in reps)
                    rd = ResidueData(q, k, tuple(reps), residues)
                    f = Poly(spec, [nonzero[-1]])
                    for x in reps:
                        f = f * Poly(spec, [-(x**m), *[spec.zero()] * (m - 1), spec.one()])
                    counts["random_det"] += 1
                    assert isolation_check(rd, f)[0] == isolation_det_reference(rd)[1], q
    assert counts == {
        "cases": 6240, "pass": 1968, "not_squarefree": 576, "outside": 3696,
        "det": 97, "schur": 6, "no_field": 132, "random_det": 156,
    }, counts


def test_isolation_schur_factor_embeds_from_f_field():
    """``isolation_check`` takes s_lambda over f's own field and embeds it
    into the splitting field: on the search leaves over F_9, F_25, F_27
    and F_49 (m = 3 there) of square systems with a nonempty lambda whose
    splitting field is larger than f's field, its determinant is that of
    ``isolation_det_reference``."""
    from ddcrit.search import _PrunedSearch

    checked = 0
    for (p, k), quadruples in [
        ((3, 2), [(2, 3, 4), (2, 3, 6), (2, 5, 8)]),
        ((5, 2), [(2, 3, 6), (2, 3, 8)]),
        ((3, 3), [(2, 3, 6)]),
        ((7, 2), [(3, 5, 15)]),
    ]:
        spec = make_field(p, k)
        for m, u_tilde, n1 in quadruples:
            q = Quadruple(p, m, u_tilde, n1)
            exps = criterion_exponents(q)
            assert len(exps) == n1 // m and exps[-1] != m * len(exps) - 1, q
            for f in _PrunedSearch(q, spec, None).leaves():
                try:
                    rd = residue_data(q, f)
                except (NotAField, NotSquarefree, ResidueNotPrimeField):
                    continue
                if rd.splitting_degree == k:
                    continue
                checked += 1
                assert isolation_check(rd, f)[0] == isolation_det_reference(rd)[1], (q, f)
    assert checked == 30


# -- certify_data: constructed data certified by its own reps ---------------


def _trace_family_data():
    """construct_trace for p <= 13, every m | p-1 and u~ < 30, leaving out
    the quadruples whose field exceeds the degree cap and those whose
    canonical modulus is reducible (ROADMAP defect 1), where
    ``construct_trace`` itself raises."""
    out = []
    for p in (3, 5, 7, 11, 13):
        for m in range(2, p):
            if (p - 1) % m:
                continue
            for u_tilde in range(m - 1, 30, m):
                try:
                    out.append(construct_trace(p, m, u_tilde))
                except (ExtensionCapExceeded, NotAField):
                    continue
    return out


def _certify_data_cases():
    """construct_small for every odd prime p < 100 and N1 in {p-1, p-3, 0},
    the trace family of ``_trace_family_data`` and the d9 witnesses."""
    out = [
        construct_small(p, n1)
        for p in range(3, 100)
        if is_prime(p)
        for n1 in sorted({p - 1, p - 3, 0})
    ]
    return out + _trace_family_data() + d9_residue_data()


@pytest.fixture
def searches(monkeypatch):
    """The m of every ``orbit_reps_in_splitting_field`` call by criterion."""
    calls = []
    real_search = ddcrit.criterion.orbit_reps_in_splitting_field
    monkeypatch.setattr(
        ddcrit.criterion,
        "orbit_reps_in_splitting_field",
        lambda f, m: calls.append(m) or real_search(f, m),
    )
    return calls


def test_certify_data_matches_certify(searches):
    """``certify_data(rd)`` prints the certificate of
    ``certify(rd.quadruple, reconstruct_f(rd))`` byte for byte, where the f
    is the certificate's own, and takes rd's reps with no search."""
    cases = _certify_data_cases()
    assert len(cases) > 150
    for rd in cases:
        searches.clear()
        cert = certify_data(rd)
        assert not searches and cert.residue_data.reps == rd.reps
        assert json.dumps(cert.to_json()) == json.dumps(
            certify(rd.quadruple, cert.f).to_json()
        ), rd.quadruple
        assert searches == [rd.quadruple.m]


def _bad_hints(rd):
    """Six wrong copies of rd's hint, each failing one check of
    ``_checked_reps``: a rep dropped, two reps swapped, a rep replaced by
    another member of its mu_m orbit, a rep that is no root, the reps
    re-taken in F_{p^(2K)}, where K is not least, and the reps left in
    F_{p^K} under the degree 2K."""
    from ddcrit.poly import _mu_m, embed

    q, reps, spec = rd.quadruple, list(rd.reps), rd.field
    mu_m = _mu_m(q.p, q.m)

    def least(x):
        return min((x * w for w in mu_m), key=FieldElement.sort_key)

    def sort(xs):
        return tuple(sorted(xs, key=FieldElement.sort_key))

    ys = {x**q.m for x in reps}
    no_root = next(
        z for z in spec.elements() if z and z == least(z) and z**q.m not in ys
    )
    big = make_field(q.p, 2 * rd.splitting_degree)
    hints = {
        "dropped": (rd.splitting_degree, tuple(reps[1:])),
        "swapped": (rd.splitting_degree, (reps[1], reps[0], *reps[2:])),
        "orbit_member": (
            rd.splitting_degree,
            sort([reps[0] * mu_m[1], *reps[1:]]),
        ),
        "no_root": (rd.splitting_degree, sort([no_root, *reps[1:]])),
        "not_least": (big.k, sort(least(embed(x, big)) for x in reps)),
        "mislabelled": (big.k, tuple(reps)),
    }
    return {
        name: rd._replace(splitting_degree=degree, reps=xs)
        for name, (degree, xs) in hints.items()
    }


@pytest.mark.parametrize("build, args", [
    (construct_small, (7, 4)),
    (construct_trace, (5, 4, 3)),
    (construct_trace, (7, 3, 2)),
    (construct_trace, (3, 2, 5)),
])
def test_certify_data_falls_back_on_bad_reps(searches, build, args):
    """Each bad hint fails the check, the reps are searched for instead,
    and the certificate is certify's, byte for byte."""
    from ddcrit.criterion import _certificate, _checked_reps

    rd = build(*args)
    q = rd.quadruple
    f = reconstruct_f(rd)
    big_f = Poly(f.spec, f.coeffs[:: q.m])
    expected = json.dumps(certify(q, f).to_json())
    for name, bad in _bad_hints(rd).items():
        assert (bad.splitting_degree, bad.reps) != (rd.splitting_degree, rd.reps)
        assert _checked_reps(q, big_f, bad) is None, name
        searches.clear()
        cert = _certificate(q, f, True, bad)
        assert json.dumps(cert.to_json()) == expected, name
        assert searches == [q.m], name


def _construct_argvs():
    """The distinct ``construct`` argv lists of the benchmark catalog that
    exit 0, then the golden ``construct`` cases (F_{5^6} and F_{7^15} lie
    above the table bound), each with ``--compact`` first."""
    import pathlib

    from test_golden import CASES

    root = pathlib.Path(__file__).resolve().parents[1]
    catalog = json.loads((root / "perfbench" / "catalog.json").read_text())
    argvs = []
    for members in catalog["workloads"]["certify"]["classes"].values():
        for job in members:
            if job["argv"][1] == "construct" and job["code"] == 0:
                argvs.append(job["argv"])
    argvs += [["--compact", *c["argv"]] for c in CASES if c["argv"][0] == "construct"]
    return list(dict.fromkeys(map(tuple, argvs)))


def test_construct_runs_one_ddc_check_per_certificate(monkeypatch, capsys):
    """Every catalog and golden ``construct`` job runs ``ddc_check`` once
    per certificate it prints and never searches for orbit reps."""
    import importlib

    from ddcrit import cli, poly

    cartier = importlib.import_module("ddcrit.cartier")
    calls = []
    real_ddc_check = cartier.ddc_check

    def ddc_check(q, f):
        calls.append(q)
        return real_ddc_check(q, f)

    def no_search(f, m):
        raise AssertionError("orbit_reps_in_splitting_field called")

    for module in (cartier, ddcrit.criterion):
        monkeypatch.setattr(module, "ddc_check", ddc_check)
    for module in (poly, ddcrit.criterion):
        monkeypatch.setattr(module, "orbit_reps_in_splitting_field", no_search)
    argvs = _construct_argvs()
    assert len(argvs) >= 30
    large = ("--compact", "construct", "trace", "--p", "7", "--m", "2", "--u", "31")
    assert large in argvs
    for argv in argvs:
        calls.clear()
        assert cli.main(list(argv)) == 0, argv
        out = json.loads(capsys.readouterr().out)
        certs = out if isinstance(out, list) else [out]
        assert [c["quadruple"] for c in certs] == [q.to_json() for q in calls], argv


# -- the certificate's loops on stored values against their FieldElement
# oracles, in each storage form: a residue over F_p, an index in a tabled
# field and a coefficient tuple above the table bound


def _storage_form(spec) -> str:
    if isinstance(spec.zero().v, tuple):
        return "tuple"
    return "residue" if spec.k == 1 else "index"


def _outcome(fn, *args):
    """fn(*args), or the type and message of the DdcritError it raises."""
    try:
        return fn(*args)
    except ddcrit.errors.DdcritError as exc:
        return type(exc), str(exc)


STORED_FORM_CASES = [
    ("residue", construct_small, (13, 12)),
    ("residue", construct_trace, (5, 2, 1)),
    ("index", construct_trace, (3, 2, 5)),
    ("index", construct_trace, (5, 2, 5)),
    ("index", construct_trace, (7, 3, 5)),
    ("tuple", construct_trace, (5, 4, 7)),
    ("tuple", construct_trace, (5, 2, 15)),
]


def _random_square_data(p, k, m, count, rng, zero_rep=False):
    """The first count random (rd, f) over F_{p^k} with a square power-sum
    system, f = c prod_j (t^m - x_j^m) for a c outside F_p; with
    ``zero_rep`` the least rep is replaced by 0."""
    spec = make_field(p, k)
    nonzero = list(itertools.islice(spec.elements(), 1, 400))
    out = []
    for n1, u_tilde in itertools.product(range(m, 5 * m, m), range(m - 1, 8 * m, m)):
        q = Quadruple(p, m, u_tilde, n1)
        if len(criterion_exponents(q)) != n1 // m:
            continue
        reps = sorted(rng.sample(nonzero, n1 // m), key=FieldElement.sort_key)
        if zero_rep:
            reps[0] = spec.zero()
        residues = tuple(rng.randrange(1, p) for _ in reps)
        f = Poly(spec, [nonzero[-1]])
        for x in reps:
            f = f * Poly(spec, [-(x**m), *[spec.zero()] * (m - 1), spec.one()])
        out.append((ResidueData(q, k, tuple(reps), residues), f))
        if len(out) == count:
            break
    assert len(out) == count
    return out


@pytest.mark.parametrize("form, build, args", STORED_FORM_CASES)
def test_stored_value_loops_match_their_oracles(form, build, args):
    """On constructed data in each storage form, ``construct_trace``'s reps
    and residues, ``reconstruct_f``, ``isolation_check``, ``_checked_reps``,
    ``orbit_reps_in_splitting_field``, ``mu_m_orbit_reps`` and
    ``Poly.evaluate`` equal their FieldElement oracles."""
    from ddcrit.criterion import _checked_reps
    from ddcrit.poly import embed_poly, mu_m_orbit_reps, orbit_reps_in_splitting_field

    rd = build(*args)
    q, big = rd.quadruple, rd.field
    assert _storage_form(big) == form
    if build is construct_trace:
        assert (rd.reps, rd.residues) == construct_trace_reference(*args)
    f = reconstruct_f(rd)
    assert f == reconstruct_f_reference(rd)
    assert isolation_check(rd, f)[0] == isolation_det_reference(rd)[1]
    big_f = Poly(f.spec, f.coeffs[:: q.m])
    assert _checked_reps(q, big_f, rd) == checked_reps_reference(q, big_f, rd)
    assert _checked_reps(q, big_f, rd) == (rd.splitting_degree, rd.reps)
    assert orbit_reps_in_splitting_field(f, q.m) == (rd.splitting_degree, list(rd.reps))
    roots = [x * w for x in rd.reps for w in ddcrit.poly._mu_m(q.p, q.m)]
    assert mu_m_orbit_reps(roots, q.m, big) == mu_m_orbit_reps_reference(roots, q.m, big)
    f_big = embed_poly(f, big)
    for g in (f_big, f_big.derivative(), Poly.zero(big), Poly.one(big)):
        for x in (big.zero(), *rd.reps):
            assert g.evaluate(x) == evaluate_reference(g, x)
    assert any(f_big.derivative().evaluate(x) for x in rd.reps)


@pytest.mark.parametrize("p, k, m", [(7, 1, 3), (5, 2, 4), (5, 6, 4)])
def test_stored_value_loops_match_their_oracles_on_random_data(p, k, m):
    """Random square data over F_7, F_25 and F_{5^6}, one form each, with and without a zero rep: ``isolation_check`` against
    the elimination of ``isolation_det_reference``, ``reconstruct_f``
    against ``reconstruct_f_reference`` (f or the same error) and
    ``Poly.evaluate`` against Horner on FieldElements."""
    rng = random.Random(47)
    spec = make_field(p, k)
    cases = _random_square_data(p, k, m, 3, rng)
    cases += _random_square_data(p, k, m, 2, rng, zero_rep=True)
    assert {_storage_form(rd.field) for rd, _ in cases} == {_storage_form(spec)}
    for rd, f in cases:
        assert isolation_check(rd, f)[0] == isolation_det_reference(rd)[1], rd
        assert _outcome(reconstruct_f, rd) == _outcome(reconstruct_f_reference, rd), rd
        for x in rng.sample(list(itertools.islice(spec.elements(), 300)), 5):
            assert f.evaluate(x) == evaluate_reference(f, x)


@pytest.mark.parametrize("form, build, args", STORED_FORM_CASES)
def test_rep_checks_on_tampered_data_match_their_oracles(form, build, args):
    """``_checked_reps`` and ``mu_m_orbit_reps`` on tampered data give what
    their FieldElement oracles give, result or error: a zero rep (refused,
    and accepted where F(0) = 0), a rep that is not the least of its orbit,
    a repeated rep, and for the orbits a zero root, a repeated root and a
    root set that is not closed."""
    from ddcrit.criterion import _checked_reps
    from ddcrit.poly import mu_m_orbit_reps

    rd = build(*args)
    q, big, reps = rd.quadruple, rd.field, rd.reps
    mu_m = ddcrit.poly._mu_m(q.p, q.m)
    f = reconstruct_f(rd)
    big_f = Poly(f.spec, f.coeffs[:: q.m])

    def sort(xs):
        return tuple(sorted(xs, key=FieldElement.sort_key))

    hints = {
        "zero": (big_f, sort([big.zero(), *reps[1:]])),
        "not_least": (big_f, sort([reps[0] * mu_m[-1], *reps[1:]])),
        "repeated": (big_f, (reps[0], *reps[:-1])),
        "zero_root_of_f": (big_f * Poly.x(f.spec), (big.zero(), *reps)),
    }
    outcomes = {}
    for name, (g, xs) in hints.items():
        bad = rd._replace(reps=xs)
        outcomes[name] = _outcome(_checked_reps, q, g, bad)
        assert outcomes[name] == _outcome(checked_reps_reference, q, g, bad), name
    assert outcomes["zero_root_of_f"] == (rd.splitting_degree, (big.zero(), *reps))
    assert outcomes["zero"] is None and outcomes["repeated"] is None
    assert (outcomes["not_least"] is None) == (q.m > 1 and len(reps) > 0)
    roots = [x * w for x in reps for w in mu_m]
    for name, xs in {
        "zero": [*roots, big.zero()],
        "repeated": [*roots, roots[-1]],
        "not_closed": roots[1:],
    }.items():
        error = _outcome(mu_m_orbit_reps, xs, q.m, big)
        assert error == _outcome(mu_m_orbit_reps_reference, xs, q.m, big), name
        assert isinstance(error, tuple) and issubclass(error[0], ddcrit.errors.DdcritError)
