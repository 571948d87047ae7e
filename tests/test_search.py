import json
import random
import time

import pytest

import ddcrit
import ddcrit.construct
import reference
from ddcrit import search
from ddcrit.cartier import Quadruple
from ddcrit.criterion import (
    Certificate,
    certify,
    certify_data,
    verify_certificate_json,
)
from ddcrit.errors import DdcritError, PruningMismatch
from ddcrit.gf import make_field
from ddcrit.poly import Poly
from ddcrit.search import (
    NotFound,
    brute_search,
    candidate_count,
    first_witness,
    search_group,
)

F3 = make_field(3, 1)


def _oracle_cases(limit=500):
    """(q, field_degree) for p in {3, 5, 7}, every m, F_p and F_{p^2},
    u~ < p (u~ < 9 for p = 3, so that nu = 1 occurs), and every N1 whose
    candidate space has at most ``limit`` elements."""
    cases = []
    for p in (3, 5, 7):
        for m in range(2, p):
            if (p - 1) % m:
                continue
            for k in (1, 2):
                spec = make_field(p, k)
                for u_tilde in range(m - 1, 9 if p == 3 else p, m):
                    n1 = 0
                    while candidate_count(Quadruple(p, m, u_tilde, n1), spec) <= limit:
                        cases.append((Quadruple(p, m, u_tilde, n1), k))
                        n1 += m
    return cases


def _case_id(v):
    return f"k{v}" if isinstance(v, int) else f"{v.p}-{v.m}-{v.u_tilde}-{v.n1}"


def _outcome(fn):
    try:
        return fn().to_json()
    except DdcritError as exc:
        return type(exc).__name__


@pytest.mark.parametrize(
    "q,k",
    _oracle_cases(),
    ids=_case_id,
)
def test_first_witness_matches_enumeration(q, k):
    """Byte-identical outcome to enumerating every candidate, for both
    isolation requirements, and the search accepts exactly the candidates
    that pass ddc_check."""
    spec = make_field(q.p, k)
    passing = reference.ddc_passing(q, spec)
    assert list(search._PrunedSearch(q, spec, None).leaves()) == passing
    for isolated in (False, True):
        got = _outcome(lambda: first_witness(q, k, isolated))
        want = _outcome(lambda: reference.enumerate_search(q, k, isolated, passing))
        assert json.dumps(got) == json.dumps(want)


@pytest.mark.parametrize(
    "q,k",
    _oracle_cases()
    + [(Quadruple(11, 2, 1, 4), 1), (Quadruple(13, 2, 1, 4), 1),
       (Quadruple(11, 5, 4, 10), 1)],
    ids=_case_id,
)
def test_kept_column_equals_dense_power(q, k):
    """At every leaf the one kept column is G = F^(p-1) as Poly.__pow__
    computes it.  The last three trees reach positions i >= p, where
    [s^i] F^p = c_(i/p)^p enters the update.  The tree keeps stored
    values, decoded here as ``_poly`` decodes them."""
    spec = make_field(q.p, k)
    tree = search._PrunedSearch(q, spec, None)
    leaves = 0
    for _ in tree.leaves():
        values = spec.from_values(tree.values)
        g = spec.from_values(tree.g)
        dense = list((Poly(spec, values) ** (q.p - 1)).coeffs)
        dense += [spec.zero()] * (tree.length - len(dense))
        assert g[: tree.length] == dense[: tree.length]
        leaves += 1
    if q.p > 7:
        assert leaves and tree.length > q.p


@pytest.mark.parametrize(
    "q,k,nodes,leaves",
    [
        (Quadruple(5, 2, 7, 14), 1, 159, 4),
        (Quadruple(3, 2, 13, 24), 2, 7396, 0),
        (Quadruple(3, 2, 5, 10), 3, 759, 2),
        (Quadruple(3, 2, 3, 4), 8, 6562, 2),
    ],
    ids=lambda v: _case_id(v) if isinstance(v, Quadruple) else None,
)
def test_complete_trees_keep_their_nodes_and_leaves(q, k, nodes, leaves):
    """No output prints the node count, so these pins are what shows that
    the DFS walks the same tree on every kind of stored value: residues
    mod p, element indices in F_9 and F_27, and coefficient tuples of
    F_{3^8} above the log-table bound."""
    tree = search._PrunedSearch(q, make_field(q.p, k), None)
    assert sum(1 for _ in tree.leaves()) == leaves
    assert tree.nodes == nodes


@pytest.mark.parametrize(
    "q,k",
    _oracle_cases() + [(Quadruple(3, 2, 3, 4), 8), (Quadruple(5, 2, 1, 8), 6)],
    ids=_case_id,
)
def test_abort_rank_is_the_least_candidate_of_its_prefix(q, k):
    """The rank reported on abort names the least candidate whose leading
    coefficients are the values fixed so far and the one tried at the
    aborting node, for residues, element indices and the coefficient
    tuples of F_{3^8} and F_{5^6}."""
    spec = make_field(q.p, k)
    tree = search._PrunedSearch(q, spec, None)
    top, order = tree.top, spec.order
    rng = random.Random(f"{q}-{k}")
    for _ in range(8):
        i = rng.randrange(top + 1)
        least = [1 if j in (0, top) else 0 for j in range(top + 1)]
        digits = [rng.randrange(low, order) for low in least[: i + 1]]
        # values[i:] are left from other branches: the node's value is c
        stale = [rng.randrange(order) for _ in range(top + 1 - i)]
        tree.values = [spec.element_by_index(d).v for d in digits[:i] + stale]
        rank = tree._rank(i, spec.element_by_index(digits[i]).v)
        assert 0 <= rank < candidate_count(q, spec)
        want = digits + least[i + 1 :]
        f = reference.candidate(q, spec, rank)
        assert [spec.index_of(f.coeffs[j * q.m]) for j in range(top + 1)] == want


def test_budget_bounds_the_search_setup():
    """Nothing before the first deadline check costs more than linear work
    in top, and the rank of the abort is computed only then: a 0 s budget
    on N1 = 60000 (top = 30000) returns at once."""
    q = Quadruple(3, 2, 1, 60000)
    start = time.monotonic()
    result = first_witness(q, 1, budget_seconds=0.0)
    assert time.monotonic() - start < 1.0
    assert not result.complete and result.nodes == 1
    # c_0 = -1/u = 2 is forced, so every candidate with c_0 = 1 is decided
    assert result.candidates_tried == candidate_count(q, F3) // 2


def test_brute_search_alias():
    assert brute_search is first_witness
    assert ddcrit.brute_search is ddcrit.first_witness is first_witness


def test_exhaustion_node_count():
    q = Quadruple(3, 2, 7, 12)
    result = first_witness(q, 1)
    assert isinstance(result, NotFound) and result.complete
    assert result.candidates_tried == candidate_count(q, F3) == 972
    assert result.nodes < 100
    assert "nodes" not in result.to_json()


def test_rejected_leaf_raises(monkeypatch):
    """A leaf that certify's own ddc check rejects is an internal error,
    not a silently skipped candidate."""
    monkeypatch.setattr(
        search, "certify", lambda q, f: certify(q, f)._replace(ddc_ok=False)
    )
    with pytest.raises(PruningMismatch):
        first_witness(Quadruple(3, 2, 1, 2), 1)


def test_first_witness_t2():
    cert = brute_search(Quadruple(3, 2, 1, 2), 1)
    assert isinstance(cert, Certificate)
    assert cert.f == Poly.from_ints(F3, [2, 0, 1])


def test_constant_quadruple():
    cert = brute_search(Quadruple(3, 2, 1, 0), 1)
    assert cert.f == Poly.from_ints(F3, [2])


def test_isolated_search_f8_quadruple():
    cert = brute_search(Quadruple(3, 2, 5, 8), 1, require_isolated=True)
    assert isinstance(cert, Certificate)
    assert cert.all_ok


def test_not_found_record():
    result = brute_search(Quadruple(3, 2, 1, 4), 1)
    assert isinstance(result, NotFound)
    assert result.complete
    assert result.candidates_tried == candidate_count(
        Quadruple(3, 2, 1, 4), F3
    )
    data = result.to_json()
    assert data["found"] is False


def test_budget_aborts_cleanly():
    result = brute_search(Quadruple(3, 2, 5, 10), 2, budget_seconds=0.0)
    assert isinstance(result, NotFound)
    assert not result.complete


def test_budget_must_be_none_or_nonnegative():
    q = Quadruple(3, 2, 1, 4)
    for budget in (float("nan"), -1.0, -0.5):
        with pytest.raises(ValueError, match="budget"):
            brute_search(q, 1, budget_seconds=budget)
    # an infinite budget is no bound, as None is
    unbounded = brute_search(q, 1, budget_seconds=float("inf"))
    assert unbounded == brute_search(q, 1)
    assert unbounded.complete


def test_budget_met_per_candidate():
    """The deadline is checked at every search node, so a 0.5 s budget on
    (7,2,5,28), which the search does not finish in 5 s, returns well within
    1.5 s, having decided a prefix of the candidate order."""
    start = time.monotonic()
    result = brute_search(Quadruple(7, 2, 5, 28), 1, budget_seconds=0.5)
    elapsed = time.monotonic() - start
    assert isinstance(result, NotFound)
    assert result.to_json()["complete"] is False
    assert 0 < result.candidates_tried < candidate_count(
        Quadruple(7, 2, 5, 28), make_field(7, 1)
    )
    assert elapsed < 1.5


def test_certificates_self_verify():
    q = Quadruple(3, 2, 5, 8)
    cert = brute_search(q, 1, require_isolated=True)
    round_tripped = json.loads(json.dumps(cert.to_json()))
    assert verify_certificate_json(round_tripped)


def test_search_group_d9():
    result = search_group(3, 2, 2, 1)
    assert result.complete
    assert len(result.results) == 4
    assert all(isinstance(c, Certificate) for c in result.results.values())
    assert all(c.all_ok for c in result.results.values())
    lines = result.to_json_lines()
    assert len(lines) == 5
    assert json.loads(lines[-1])["complete"] is True


def test_search_group_takes_the_trace_family_and_reports_an_incomplete_group(
    monkeypatch,
):
    """Z/27 x| Z/2 at a 0 s budget: (3,2,3,6) is certified by the closed-form
    trace family, the two small-family quadruples by theirs, and each of the
    other 19 aborts before its first node, so the group is incomplete.
    Like CI's "Search smoke", it relies on the clock passing a 0 s deadline
    before the first node."""
    traced = []

    def construct_trace(p, m, u_tilde):
        traced.append((p, m, u_tilde))
        return ddcrit.construct.construct_trace(p, m, u_tilde)

    monkeypatch.setattr(search, "construct_trace", construct_trace)
    result = search_group(3, 2, 3, 1, budget_seconds=0)
    assert traced == [(3, 2, 3)]
    assert len(result.results) == 22 and result.complete is False
    trace = result.results[Quadruple(3, 2, 3, 6)]
    assert isinstance(trace, Certificate) and trace.all_ok
    assert trace == certify_data(ddcrit.construct.construct_trace(3, 2, 3))
    certified = [q for q, c in result.results.items() if isinstance(c, Certificate)]
    assert certified == [Quadruple(3, 2, 1, 2), Quadruple(3, 2, 1, 0), Quadruple(3, 2, 3, 6)]
    aborted = [c for c in result.results.values() if isinstance(c, NotFound)]
    assert len(aborted) == 19
    assert not any(c.complete for c in aborted)
    assert json.loads(result.to_json_lines()[-1])["complete"] is False


def test_search_group_json_lines_verify():
    result = search_group(3, 2, 2, 1)
    for line in result.to_json_lines()[:-1]:
        assert verify_certificate_json(json.loads(line))
