import json
import time

from ddcrit.cartier import Quadruple
from ddcrit.criterion import Certificate, verify_certificate_json
from ddcrit.gf import make_field
from ddcrit.poly import Poly
from ddcrit.search import (
    NotFound,
    brute_search,
    candidate_count,
    search_group,
)

F3 = make_field(3, 1)


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


def test_budget_met_per_candidate():
    """The deadline is checked before every candidate, so a 0.5 s budget on a
    space of 419,904 candidates returns well within 1.5 s."""
    start = time.monotonic()
    result = brute_search(Quadruple(3, 2, 5, 10), 2, budget_seconds=0.5)
    elapsed = time.monotonic() - start
    assert isinstance(result, NotFound)
    assert result.to_json()["complete"] is False
    assert 0 < result.candidates_tried < candidate_count(
        Quadruple(3, 2, 5, 10), make_field(3, 2)
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


def test_search_group_json_lines_verify():
    result = search_group(3, 2, 2, 1)
    for line in result.to_json_lines()[:-1]:
        assert verify_certificate_json(json.loads(line))
