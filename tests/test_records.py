"""The package's records are named tuples: each prints, hashes, copies and
pickles as the frozen record it replaced, its fields are read-only, and its
constructor validates."""

import copy
import pickle

import pytest

from ddcrit.cartier import Quadruple
from ddcrit.construct import construct_small
from ddcrit.criterion import certify_data
from ddcrit.errors import InconsistentRadii, InvalidQuadruple, SpecMismatch
from ddcrit.gf import make_field
from ddcrit.planner import RadiiReport, step_radii
from ddcrit.poly import LaurentPoly, Poly
from ddcrit.search import GroupSearchResult, NotFound
from ddcrit.witt import JumpProfile, WittVector, standard_form, upper_breaks

F3 = make_field(3, 1)


def _records():
    """One instance of every record, by name."""
    rd = construct_small(5, 4)
    cert = certify_data(rd)
    q = Quadruple(3, 2, 3, 4)
    v = WittVector(F3, (LaurentPoly.from_poly(Poly.from_ints(F3, [1, 0, 1]), -5),))
    result = standard_form(v)
    return {
        "FieldSpec": make_field(3, 2),
        "StoredArithmetic": F3._ops,
        "Quadruple": q,
        "ResidueData": rd,
        "Certificate": cert,
        "RadiiReport": step_radii(3, 2, 1, 5)[1],
        "NotFound": NotFound(q, 1, True, 0, True, 0),
        "GroupSearchResult": GroupSearchResult(5, 2, 1, {cert.quadruple: cert}, True),
        "WittVector": v,
        "StandardFormResult": result,
        "JumpProfile": upper_breaks(result.vector),
    }


RECORDS = _records()


@pytest.mark.parametrize("name", RECORDS)
def test_record_semantics(name):
    """repr is Name(field=value, ...), the record equals and hashes as the
    tuple of its fields, a field cannot be assigned, and copy.copy and a
    pickle round trip (where the fields pickle) give an equal record; a
    FieldSpec's cached properties, the lambdas of its StoredArithmetic
    among them, stay out of both."""
    x = RECORDS[name]
    assert type(x).__name__ == name
    fields = ", ".join(f"{f}={getattr(x, f)!r}" for f in x._fields)
    assert repr(x) == f"{name}({fields})"
    assert x == tuple(x)
    if name == "GroupSearchResult":  # its results dict is unhashable
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(tuple(x))
    with pytest.raises(AttributeError):
        setattr(x, x._fields[0], x[0])
    assert copy.copy(x) == x
    if name != "StoredArithmetic":  # its fields are lambdas
        y = pickle.loads(pickle.dumps(x))
        assert type(y) is type(x) and y == x


def test_field_spec_and_quadruple_reprs():
    """The literal text of the two records most often printed, and a
    FieldSpec copy without its caches."""
    assert repr(make_field(3, 2)) == "FieldSpec(p=3, k=2, modulus=(1, 0, 1))"
    q = Quadruple(3, 2, 3, 4)
    assert repr(q) == "Quadruple(p=3, m=2, u_tilde=3, n1=4, u=1, nu=1)"
    assert Quadruple(p=3, m=2, u_tilde=3, n1=4) == q
    assert F3._ops and copy.copy(F3).__dict__ == {}


def test_constructors_and_replace_validate():
    """Each record that checks its fields checks them in the constructor and
    in ``_replace``; Quadruple derives u and nu again."""
    q = Quadruple(3, 2, 1, 2)
    assert (q.u, q.nu) == (1, 0)
    assert q._replace(u_tilde=9) == Quadruple(3, 2, 9, 2) == (3, 2, 9, 2, 1, 2)
    for bad in ({"u_tilde": 2}, {"m": 4}, {"n1": -2}, {"p": 9}):
        with pytest.raises(InvalidQuadruple):
            Quadruple(**{"p": 3, "m": 2, "u_tilde": 1, "n1": 2, **bad})
        with pytest.raises(InvalidQuadruple):
            q._replace(**bad)
    with pytest.raises(InconsistentRadii):
        RadiiReport((1, 4), (1, 2), (1, 10), 4, (5, 4))
    with pytest.raises(InconsistentRadii):
        step_radii(3, 2, 1, 5)[1]._replace(n2=0)
    v = WittVector(F3, (LaurentPoly.zero(F3),))
    with pytest.raises(ValueError):
        WittVector(F3, ())
    with pytest.raises(ValueError):
        v._replace(entries=())
    with pytest.raises(SpecMismatch):
        v._replace(spec=make_field(5, 1))
    assert not v and WittVector(F3, (LaurentPoly.from_poly(Poly.one(F3)),))
    profile = JumpProfile([1, 4])
    assert profile.breaks == (1, 4) and hash(profile) == hash(((1, 4),))
    assert profile._replace(breaks=[2, 7]).breaks == (2, 7)
