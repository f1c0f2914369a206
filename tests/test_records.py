"""The public record types: immutable tuples with named fields, compared,
hashed and printed by their fields, and validated on construction."""
from fractions import Fraction

import pytest

from nsq import (GeneratorList, QuotientSpec, TruncatedSeries,
                 build_membership, enumerate_Tp, rgf_rational, rgf_series,
                 verify_generators)
from nsq.ctengine import (BinomialFactor, Monomial, parse_elliott,
                          residue_A0)
from nsq.errors import GcdNotOne
from nsq.exactalg import TruncatedSeries as KernelTruncatedSeries

A = GeneratorList.of(5, 3, 5)
Q = QuotientSpec(A, 2)


def _records():
    u = Monomial(Fraction(2), 3)
    return [A, build_membership(A, B=8), Q, enumerate_Tp(Q),
            verify_generators(Q), rgf_series(A, 2, 4), rgf_rational(A, 2),
            u, BinomialFactor(u, -2),
            residue_A0(parse_elliott("1/((1 - x*L^-2)*(1 - L^3))"), 1),
            TruncatedSeries(1, (1, 0))]


@pytest.mark.parametrize("r", _records(), ids=lambda r: type(r).__name__)
def test_record_fields_equality_hash_repr(r):
    cls = type(r)
    fields = {f: getattr(r, f) for f in cls._fields}
    twin = cls(**fields)
    assert twin == r and hash(twin) == hash(r)
    body = ", ".join(f"{f}={v!r}" for f, v in fields.items())
    assert repr(r) == f"{cls.__name__}({body})"
    with pytest.raises(AttributeError):
        setattr(r, cls._fields[0], None)
    assert not hasattr(r, "__dict__")


def test_records_are_tuples():
    assert A == ((5, 3, 5), (3, 5), 1) and A != GeneratorList.of(3, 5)
    assert A.gens == (3, 5) and str(A) == "5,3,5"
    assert Monomial(Fraction(2), 3) * Monomial(Fraction(1, 2), -1) == \
        Monomial(Fraction(1), 2)
    assert KernelTruncatedSeries is TruncatedSeries


@pytest.mark.parametrize("build, error, message", [
    (lambda: QuotientSpec(A, 0), ValueError, "p must be a positive integer"),
    (lambda: QuotientSpec(A=A, p=-1), ValueError,
     "p must be a positive integer"),
    (lambda: QuotientSpec(GeneratorList.of(4, 6), 2), GcdNotOne,
     "quotients are taken of numerical semigroups only"),
    (lambda: TruncatedSeries(2, (1,)), ValueError,
     "coefficient list must have length order + 1"),
    (lambda: Monomial(0, 1), ValueError, "monomial coefficient must be nonzero"),
    (lambda: Monomial(coef=Fraction(0), xexp=1), ValueError,
     "monomial coefficient must be nonzero"),
])
def test_records_validate_on_construction(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message
