"""Quotient semigroups <A>/p: direct membership, generator systems from
the T_p tuple enumeration, the split for p-divisible generators, the
paper's Table 1 as the componentwise-minimal T_p tuples, minimalization,
and verification against the brute-force oracle.

n is in <A>/p iff p*n is in <A>, so <A>/p is read off one certified table
of <A> (`build_membership`): its Apery set at m = min(A) is m ints derived
from Ap(<A>, m), with no table of its own, and F(<A>/p), its minimal
generators and the generator checks come from it.  A false check sieves
the candidate system to list the mismatches.
"""
from __future__ import annotations

import itertools
import operator
from collections import namedtuple

from .errors import CapExceeded, GcdNotOne, NoMatchingRow, NotCoprimePart
from .semigroup import (DEFAULT_SIEVE_CAP, GeneratorList, MembershipTable,
                        _apery_of, _check_cap, _minimal_generators,
                        build_membership)

DEFAULT_TP_CAP = 10**7


class QuotientSpec(namedtuple("QuotientSpec", "A p")):
    """A quotient instance <A>/p with the generators split into the
    p-divisible part and the coprime-residue part."""

    __slots__ = ()

    def __new__(cls, A: GeneratorList, p: int):
        if p < 1:
            raise ValueError("p must be a positive integer")
        if A.g != 1:
            raise GcdNotOne("quotients are taken of numerical semigroups only")
        return tuple.__new__(cls, (A, p))

    @property
    def divisible(self) -> tuple[int, ...]:
        return tuple(a for a in self.A.gens if a % self.p == 0)

    @property
    def remainder(self) -> tuple[int, ...]:
        return tuple(a for a in self.A.gens if a % self.p != 0)


class TpSet(namedtuple("TpSet", "p gens tuples values")):
    """Tuples x in [0, p-1]^n with positive residue sum divisible by p,
    together with the values (sum x_i a_i)/p they contribute."""

    __slots__ = ()


def enumerate_Tp(q: QuotientSpec, cap: int = DEFAULT_TP_CAP) -> TpSet:
    """Enumerate T_p over the non-p-divisible generators of q."""
    return _enumerate_tp(q.remainder, q.p, cap)


def _enumerate_tp(gens: tuple[int, ...], p: int, cap: int) -> TpSet:
    ts = [a % p for a in gens]
    if any(t == 0 for t in ts):
        raise NotCoprimePart("T_p enumeration needs p to divide no generator")
    if gens and p ** len(gens) > cap:
        raise CapExceeded(f"{p ** len(gens)} tuples exceed cap {cap}")
    tuples = []
    values = []
    for x in itertools.product(range(p), repeat=len(gens)):
        s = sum(xi * ti for xi, ti in zip(x, ts))
        if s > 0 and s % p == 0:
            tuples.append(x)
            values.append(sum(xi * ai for xi, ai in zip(x, gens)) // p)
    return TpSet(p, gens, tuple(tuples), tuple(values))


def _quotient_apery(base: MembershipTable, p: int) -> list[int]:
    """Ap(<A>/p, m), m = min(A), read off w = Ap(<A>, m), which the
    certified table of <A> holds: x = r + m*t is in <A>/p iff
    p*x >= w[p*r % m], so t is the least t >= 0 with that."""
    m = base.gens[0]
    w = _apery_of(base, m)
    return [r + m * max(0, -((p * r - w[p * r % m]) // (p * m)))
            for r in range(m)]


def _quotient_frobenius(wq: list[int]) -> int | None:
    """F(<A>/p) from its Apery set, or None when <A>/p is N."""
    f = max(wq) - len(wq)
    return f if f > 0 else None


def quotient_membership(q: QuotientSpec, B: int,
                        cap: int = DEFAULT_SIEVE_CAP) -> MembershipTable:
    """Flags for n <= B with n a member iff p*n is in <A>, read off the
    certified table of <A>, past whose bound every p*n is a member.
    Reading <A> up to p*B is charged against cap like a sieve of that size."""
    if B < 0:
        raise ValueError(f"bound must be non-negative, got {B}")
    base = build_membership(q.A, cap=cap)
    _check_cap(q.p * B + 1, cap)
    bits = base.bits[:q.p * B + 1:q.p].ljust(B + 1, b"\x01")
    f = _quotient_frobenius(_quotient_apery(base, q.p)) or 0
    return MembershipTable(q.A.gens, B, bits, f <= B, f if f <= B else None)


def frobenius_quotient(q: QuotientSpec, cap: int = DEFAULT_SIEVE_CAP) -> int | None:
    return _quotient_frobenius(
        _quotient_apery(build_membership(q.A, cap=cap), q.p))


def generators_thm(q: QuotientSpec, cap: int = DEFAULT_TP_CAP) -> list[int]:
    """Generator system of <A>/p: divisible generators divided by p, the
    remaining generators, and the T_p values over the remaining part."""
    out = {a // q.p for a in q.divisible}
    rem = q.remainder
    if rem:
        tp = _enumerate_tp(rem, q.p, cap)
        out.update(rem)
        out.update(tp.values)
    return sorted(out)


def minimal_quotient_generators(q: QuotientSpec,
                                cap: int = DEFAULT_SIEVE_CAP) -> list[int]:
    """Unique minimal generating set of <A>/p from its Apery set."""
    return _minimal_generators(
        q.A.gens[0], _quotient_apery(build_membership(q.A, cap=cap), q.p))


class VerificationReport(namedtuple(
        "VerificationReport",
        "ok bound generators quotient_frobenius mismatches")):
    __slots__ = ()


def _compare_with_quotient(gens, q: QuotientSpec, cap: int):
    """(F(<A>/p), bound, mismatches) between <gens> and <A>/p on 0..bound,
    a range that decides set equality.  <gens> = <A>/p iff every g is in
    <A>/p and every minimal generator of <A>/p is a g, which the one table
    of <A> decides; <gens> is sieved only to list the mismatches."""
    base = build_membership(q.A, cap=cap)
    m = q.A.gens[0]
    wq = _quotient_apery(base, q.p)
    f = _quotient_frobenius(wq)
    bound = (f or 0) + min(gens) + 1
    # the report covers 0..bound of <A>/p, charged as if read off
    _check_cap(q.p * bound + 1, cap)
    G = GeneratorList.from_iter(gens)
    if (all(g >= wq[g % m] for g in G.gens)
            and set(_minimal_generators(m, wq)) <= set(G.gens)):
        return f, bound, ()
    gt = build_membership(G, B=bound, cap=cap)
    return f, bound, tuple(n for n in range(bound + 1)
                           if (n >= wq[n % m]) != gt.bits[n])


def verify_generators(q: QuotientSpec, cap: int = DEFAULT_SIEVE_CAP,
                      tp_cap: int = DEFAULT_TP_CAP) -> VerificationReport:
    """Check that the generator system actually generates <A>/p, by
    comparing membership up to a bound that decides set equality."""
    gens = generators_thm(q, cap=tp_cap)
    f, bound, mismatches = _compare_with_quotient(gens, q, cap)
    return VerificationReport(not mismatches, bound, tuple(gens), f, mismatches)


def generates_quotient(gens, q: QuotientSpec,
                       cap: int = DEFAULT_SIEVE_CAP) -> bool:
    """True iff the semigroup generated by `gens` equals <A>/p; <{}> = {0}
    never does."""
    gens = sorted(set(gens))
    return bool(gens) and not _compare_with_quotient(gens, q, cap)[2]


def table1_generators(q: QuotientSpec, cap: int = DEFAULT_TP_CAP) -> list[int]:
    """Table 1 of the paper, three generators and p in {2, 3}: the
    generators (divided by p where p divides them) and the values of the
    componentwise-minimal T_p tuples over the coprime part, whose
    enumeration is charged against cap."""
    if q.p not in (2, 3) or len(q.A.gens) != 3:
        raise NoMatchingRow("rows cover three distinct generators with p in {2, 3}")
    tp = _enumerate_tp(q.remainder, q.p, cap)
    minimal = (v for x, v in zip(tp.tuples, tp.values)
               if not any(y != x and all(map(operator.le, y, x))
                          for y in tp.tuples))
    return sorted({a // q.p for a in q.divisible}.union(q.remainder, minimal))
