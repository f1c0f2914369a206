import itertools
import math
import random

import pytest

import nsq.quotient
import nsq.semigroup
from nsq.errors import CapExceeded, GcdNotOne, NoMatchingRow
from nsq.quotient import (QuotientSpec, _enumerate_tp, enumerate_Tp,
                          frobenius_quotient, generates_quotient,
                          generators_thm, minimal_quotient_generators,
                          quotient_membership, table1_generators,
                          verify_generators)
from nsq.semigroup import (GeneratorList, apery, build_membership, frobenius,
                           gaps, minimal_generators, semigroup_equal)


def Q(gens, p):
    return QuotientSpec(GeneratorList.of(*gens), p)


def random_coprime(rng, n, amax):
    while True:
        gens = sorted(set(rng.randint(2, amax) for _ in range(n)))
        if len(gens) >= 2 and math.gcd(*gens) == 1:
            return gens


class TestQuotientMembership:
    def test_5_6_by_3_members(self):
        t = quotient_membership(Q((5, 6), 3), 6)
        assert t.members() == [0, 2, 4, 5, 6]

    def test_p_one_is_identity(self):
        A = GeneratorList.of(3, 5)
        t1 = quotient_membership(QuotientSpec(A, 1), 10)
        t0 = build_membership(A, B=10)
        assert t1.bits == t0.bits

    def test_3_5_by_2(self):
        t = quotient_membership(Q((3, 5), 2), 6)
        assert t.members() == [0, 3, 4, 5, 6]

    def test_gcd_required(self):
        with pytest.raises(GcdNotOne):
            QuotientSpec(GeneratorList.of(4, 6), 2)

    def test_negative_bound_is_value_error(self):
        with pytest.raises(ValueError):
            quotient_membership(Q((3, 5), 2), -1)


class TestEnumerateTp:
    def test_mixed_residue_pair_p3(self):
        ts = enumerate_Tp(Q((4, 11), 3))  # t = (1, 2)
        assert set(ts.tuples) == {(1, 1), (2, 2)}

    def test_equal_residue_pair_p3(self):
        ts = enumerate_Tp(Q((4, 7), 3))  # t = (1, 1)
        assert set(ts.tuples) == {(1, 2), (2, 1)}
        ts = enumerate_Tp(Q((5, 8), 3))  # t = (2, 2)
        assert set(ts.tuples) == {(1, 2), (2, 1)}

    def test_odd_pair_p2(self):
        ts = enumerate_Tp(Q((3, 5), 2))
        assert ts.tuples == ((1, 1),)
        assert ts.values == (4,)

    def test_p_one_empty(self):
        ts = enumerate_Tp(Q((3, 5), 1))
        assert ts.tuples == ()

    def test_values_are_members(self):
        rng = random.Random(31)
        for _ in range(20):
            gens = random_coprime(rng, rng.randint(2, 3), 30)
            p = rng.randint(2, 5)
            q = Q(gens, p)
            ts = enumerate_Tp(q)
            bound = max(ts.values, default=1)
            t = quotient_membership(q, bound)
            assert all(t.member(v) for v in ts.values)


class TestGeneratorsThm:
    def test_5_6_by_3_generators(self):
        assert generators_thm(Q((5, 6), 3)) == [2, 5]

    def test_even_odd_pair_p2(self):
        assert generators_thm(Q((4, 7), 2)) == [2, 7]

    def test_table1_row_4_11_14(self):
        gens = generators_thm(Q((4, 11, 14), 3))
        assert {4, 11, 14, 5, 6, 12, 13} <= set(gens)
        assert generates_quotient(gens, Q((4, 11, 14), 3))

    def test_empty_candidates_do_not_generate(self):
        assert generates_quotient([], Q((4, 11, 14), 3)) is False
        assert generates_quotient((), Q((3, 5), 8)) is False

    def test_quotient_by_member_is_naturals(self):
        report = verify_generators(Q((3, 5), 8))
        assert report.ok
        assert 1 in report.generators


class TestMinimalQuotientGenerators:
    def test_examples(self):
        assert minimal_quotient_generators(Q((5, 6), 3)) == [2, 5]
        assert minimal_quotient_generators(Q((3, 5), 2)) == [3, 4, 5]

    def test_p_one(self):
        A = GeneratorList.of(2, 4, 5)
        assert (minimal_quotient_generators(QuotientSpec(A, 1))
                == minimal_generators(A))

    def test_subset_of_thm_semigroup(self):
        rng = random.Random(37)
        for _ in range(10):
            gens = random_coprime(rng, 2, 25)
            p = rng.randint(2, 4)
            q = Q(gens, p)
            mg = minimal_quotient_generators(q)
            assert generates_quotient(mg, q)
            assert semigroup_equal(GeneratorList.from_iter(mg),
                                   GeneratorList.from_iter(generators_thm(q)))


def brute_minimal_generators(member, f):
    """The pairwise-sum definition: the nonzero members up to F + m that
    are no sum of two nonzero members, m the least nonzero member."""
    if f is None:
        return [1]
    m = next(n for n in range(1, f + 2) if member(n))
    members = [n for n in range(1, f + m + 1) if member(n)]
    member_set = set(members)
    return [c for c in members
            if not any(s in member_set and (c - s) in member_set
                       for s in range(1, c // 2 + 1))]


class TestMinimalGeneratorsOracle:
    def test_seeded_against_pairwise_sums(self):
        rng = random.Random(53)
        done = 0
        while done < 200:
            A = GeneratorList.from_iter(
                rng.randint(1, 120) for _ in range(rng.randint(1, 5)))
            if A.g != 1:
                continue
            p = rng.randint(1, 7)
            base = build_membership(A)
            f = frobenius(A)
            assert minimal_generators(A) == brute_minimal_generators(
                base.member, f)
            fq = max((n for n in range((f or 0) // p + 1)
                      if not base.member(p * n)), default=None)
            q = QuotientSpec(A, p)
            assert minimal_quotient_generators(q) == (
                brute_minimal_generators(lambda n: base.member(p * n), fq))
            assert frobenius_quotient(q) == fq
            qt = quotient_membership(q, (fq or 0) + 1)
            assert list(qt.bits) == [base.member(p * n)
                                     for n in range((fq or 0) + 2)]
            done += 1


class TestFrobeniusQuotient:
    def test_examples(self):
        assert frobenius_quotient(Q((5, 6), 3)) == 3
        assert frobenius_quotient(Q((5, 6), 4)) == 2
        assert frobenius_quotient(Q((3, 5), 8)) is None


class TestVerifyGenerators:
    def test_random_suite(self):
        rng = random.Random(41)
        for _ in range(40):
            n = rng.randint(2, 4)
            p = rng.randint(2, 6)
            gens = random_coprime(rng, n, 40)
            q = Q(gens, p)
            report = verify_generators(q)
            assert report.ok, (gens, p, report)

    def test_missing_minimal_generator_is_reported(self, monkeypatch):
        rng = random.Random(59)
        thm = nsq.quotient.generators_thm
        done = 0
        while done < 30:
            q = Q(random_coprime(rng, rng.randint(2, 4), 40), rng.randint(2, 6))
            dropped = rng.choice(minimal_quotient_generators(q))
            gens = [g for g in thm(q) if g != dropped]
            if not gens:
                continue
            monkeypatch.setattr(nsq.quotient, "generators_thm",
                                lambda q, cap: gens)
            report = verify_generators(q)
            bound = (frobenius_quotient(q) or 0) + min(gens) + 1
            qt = quotient_membership(q, bound)
            gt = build_membership(GeneratorList.from_iter(gens), B=bound)
            assert not report.ok
            assert report.bound == bound
            assert report.mismatches == tuple(
                n for n in range(bound + 1) if qt.bits[n] != gt.bits[n])
            assert dropped in report.mismatches
            done += 1

    def test_containment_and_naturals_iff(self):
        rng = random.Random(43)
        for _ in range(30):
            gens = random_coprime(rng, rng.randint(2, 3), 30)
            p = rng.randint(2, 6)
            A = GeneratorList.from_iter(gens)
            q = QuotientSpec(A, p)
            base = build_membership(A)
            f = frobenius(A)
            bound = (f or 0) + max(gens) + 1
            qt = quotient_membership(q, bound)
            assert all(qt.member(n) for n in range(bound + 1) if base.member(n))
            quotient_is_n = frobenius_quotient(q) is None
            assert quotient_is_n == base.member(p)


_A = GeneratorList.of(7, 9, 13)
_Q = QuotientSpec(_A, 3)
# (query, arguments, sieves it runs): one of <A> per query, plus one of
# B where semigroup_equal compares <A> with <B>, and one of the candidate
# system where generates_quotient lists the mismatches of a false answer
_SIEVES = [
    (frobenius, (_A,), 1),
    (gaps, (_A,), 1),
    (apery, (_A, 9), 1),
    (minimal_generators, (_A,), 1),
    (semigroup_equal, (_A, GeneratorList.of(7, 9, 13, 16)), 2),
    (quotient_membership, (_Q, 40), 1),
    (frobenius_quotient, (_Q,), 1),
    (minimal_quotient_generators, (_Q,), 1),
    (verify_generators, (_Q,), 1),
    (generates_quotient, ([3, 5, 7], _Q), 2),
    (generates_quotient, (minimal_quotient_generators(_Q), _Q), 1),
]
_IDS = [q.__name__ for q, _, _ in _SIEVES[:-1]] + ["generates_quotient_true"]


@pytest.mark.parametrize("query, args, sieves", _SIEVES, ids=_IDS)
def test_one_sieve_per_semigroup(monkeypatch, query, args, sieves):
    calls = []
    sieve = nsq.semigroup._sieve_bits

    def counting(gens, bound):
        calls.append(gens)
        return sieve(gens, bound)

    monkeypatch.setattr(nsq.semigroup, "_sieve_bits", counting)
    query(*args)
    assert len(calls) == sieves


class TestTable1:
    def test_known_rows(self):
        assert table1_generators(Q((3, 5, 7), 2)) == [3, 4, 5, 6, 7]
        assert table1_generators(Q((3, 6, 7), 3)) == [1, 2, 7]
        assert table1_generators(Q((6, 7, 11), 3)) == [2, 6, 7, 11]

    def test_charges_the_tp_cap(self):
        # the 2^3 tuples of [0, 1]^3, as generators_thm charges them
        assert table1_generators(Q((3, 5, 7), 2), cap=8) == [3, 4, 5, 6, 7]
        with pytest.raises(CapExceeded, match="8 tuples exceed cap 7"):
            table1_generators(Q((3, 5, 7), 2), cap=7)
        with pytest.raises(CapExceeded, match="8 tuples exceed cap 7"):
            generators_thm(Q((3, 5, 7), 2), cap=7)

    def test_no_matching_row(self):
        with pytest.raises(NoMatchingRow):
            table1_generators(Q((3, 5, 7), 5))
        with pytest.raises(NoMatchingRow):
            table1_generators(Q((3, 5), 2))

    def test_rows_generate_quotient(self):
        rng = random.Random(47)
        cases = 0
        while cases < 30:
            p = rng.choice((2, 3))
            gens = sorted(set(rng.randint(2, 60) for _ in range(3)))
            if len(gens) != 3 or math.gcd(*gens) != 1:
                continue
            if all(a % p == 0 for a in gens):
                continue
            q = Q(gens, p)
            assert generates_quotient(table1_generators(q), q)
            cases += 1


# Table 1 of the paper as once typed by hand, kept as the oracle of the
# derived table.  Each row maps the residue pattern (sorted) to
# coefficient vectors (c1,c2,c3) and a divisor d, meaning
# (c1*a1 + c2*a2 + c3*a3)/d with the a_i sorted by residue mod p.
_TABLE1_ROWS = {
    (2, (0, 0, 1)): [((1, 0, 0), 2), ((0, 1, 0), 2), ((0, 0, 1), 1)],
    (2, (0, 1, 1)): [((1, 0, 0), 2), ((0, 1, 0), 1), ((0, 0, 1), 1),
                     ((0, 1, 1), 2)],
    (2, (1, 1, 1)): [((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1),
                     ((1, 1, 0), 2), ((1, 0, 1), 2), ((0, 1, 1), 2)],
    (3, (0, 0, 1)): [((1, 0, 0), 3), ((0, 1, 0), 3), ((0, 0, 1), 1)],
    (3, (0, 0, 2)): [((1, 0, 0), 3), ((0, 1, 0), 3), ((0, 0, 1), 1)],
    (3, (0, 1, 1)): [((1, 0, 0), 3), ((0, 1, 0), 1), ((0, 0, 1), 1),
                     ((0, 1, 2), 3), ((0, 2, 1), 3)],
    (3, (0, 1, 2)): [((1, 0, 0), 3), ((0, 1, 0), 1), ((0, 0, 1), 1),
                     ((0, 1, 1), 3)],
    (3, (0, 2, 2)): [((1, 0, 0), 3), ((0, 1, 0), 1), ((0, 0, 1), 1),
                     ((0, 2, 1), 3), ((0, 1, 2), 3)],
    (3, (1, 1, 1)): [((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1),
                     ((2, 1, 0), 3), ((2, 0, 1), 3), ((1, 2, 0), 3),
                     ((0, 2, 1), 3), ((1, 0, 2), 3), ((0, 1, 2), 3),
                     ((1, 1, 1), 3)],
    (3, (1, 1, 2)): [((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1),
                     ((1, 0, 1), 3), ((0, 1, 1), 3), ((2, 1, 0), 3),
                     ((1, 2, 0), 3)],
    (3, (1, 2, 2)): [((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1),
                     ((1, 1, 0), 3), ((1, 0, 1), 3), ((0, 2, 1), 3),
                     ((0, 1, 2), 3)],
    (3, (2, 2, 2)): [((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1),
                     ((2, 1, 0), 3), ((2, 0, 1), 3), ((1, 2, 0), 3),
                     ((0, 2, 1), 3), ((1, 0, 2), 3), ((0, 1, 2), 3),
                     ((1, 1, 1), 3)],
}


def _typed_table1(gens, p):
    """table1_generators the old way: look the rows up and evaluate them."""
    by_t = sorted(gens, key=lambda a: (a % p, a))
    out = set()
    for coeffs, d in _TABLE1_ROWS[p, tuple(a % p for a in by_t)]:
        v = sum(c * a for c, a in zip(coeffs, by_t))
        assert v % d == 0
        out.add(v // d)
    return sorted(out)


class TestTable1IsMinimalTp:
    def test_every_pattern_has_a_row(self):
        patterns = {(p, t) for p in (2, 3)
                    for t in itertools.combinations_with_replacement(
                        range(p), 3) if any(t)}
        assert set(_TABLE1_ROWS) == patterns

    @pytest.mark.parametrize("p, pattern", sorted(_TABLE1_ROWS))
    def test_rows_are_units_and_minimal_tuples(self, p, pattern):
        units = [(tuple(int(i == j) for j in range(3)), 1 if t else p)
                 for i, t in enumerate(pattern)]
        pos = [i for i, t in enumerate(pattern) if t]
        tuples = _enumerate_tp(tuple(pattern[i] for i in pos), p, 10**3).tuples
        minimal = [x for x in tuples
                   if not any(y != x and all(a <= b for a, b in zip(y, x))
                              for y in tuples)]
        derived = units + [(tuple(dict(zip(pos, x)).get(i, 0)
                                  for i in range(3)), p)
                           for x in minimal]
        rows = _TABLE1_ROWS[p, pattern]
        assert len(set(rows)) == len(rows)
        assert sorted(rows) == sorted(derived)

    def test_matches_the_typed_rows(self):
        rng = random.Random(59)
        cases = 0
        while cases < 2000:
            p = rng.choice((2, 3))
            gens = rng.sample(range(2, 80), 3)
            if math.gcd(*gens) != 1:
                continue
            assert table1_generators(Q(gens, p)) == _typed_table1(gens, p)
            cases += 1

    def test_scope_message(self):
        msg = r"rows cover three distinct generators with p in \{2, 3\}"
        for gens, p in (((3, 5, 7), 5), ((3, 5), 2), ((3, 5, 7, 11), 3)):
            with pytest.raises(NoMatchingRow, match=msg):
                table1_generators(Q(gens, p))
