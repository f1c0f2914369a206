import itertools
import random

import pytest

from nsq.errors import GcdNotOne, NotAMember
from nsq.exactalg import Poly, RationalFunction, series_from_rational
from nsq.semigroup import (GeneratorList, apery, build_membership, denumerant,
                           denumerant_series, frobenius, gaps,
                           minimal_generators, semigroup_equal)


def G(*a):
    return GeneratorList.of(*a)


class TestGeneratorList:
    def test_canonicalization(self):
        A = G(6, 5, 6)
        assert A.seq == (6, 5, 6)
        assert A.gens == (5, 6)
        assert A.g == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            G(0, 3)
        with pytest.raises(ValueError):
            GeneratorList.from_iter([])

    def test_parse(self):
        assert GeneratorList.parse("5,6").gens == (5, 6)
        with pytest.raises(ValueError):
            GeneratorList.parse("5,a")

    def test_residues(self):
        assert G(5, 6).residues(3) == [(5, 1, 2), (6, 2, 0)]


class TestMembership:
    def test_listing_5_6(self):
        t = build_membership(G(5, 6), B=20)
        expected = {0, 5, 6, 10, 11, 12, 15, 16, 17, 18, 20}
        assert set(t.members()) == expected

    def test_all_naturals(self):
        t = build_membership(G(1), B=3)
        assert t.members() == [0, 1, 2, 3]

    def test_3_5(self):
        t = build_membership(G(3, 5), B=10)
        assert set(t.members()) == {0, 3, 5, 6, 8, 9, 10}

    def test_auto_extension_is_certified(self):
        t = build_membership(G(5, 6))
        assert t.certified
        assert t.member(10**6)

    def test_gcd_not_one_rejected(self):
        with pytest.raises(GcdNotOne):
            build_membership(G(4, 6))

    def test_negative_bound_is_value_error(self):
        with pytest.raises(ValueError):
            build_membership(G(3, 5), B=-1)


class TestFrobenius:
    def test_classic(self):
        assert frobenius(G(3, 5)) == 7

    def test_naturals(self):
        assert frobenius(G(1)) is None

    def test_5_6(self):
        assert frobenius(G(5, 6)) == 19

    def test_equals_max_gap(self):
        for gens in [(3, 5), (5, 6), (4, 7, 9), (3, 7)]:
            g = gaps(G(*gens))
            assert frobenius(G(*gens)) == max(g)


class TestGaps:
    def test_examples(self):
        assert gaps(G(3, 5)) == [1, 2, 4, 7]
        assert gaps(G(1)) == []
        assert gaps(G(2, 5)) == [1, 3]


class TestApery:
    def test_examples(self):
        assert apery(G(3, 5), 3) == [0, 10, 5]
        assert apery(G(1), 1) == [0]
        assert apery(G(2, 5), 2) == [0, 5]

    def test_not_a_member(self):
        with pytest.raises(NotAMember):
            apery(G(3, 5), 4)

    def test_structure(self):
        for gens, m in [((3, 5), 5), ((5, 6), 5), ((4, 7, 9), 4)]:
            A = G(*gens)
            ap = apery(A, m)
            assert sorted(a % m for a in ap) == list(range(m))
            assert min(ap) == 0
            assert max(ap) == frobenius(A) + m

    def test_least_member_per_class(self):
        rng = random.Random(29)
        done = 0
        while done < 60:
            A = G(*(rng.randint(2, 60) for _ in range(rng.randint(2, 4))))
            if A.g != 1:
                continue
            t = build_membership(A)
            # a member other than the multiplicity, often a non-generator
            m = rng.choice([n for n in range(A.gens[0] + 1, 3 * A.gens[-1])
                            if t.member(n)])
            brute = [next(n for n in itertools.count(r, m) if t.member(n))
                     for r in range(m)]
            assert apery(A, m) == brute
            done += 1


class TestMinimalGenerators:
    def test_examples(self):
        assert minimal_generators(G(2, 4, 5)) == [2, 5]
        assert minimal_generators(G(3, 4, 5)) == [3, 4, 5]
        assert minimal_generators(G(1, 7)) == [1]

    def test_fixed_point(self):
        rng = random.Random(23)
        for _ in range(15):
            gens = sorted(set(rng.randint(2, 25) for _ in range(rng.randint(2, 4))))
            A = G(*gens)
            if A.g != 1:
                continue
            mg = minimal_generators(A)
            assert minimal_generators(G(*mg)) == mg

    def test_large_rung(self):
        assert minimal_generators(G(1001, 1003, 1007)) == [1001, 1003, 1007]


class TestSemigroupEqual:
    def test_quotient_listing(self):
        assert semigroup_equal(G(2, 5), G(2, 5, 4))

    def test_redundant_generator(self):
        assert semigroup_equal(G(3, 5), G(3, 5, 8))

    def test_different(self):
        assert not semigroup_equal(G(3, 5), G(3, 7))


class TestDenumerant:
    def test_examples(self):
        assert denumerant(0, G(3, 5)) == 1
        assert denumerant(15, G(3, 5)) == 2
        assert denumerant(7, G(3, 5)) == 0

    def test_series_examples(self):
        assert denumerant_series(G(3, 5), 8).coeffs == (1, 0, 0, 1, 0, 1, 1, 0, 1)
        assert denumerant_series(G(1), 3).coeffs == (1, 1, 1, 1)
        assert denumerant_series(G(5, 6), 11).coeffs == (
            1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 1, 1)

    def test_repeated_generators_count(self):
        # d(4; 2, 2) distinguishes the two identical parts
        assert denumerant(4, G(2, 2)) == 3
        assert denumerant(4, G(2)) == 1

    def test_enumeration_oracle(self):
        rng = random.Random(29)
        for _ in range(10):
            gens = [rng.randint(2, 9) for _ in range(rng.randint(2, 3))]
            A = G(*gens)
            n = rng.randint(0, 30)
            count = 0
            def walk(i, rest):
                nonlocal count
                if i == len(gens):
                    count += rest == 0
                    return
                for k in range(rest // gens[i] + 1):
                    walk(i + 1, rest - k * gens[i])
            walk(0, n)
            assert denumerant(n, A) == count

    def test_matches_rational_expansion(self):
        for gens in [(3, 5), (5, 6), (4, 7, 9)]:
            A = G(*gens)
            den = Poly.from_ints([1])
            for a in gens:
                den = den * Poly.one_minus_pow(a)
            f = RationalFunction(Poly.from_ints([1]), den)
            n = 40
            assert series_from_rational(f, n).coeffs == denumerant_series(A, n).coeffs

    def test_positivity_matches_membership(self):
        for gens in [(3, 5), (5, 6), (4, 7, 9)]:
            A = G(*gens)
            t = build_membership(A, B=50)
            s = denumerant_series(A, 50)
            for n in range(51):
                assert (s.coeffs[n] > 0) == bool(t.bits[n])

    def test_negative_truncation_is_value_error(self):
        with pytest.raises(ValueError):
            denumerant_series(G(3, 5), -1)
