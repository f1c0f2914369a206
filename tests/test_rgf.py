import random
from collections import Counter

import pytest

from nsq.errors import CapExceeded, NegativeNumerator
from nsq.exactalg import Poly, RationalFunction, series_from_rational
from nsq.quotient import (QuotientSpec, frobenius_quotient,
                          generates_quotient, quotient_membership)
from nsq.rgf import (RGFRational, frobenius_from_rgf, from_json_dict,
                     gens_from_rgf, render_text, rgf_rational, rgf_series,
                     to_json_dict)
from nsq.semigroup import GeneratorList, denumerant


def G(*a):
    return GeneratorList.of(*a)


def expand_closed_form(r: RGFRational, N: int) -> tuple[int, ...]:
    """numerator / prod (1 - x^b) through x^N in plain integers."""
    coeffs = list(r.numerator[:N + 1]) + [0] * (N + 1 - len(r.numerator))
    for b in r.denom_factors:
        for n in range(b, N + 1):
            coeffs[n] += coeffs[n - b]
    return tuple(coeffs)


class TestRgfSeries:
    def test_examples(self):
        assert rgf_series(G(3, 5), 2, 5).coeffs == (1, 0, 0, 1, 1, 1)
        assert rgf_series(G(5, 6), 3, 6).coeffs == (1, 0, 1, 0, 1, 1, 1)

    def test_negative_truncation_is_value_error(self):
        with pytest.raises(ValueError):
            rgf_series(G(3, 5), 2, -1)

    def test_p_one_is_denumerant_series(self):
        from nsq.semigroup import denumerant_series
        assert rgf_series(G(3, 5), 1, 10).coeffs == denumerant_series(G(3, 5), 10).coeffs

    def test_multisection_identity(self):
        rng = random.Random(53)
        for _ in range(10):
            gens = [rng.randint(2, 12) for _ in range(rng.randint(2, 3))]
            A = G(*gens)
            p = rng.randint(1, 5)
            s = rgf_series(A, p, 15)
            for n in range(16):
                assert s.coeffs[n] == denumerant(p * n, A)


class TestRgfRational:
    def test_3_5_by_2(self):
        r = rgf_rational(G(3, 5), 2)
        assert r.numerator == (1, 0, 0, 0, 1)
        assert r.denom_factors == (3, 5)

    def test_p_one_product_form(self):
        r = rgf_rational(G(5, 6), 1)
        assert r.numerator == (1,)
        assert r.denom_factors == (5, 6)

    def test_4_11_14_by_3_multiset(self):
        r = rgf_rational(G(4, 11, 14), 3)
        support = Counter()
        for e, c in enumerate(r.numerator):
            support[e] += c
        expected = Counter({0: 1, 5: 1, 6: 1, 10: 1, 11: 1, 12: 2, 13: 1, 18: 1})
        assert support == +expected
        assert r.denom_factors == (4, 11, 14)

    def test_closed_form_agrees_at_double_horizon(self):
        rng = random.Random(59)
        for _ in range(8):
            gens = sorted(set(rng.randint(2, 20) for _ in range(2)))
            A = GeneratorList.from_iter(gens)
            if A.g != 1 or len(gens) < 2:
                continue
            p = rng.randint(1, 4)
            r = rgf_rational(A, p)
            N = 2 * r.certified_to
            assert (series_from_rational(r.to_rational(), N).coeffs
                    == tuple(rgf_series(A, p, N).coeffs))

    def test_closed_form_matches_series(self):
        rng = random.Random(71)
        checked = 0
        while checked < 120:
            A = GeneratorList.from_iter(
                rng.randint(1, 40) for _ in range(rng.randint(1, 4)))
            if A.g != 1:
                continue
            p = rng.randint(1, 7)
            r = rgf_rational(A, p)
            assert len(r.numerator) - 1 <= sum(r.denom_factors)
            assert expand_closed_form(r, 200) == rgf_series(A, p, 200).coeffs
            checked += 1

    def test_rung_997_991_983(self):
        A = G(997, 991, 983)
        r = rgf_rational(A, 2)
        assert r.denom_factors == (983, 991, 997)
        assert expand_closed_form(r, 299) == rgf_series(A, 2, 299).coeffs

    def test_cap(self):
        # P would hold 1 + 200002 * (3 + 5) coefficients
        with pytest.raises(CapExceeded):
            rgf_rational(G(3, 5), 200003, cap=10**5)
        # P has 9 coefficients, the F(A) sieve 29 cells
        with pytest.raises(CapExceeded):
            rgf_rational(G(3, 5), 2, cap=10)
        assert rgf_rational(G(3, 5), 2, cap=50) == rgf_rational(G(3, 5), 2)

    def test_positivity_matches_membership(self):
        for gens, p in [((3, 5), 2), ((5, 6), 3), ((4, 11, 14), 3)]:
            A = G(*gens)
            N = 30
            coeffs = rgf_series(A, p, N).coeffs
            t = quotient_membership(QuotientSpec(A, p), N)
            for n in range(N + 1):
                assert (coeffs[n] > 0) == t.member(n)


class TestFrobeniusFromRgf:
    def test_known_values(self):
        assert frobenius_from_rgf(G(5, 6), 3) == 3
        assert frobenius_from_rgf(G(7, 8), 6) == 3
        assert frobenius_from_rgf(G(8, 9), 7) == 4

    def test_naturals(self):
        assert frobenius_from_rgf(G(3, 5), 8) is None

    def test_cap(self):
        with pytest.raises(CapExceeded):
            frobenius_from_rgf(G(5, 6), 3, cap=10)

    def test_matches_sieve(self):
        rng = random.Random(61)
        for _ in range(25):
            gens = sorted(set(rng.randint(2, 25) for _ in range(2)))
            A = GeneratorList.from_iter(gens)
            if A.g != 1 or len(gens) < 2:
                continue
            p = rng.randint(2, 6)
            q = QuotientSpec(A, p)
            assert frobenius_from_rgf(A, p) == frobenius_quotient(q)


class TestGensFromRgf:
    def test_examples(self):
        A = G(3, 5)
        assert gens_from_rgf(rgf_rational(A, 2), A, 2) == [3, 4, 5]
        B = G(5, 6)
        assert gens_from_rgf(rgf_rational(B, 1), B, 1) == [5, 6]
        C = G(4, 11, 14)
        assert gens_from_rgf(rgf_rational(C, 3), C, 3) == [4, 5, 6, 10, 11, 12, 13, 14, 18]

    def test_negative_numerator_rejected(self):
        r = RGFRational((1, -1), (3, 5), 10)
        with pytest.raises(NegativeNumerator):
            gens_from_rgf(r, G(3, 5), 2)

    def test_soundness(self):
        rng = random.Random(67)
        for _ in range(10):
            gens = sorted(set(rng.randint(2, 20) for _ in range(2)))
            A = GeneratorList.from_iter(gens)
            if A.g != 1 or len(gens) < 2:
                continue
            p = rng.randint(2, 5)
            r = rgf_rational(A, p)
            if any(c < 0 for c in r.numerator):
                continue
            out = gens_from_rgf(r, A, p)
            assert generates_quotient(out, QuotientSpec(A, p))


class TestHalfLineFamily:
    # <a, a+1> / (a-1): denominator and numerator shapes depend on parity
    def test_shapes_3_to_20(self):
        for a in range(3, 21):
            A = G(a, a + 1)
            r = rgf_rational(A, a - 1)
            f = r.to_rational()
            if a % 2 == 1:
                num = Poly.from_ints(
                    [1 if e == 0 or (a + 3) // 2 <= e <= a - 1 else 0
                     for e in range(a)])
                den = (Poly.one_minus_pow(a)
                       * Poly.one_minus_pow((a + 1) // 2))
            else:
                # 1 + (x^{(a+2)/2} + x^{a+2}) * (1 + x + ... + x^{a/2-2})
                coeffs = [0] * (2 * a)
                coeffs[0] = 1
                for j in range(a // 2 - 1):
                    coeffs[(a + 2) // 2 + j] += 1
                    coeffs[a + 2 + j] += 1
                num = Poly.from_ints(coeffs)
                den = Poly.one_minus_pow(a) * Poly.one_minus_pow(a + 1)
            assert f == RationalFunction(num, den)


class TestRendering:
    def test_text(self):
        r = rgf_rational(G(3, 5), 2)
        assert render_text(r) == "(1 + x^4)/((1-x^3)*(1-x^5))"

    def test_json_round_trip(self):
        r = rgf_rational(G(4, 11, 14), 3)
        d = to_json_dict(r)
        assert d["den"] == [4, 11, 14]
        assert d["num"]["0"] == 1 and d["num"]["12"] == 2
        back = from_json_dict(d)
        assert back == r
