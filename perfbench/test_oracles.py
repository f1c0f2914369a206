"""Hand-computed cases for the benchmark's oracles.

    python3 -m pytest perfbench/test_oracles.py
"""
from fractions import Fraction

import oracles


def test_sylvester_and_apery_agree_for_two_generators():
    assert oracles.sylvester(3, 5) == 7
    assert oracles.apery_set((3, 5), 3) == [0, 10, 5]
    for a, b in [(3, 5), (5, 6), (7, 11), (12, 25)]:
        assert oracles.Semigroup((a, b)).frobenius() == oracles.sylvester(a, b)


def test_semigroup_membership_frobenius_and_minimal_generators():
    S = oracles.Semigroup((3, 5, 7, 10))
    assert [n for n in range(12) if n in S] == [0, 3, 5, 6, 7, 8, 9, 10, 11]
    assert S.frobenius() == 4
    assert S.minimal_generators() == [3, 5, 7]
    assert oracles.Semigroup((1, 4)).frobenius() is None


def test_quotient_of_five_six_by_three():
    # <5,6> = {0,5,6,10,11,12,15,...}; 3n in it for n = 0, 2, 4, 5, 6, ...
    Q = oracles.Quotient(oracles.Semigroup((5, 6)), 3)
    assert [n for n in range(8) if n in Q] == [0, 2, 4, 5, 6, 7]
    assert Q.f == 3
    assert Q.minimal_generators() == [2, 5]
    assert Q.generated_by([2, 5, 7])
    assert not Q.generated_by([2, 7])
    assert not Q.generated_by([2, 3])


def test_closed_form_three_five_by_two():
    # (1 + x^4)/((1 - x^3)(1 - x^5))
    assert oracles.rgf_closed_form((3, 5), 2) == ([1, 0, 0, 0, 1], [3, 5])
    # d(2n; 3, 5) for n = 0..10, counted by hand
    assert oracles.expand([1, 0, 0, 0, 1], [3, 5], 10) == [
        1, 0, 0, 1, 1, 1, 1, 1, 1, 2, 2]


def test_closed_form_with_a_divisible_generator():
    # 4a + 5b = 2n forces b = 2b' and 2a + 5b' = n, so
    # RGF_2(4, 5) = 1/((1 - x^2)(1 - x^5))
    num, den = oracles.rgf_closed_form((4, 5), 2)
    assert (num, den) == ([1], [2, 5])
    assert oracles.expand(num, den, 6) == [1, 0, 1, 0, 1, 1, 1]


def test_same_rational_and_series():
    den = oracles.den_poly([3, 5])
    assert den == [1, 0, 0, -1, 0, -1, 0, 0, 1]
    assert oracles.same_rational([2, 0, 0, 0, 2], [2 * c for c in den],
                                 [1, 0, 0, 0, 1], den)
    assert not oracles.same_rational([1, 0, 0, 1], den, [1, 0, 0, 0, 1], den)
    assert oracles.rational_series([1], [1, -1], 3) == [1, 1, 1, 1]
    assert oracles.rational_series([Fraction(1, 2)], [2, 0, -2], 4) == [
        Fraction(1, 4), 0, Fraction(1, 4), 0, Fraction(1, 4)]


def test_brute_constant_term():
    # x-powers from (x L^-2)^{3t} (x L^3)^{2t}: CT = 1/(1 - x^5)
    got = oracles.brute_constant_term(1, 0, 0, [(1, 1, -2), (1, 1, 3)], 10)
    assert got == [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1]
    # (2x L)^k (x L^-1)^k with the numerator x*L^0: CT = x/(1 - 2x^2)
    got = oracles.brute_constant_term(1, 1, 0, [(2, 1, 1), (1, 1, -1)], 6)
    assert got == [0, 1, 0, 2, 0, 4, 0]
    # numerator L^-1: (x L)^(t+1) (x^2 L^-1)^t gives CT = x/(1 - x^3)
    got = oracles.brute_constant_term(1, 0, -1, [(1, 1, 1), (1, 2, -1)], 5)
    assert got == [0, 1, 0, 0, 1, 0]


def test_render_elliott():
    text = oracles.render_elliott(1, 0, 2, [(2, 1, -3), (1, 2, 1)])
    assert text == "L^2/((1 - 2*x*L^-3)*(1 - x^2*L))"
    assert oracles.render_monomial(1, 0, 0) == "1"
