import operator
import random
from fractions import Fraction

import pytest

import nsq.exactalg
from nsq.errors import DivisionByZeroPoly, PoleAtZero
from nsq.ctengine import parse_elliott
from nsq.exactalg import (Poly, RationalFunction, TruncatedSeries,
                          poly_divmod, poly_gcd, rf_from_atoms,
                          series_from_rational, series_mul)
from nsq.rgf import rgf_rational
from nsq.semigroup import GeneratorList


def P(*coeffs):
    return Poly.from_ints(coeffs)


def _euclid_reduce(num, den):
    """The normal form of num/den by one Euclid gcd, the oracle for the
    atom-wise reduction: coprime, den monic."""
    if num.is_zero():
        return Poly(), P(1)
    g = poly_gcd(num, den)
    num, den = poly_divmod(num, g)[0], poly_divmod(den, g)[0]
    return num.scale(1 / den.lead), den.monic()


def _laurent(terms):
    """sum c x^e over {e: c}, e of any sign, as a (num, den) pair."""
    low = min(0, *terms)
    num = [Fraction(0)] * (max(0, *terms) - low + 1)
    for e, c in terms.items():
        num[e - low] += c
    return Poly(num), Poly.monomial(Fraction(1), -low)


class TestPolyMul:
    def test_difference_of_squares(self):
        assert P(1, 1) * P(1, -1) == P(1, 0, -1)

    def test_zero_annihilates(self):
        assert Poly() * P(1, 0, 0, 1) == Poly()

    def test_hand_expansion(self):
        # (1 + x^4)(1 + x^3 + x^5) = 1 + x^3 + x^4 + x^5 + x^7 + x^9
        a = P(1, 0, 0, 0, 1)
        b = P(1, 0, 0, 1, 0, 1)
        assert a * b == P(1, 0, 0, 1, 1, 1, 0, 1, 0, 1)


class TestPolyDivmod:
    def test_geometric(self):
        q, r = poly_divmod(P(0, 0, 1), P(-1, 1))
        assert q == P(1, 1) and r == P(1)

    def test_factorization(self):
        q, r = poly_divmod(P(1, 0, 0, 0, 0, 0, -1), P(1, 0, -1))
        assert q == P(1, 0, 1, 0, 1) and r == Poly()

    def test_long_division(self):
        q, r = poly_divmod(P(1, 0, 0, 1), P(1, 0, 1))
        assert q == P(0, 1) and r == P(1, -1)

    def test_zero_divisor(self):
        with pytest.raises(DivisionByZeroPoly):
            poly_divmod(P(1), Poly())

    def test_reconstruction_random(self):
        rng = random.Random(7)
        for _ in range(60):
            a = P(*[rng.randint(-5, 5) for _ in range(rng.randint(0, 7))])
            b = P(*[rng.randint(-5, 5) for _ in range(rng.randint(1, 5))])
            if b.is_zero():
                continue
            q, r = poly_divmod(a, b)
            assert q * b + r == a
            assert r.deg < b.deg


class TestPolyGcd:
    def test_cyclotomic_pair(self):
        # gcd(1 - x^2, 1 - x^3) is x - 1 after monic normalization
        assert poly_gcd(P(1, 0, -1), P(1, 0, 0, -1)) == P(-1, 1)

    def test_gcd_with_zero(self):
        p = P(2, 0, 4)
        assert poly_gcd(p, Poly()) == p.monic()

    def test_coprime_binomials_in_second_variable(self):
        # 1 - x*L and 1 - x^3*L^2 as polynomials in L over Q(x)
        x = RationalFunction.monomial(1, 1)
        x3 = RationalFunction.monomial(1, 3)
        f = Poly([RationalFunction(1), -x])
        g = Poly([RationalFunction(1), RationalFunction(0), -x3])
        assert poly_gcd(f, g).deg == 0

    def test_divides_both_random(self):
        rng = random.Random(11)
        for _ in range(40):
            a = P(*[rng.randint(-4, 4) for _ in range(rng.randint(1, 6))])
            b = P(*[rng.randint(-4, 4) for _ in range(rng.randint(1, 6))])
            if a.is_zero() and b.is_zero():
                continue
            g = poly_gcd(a, b)
            for p in (a, b):
                if not p.is_zero():
                    assert poly_divmod(p, g)[1].is_zero()

    def test_matches_plain_euclid(self):
        def euclid(a, b):
            # the textbook remainder sequence over Fraction, made monic
            while not b.is_zero():
                a, b = b, poly_divmod(a, b)[1]
            return a.monic()

        def rand(deg, top):
            return Poly([Fraction(rng.randint(-top, top), rng.randint(1, 6))
                         for _ in range(deg + 1)])

        rng = random.Random(53)
        for _ in range(150):
            c = rand(rng.randint(0, 5), 9)
            a = rand(rng.randint(0, 7), 30) * c
            b = rand(rng.randint(0, 7), 30) * c
            if a.is_zero() and b.is_zero():
                continue
            assert poly_gcd(a, b) == euclid(a, b)


class TestRationalFunction:
    def test_normalization_idempotent(self):
        rng = random.Random(17)
        for _ in range(30):
            num = P(*[rng.randint(-4, 4) for _ in range(rng.randint(1, 5))])
            den = P(*[rng.randint(-4, 4) for _ in range(rng.randint(1, 5))])
            if den.is_zero():
                continue
            f = RationalFunction(num, den)
            assert (f.num, f.den) == _euclid_reduce(num, den)
            again = RationalFunction(f.num, f.den)
            assert again.num == f.num and again.den == f.den
            assert f.den.lead == Fraction(1) or f.num.is_zero()

    def test_field_ops(self):
        x = RationalFunction.monomial(1, 1)
        f = 1 / (1 - x)
        g = 1 / (1 + x)
        assert f * g == 1 / (1 - x * x)
        assert f - g == 2 * x / (1 - x * x)
        assert (f / g) == (1 + x) / (1 - x)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError, match="zero denominator"):
            RationalFunction(P(1, 2), Poly())
        with pytest.raises(ZeroDivisionError, match="zero denominator"):
            RationalFunction(0, 0)

    def test_negative_exponent_monomial(self):
        m = RationalFunction.monomial(3, -2)
        assert m.num == P(3)
        assert m.den == P(0, 0, 1)
        assert m.as_monomial() == (Fraction(3), -2)


class TestGcdFreeArithmetic:
    """RationalFunction arithmetic, op by op, against eager (num, den)
    pairs reduced by one Euclid gcd."""

    EAGER = {
        "+": lambda a, b: (a[0] * b[1] + b[0] * a[1], a[1] * b[1]),
        "-": lambda a, b: (a[0] * b[1] - b[0] * a[1], a[1] * b[1]),
        "*": lambda a, b: (a[0] * b[0], a[1] * b[1]),
        "/": lambda a, b: (a[0] * b[1], a[1] * b[0]),
    }
    LAZY = {"+": operator.add, "-": operator.sub,
            "*": operator.mul, "/": operator.truediv}

    @staticmethod
    def operand(rng):
        """A value and its eager pair: a Laurent monomial, a binomial
        1 - c*x^k or its inverse, the numerator coefficient of a parsed
        Elliott expression over a binomial, or num/den built by the
        constructor."""
        coef = Fraction(rng.choice((-3, -2, -1, 1, 2))) / rng.choice((1, 2))
        e, k = rng.randint(-3, 4), rng.randint(-3, 4)
        terms = {0: Fraction(1)}
        terms[k] = terms.get(k, 0) - coef
        binomial = 1 - RationalFunction.monomial(coef, k)
        pair = _laurent(terms)
        kind = rng.randrange(5)
        if kind == 0:
            return RationalFunction.monomial(coef, e), _laurent({e: coef})
        if kind == 1:
            return binomial, pair
        if kind == 2 and binomial:
            return 1 / binomial, pair[::-1]
        if kind == 4:
            num = P(*(rng.randint(-3, 3) for _ in range(rng.randint(1, 4))))
            den = P(*(rng.randint(-3, 3) for _ in range(rng.randint(1, 4))))
            if den:
                return RationalFunction(num, den), (num, den)
        a, b = rng.randint(1, 3), rng.randint(0, 3)
        (value,) = parse_elliott(f"{a}*x^{b}*L/((1 - x))").numerator.values()
        mono = _laurent({b: Fraction(a)})
        if not binomial:
            return value, mono
        return value / binomial, (mono[0] * pair[1], mono[1] * pair[0])

    def test_random_sequences_match_euclid(self):
        rng = random.Random(83)
        for _ in range(320):
            f, pair = self.operand(rng)
            for _ in range(rng.randint(1, 7)):
                op = rng.choice(("+", "-", "*", "/", "=="))
                g, gpair = (self.operand(rng) if rng.random() < 0.8
                            else (f, pair))
                if op == "==":
                    same = _euclid_reduce(*pair) == _euclid_reduce(*gpair)
                    assert (f == g) == same
                    g.normalised()
                    assert (f == g) == same
                    assert f == RationalFunction(*pair)
                    continue
                if op == "/" and g.is_zero():
                    assert gpair[0].is_zero()
                    with pytest.raises(ZeroDivisionError):
                        f / g
                    continue
                f, pair = self.LAZY[op](f, g), self.EAGER[op](pair, gpair)
                assert bool(f) == bool(pair[0])
                assert (f.num, f.den) == _euclid_reduce(*pair)

    def test_int_operands_and_zero(self):
        x = RationalFunction.monomial(1, 1)
        assert (1 - x) - 1 == -x
        assert ((x - x).terms, (x - x).atoms) == ({}, {})
        f = (x + 2) / (1 - x) * (1 - x)
        assert (f.num, f.den) == (P(2, 1), P(1))
        assert f == 2 + x
        assert x / (2 * x * x) == RationalFunction.monomial(Fraction(1, 2), -1)


class TestRfFromAtoms:
    """The atom-wise normal form against the Euclid oracle
    `_euclid_reduce`."""

    # factors of the Capelli-reducible atoms 1 - c*x^k (c a square with
    # k even, a cube with 3 | k, or -4c a 4th power with 4 | k), and
    # cyclotomic ones
    SHARED = [P(1, -2), P(1, 2), P(1, -3), P(1, 3), P(1, 2, 4), P(1, 2, 2),
              P(1, -2, 2), P(1, -1), P(1, 1), P(1, 1, 1), P(1, 0, 1),
              P(1, -1, 1), P(1, 1, 1, 1, 1), P(1, 0, 0, 1)]

    @staticmethod
    def atom(rng):
        c = Fraction(rng.choice((1, 1, -1, 2, -3, 4, -4, 8, 9))) / rng.choice(
            (1, 1, 1, 2, 3))
        return (0, Fraction(1)), (rng.choice((1, 2, 3, 4, 6, 8, 9, 12)), -c)

    def case(self, rng):
        atoms = {}
        for _ in range(rng.randint(1, 4)):
            a = self.atom(rng)
            atoms[a] = atoms.get(a, 0) + rng.randint(1, 3)
        num = P(rng.choice((-2, -1, 1, 3)) * Fraction(1, rng.choice((1, 2, 6))))
        for _ in range(rng.randint(0, 4)):
            num = num * rng.choice(self.SHARED)
        for a in rng.sample(sorted(atoms), rng.randint(0, len(atoms))):
            num = num * _dense_atom(a)
        if rng.random() < 0.5:
            num = num * P(*(rng.randint(-3, 3) for _ in range(rng.randint(1, 4))))
        low = rng.randint(-4, 4)
        return {i + low: c for i, c in enumerate(num.coeffs) if c}, atoms, low

    def test_matches_euclid(self, monkeypatch):
        rng = random.Random(89)
        gcd = nsq.exactalg.poly_gcd
        calls = []
        monkeypatch.setattr(nsq.exactalg, "poly_gcd",
                            lambda a, b: calls.append(1) or gcd(a, b))
        fallbacks = 0
        for _ in range(300):
            num, atoms, low = self.case(rng)
            del calls[:]
            got = rf_from_atoms(num, atoms)
            fallbacks += bool(calls)
            shift = max(0, -low)
            den = Poly.monomial(Fraction(1), shift)
            for a, m in atoms.items():
                for _ in range(m):
                    den = den * _dense_atom(a)
            want = _euclid_reduce(
                Poly([num.get(e - shift, 0)
                      for e in range(max(num, default=0) + shift + 1)]), den)
            assert got == want, (num, atoms)
            assert all(type(c) is Fraction
                       for c in got[0].coeffs + got[1].coeffs)
        # the Euclid fallback ran, but only on some cases
        assert 0 < fallbacks < 150

    def test_rgf_to_rational_matches_euclid(self):
        rng = random.Random(97)
        checked = 0
        while checked < 60:
            A = GeneratorList.from_iter(
                rng.randint(2, 24) for _ in range(rng.randint(1, 3)))
            if A.g != 1:
                continue
            r = rgf_rational(A, rng.randint(1, 5))
            want = _euclid_reduce(Poly.from_ints(r.numerator),
                                  r.denominator())
            got = r.to_rational()
            assert (got.num, got.den) == want, (A, r)
            assert r.taylor(60) == series_from_rational(got, 60).coeffs
            checked += 1


def _dense_atom(atom):
    coeffs = [Fraction(0)] * (atom[-1][0] + 1)
    for e, c in atom:
        coeffs[e] = Fraction(c)
    return Poly(coeffs)


class TestSeries:
    def test_geometric(self):
        f = RationalFunction(P(1), P(1, -1))
        assert series_from_rational(f, 4).coeffs == (1, 1, 1, 1, 1)

    def test_denumerant_form(self):
        # (1 + x^4)/((1 - x^3)(1 - x^5)) begins 1,0,0,1,1,1,1
        f = RationalFunction(P(1, 0, 0, 0, 1), P(1, 0, 0, -1) * P(1, 0, 0, 0, 0, -1))
        assert series_from_rational(f, 6).coeffs == (1, 0, 0, 1, 1, 1, 1)

    def test_sparse_geometric(self):
        f = RationalFunction(P(1), P(1, 0, 0, -1))
        assert series_from_rational(f, 5).coeffs == (1, 0, 0, 1, 0, 0)

    def test_pole_at_zero(self):
        with pytest.raises(PoleAtZero):
            series_from_rational(RationalFunction(P(1), P(0, 1)), 3)

    def test_series_mul_examples(self):
        a = TruncatedSeries(2, (1, 1, 1))
        b = TruncatedSeries(2, (1, 0, 0))
        assert series_mul(a, b).coeffs == (1, 1, 1)
        c = TruncatedSeries(1, (1, 1))
        d = TruncatedSeries(1, (1, -1))
        assert series_mul(c, d).coeffs == (1, 0)
        e = TruncatedSeries(2, (1, 0, 1))
        f = TruncatedSeries(2, (1, 2, 0))
        assert series_mul(e, f).coeffs == (1, 2, 1)

    def test_product_matches_series_of_product(self):
        rng = random.Random(19)
        for _ in range(20):
            def rand_rf():
                num = P(*[rng.randint(-3, 3) for _ in range(rng.randint(1, 4))])
                den = P(*([1] + [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))]))
                return RationalFunction(num, den)
            f, g = rand_rf(), rand_rf()
            n = 12
            lhs = series_from_rational(f * g, n)
            rhs = series_mul(series_from_rational(f, n), series_from_rational(g, n))
            assert lhs.coeffs == rhs.coeffs
