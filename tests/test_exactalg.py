import operator
import random
from fractions import Fraction

import pytest

import nsq.exactalg
from nsq.errors import DivisionByZeroPoly, PoleAtZero
from nsq.ctengine import parse_elliott
from nsq.exactalg import (LazyRationalFunction, Poly, RationalFunction,
                          TruncatedSeries, poly_divmod, poly_gcd, poly_mul,
                          rf_from_atoms, series_from_rational, series_mul)
from nsq.rgf import rgf_rational
from nsq.semigroup import GeneratorList


def P(*coeffs):
    return Poly.from_ints(coeffs)


class TestPolyMul:
    def test_difference_of_squares(self):
        assert poly_mul(P(1, 1), P(1, -1)) == P(1, 0, -1)

    def test_zero_annihilates(self):
        assert poly_mul(Poly(), P(1, 0, 0, 1)) == Poly()

    def test_hand_expansion(self):
        # (1 + x^4)(1 + x^3 + x^5) = 1 + x^3 + x^4 + x^5 + x^7 + x^9
        a = P(1, 0, 0, 0, 1)
        b = P(1, 0, 0, 1, 0, 1)
        assert poly_mul(a, b) == P(1, 0, 0, 1, 1, 1, 0, 1, 0, 1)


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

    def test_negative_exponent_monomial(self):
        m = RationalFunction.monomial(3, -2)
        assert m.num == P(3)
        assert m.den == P(0, 0, 1)
        assert m.as_monomial() == (Fraction(3), -2)


class TestLazyRationalFunction:
    """The gcd-free scalar against RationalFunction, op by op."""

    @staticmethod
    def operand(rng):
        """An RF: a Laurent monomial, a binomial 1 - c*x^k or its
        inverse, or the numerator coefficient of a parsed Elliott
        expression over a binomial."""
        coef = Fraction(rng.choice((-3, -2, -1, 1, 2))) / rng.choice((1, 2))
        binomial = 1 - RationalFunction.monomial(coef, rng.randint(-3, 4))
        kind = rng.randrange(4)
        if kind == 0:
            return RationalFunction.monomial(coef, rng.randint(-3, 4))
        if kind == 1:
            return binomial
        if kind == 2 and binomial:
            return 1 / binomial
        text = f"{rng.randint(1, 3)}*x^{rng.randint(0, 3)}*L/((1 - x))"
        (value,) = parse_elliott(text).numerator.values()
        return value / (binomial or 1)

    def test_random_sequences_match_rational_function(self):
        rng = random.Random(83)
        ops = ("+", "-", "*", "/", "==")
        for _ in range(320):
            rf = self.operand(rng)
            lazy = LazyRationalFunction.from_rf(rf)
            for _ in range(rng.randint(1, 7)):
                op = rng.choice(ops)
                other = self.operand(rng) if rng.random() < 0.8 else rf
                lo = LazyRationalFunction.from_rf(other)
                if op == "==":
                    assert (lazy == lo) == (rf == other)
                    assert lazy == LazyRationalFunction.from_rf(rf)
                    continue
                if op == "/" and other.is_zero():
                    assert lo.is_zero()
                    with pytest.raises(ZeroDivisionError):
                        lazy / lo
                    continue
                fn = {"+": operator.add, "-": operator.sub,
                      "*": operator.mul, "/": operator.truediv}[op]
                rf, lazy = fn(rf, other), fn(lazy, lo)
                assert bool(lazy) == bool(rf)
                out = lazy.to_rf()
                assert out.num == rf.num and out.den == rf.den

    def test_int_operands_and_zero(self):
        x = LazyRationalFunction.monomial(1, 1)
        assert (1 - x) - 1 == -x
        assert ((x - x).num, (x - x).atoms) == ({}, {})
        assert ((x + 2) / (1 - x) * (1 - x)).to_rf() == 2 + x.to_rf()
        assert (x / (2 * x * x)).to_rf() == RationalFunction.monomial(
            Fraction(1, 2), -1)


class TestRfFromAtoms:
    """The atom-wise exit normalisation against the Euclid oracle
    RationalFunction(num, den)."""

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
            want = RationalFunction(
                Poly([num.get(e - shift, 0)
                      for e in range(max(num, default=0) + shift + 1)]), den)
            assert (got.num, got.den) == (want.num, want.den), (num, atoms)
            assert all(type(c) is Fraction
                       for c in got.num.coeffs + got.den.coeffs)
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
            want = RationalFunction(Poly.from_ints(r.numerator),
                                    r.denominator())
            got = r.to_rational()
            assert (got.num, got.den) == (want.num, want.den), (A, r)
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
