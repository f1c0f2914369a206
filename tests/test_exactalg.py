import math
import operator
import random
from fractions import Fraction

import pytest

import nsq.exactalg
from nsq.errors import DivisionByZeroPoly, PoleAtZero
from nsq.ctengine import parse_elliott
from nsq.exactalg import (Poly, RationalFunction, TruncatedSeries,
                          poly_divmod, poly_gcd, rf_from_atoms,
                          series_from_rational)
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


def series_mul(a, b):
    """Cauchy product truncated to the smaller order, the oracle for the
    series of a product."""
    n = min(a.order, b.order)
    out = []
    for k in range(n + 1):
        acc = 0
        for j in range(k + 1):
            acc = acc + a.coeffs[j] * b.coeffs[k - j]
        out.append(acc)
    return TruncatedSeries(n, tuple(out))


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

    def test_constant_hashes_as_its_fraction(self):
        x = RationalFunction.monomial(1, 1)
        assert RationalFunction(1) == 1
        assert hash(RationalFunction(1)) == hash(1)
        assert len({RationalFunction(1), 1}) == 1
        v = object()
        assert {Fraction(2): v}.get(RationalFunction(2)) is v
        assert {Fraction(-2, 3): v}.get((2 * x) / (-3 * x)) is v
        assert hash(x - x) == hash(0)

    def test_negative_content(self):
        x = RationalFunction.monomial(1, 1)
        f = RationalFunction.monomial(Fraction(-3, 2), 1) / (1 - x)
        g = RationalFunction(P(0, Fraction(3, 2)), P(1, -1))
        assert f.scale < 0 < g.scale
        assert f != g and -f == g and f == -g and -(-f) == f
        assert 0 - f == g and f - f == 0 and f + g == 0
        assert (-f).num == g.num and f.num == -g.num and f.den == g.den
        assert (f * f) == (g * g) and f / g == -1


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
        Elliott expression over a binomial, num/den built by the
        constructor, or a sum a + b*x^k or its inverse; coefficients are
        fractional and of either sign."""
        coef = Fraction(rng.choice((-3, -2, -1, 1, 2))) / rng.choice((1, 2))
        e, k = rng.randint(-3, 4), rng.randint(-3, 4)
        terms = {0: Fraction(1)}
        terms[k] = terms.get(k, 0) - coef
        binomial = 1 - RationalFunction.monomial(coef, k)
        pair = _laurent(terms)
        kind = rng.randrange(6)
        if kind == 0:
            return RationalFunction.monomial(coef, e), _laurent({e: coef})
        if kind == 1:
            return binomial, pair
        if kind == 2 and binomial:
            return 1 / binomial, pair[::-1]
        if kind == 4:
            num, den = (Poly([Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                              for _ in range(rng.randint(1, 4))])
                        for _ in range(2))
            if den:
                return RationalFunction(num, den), (num, den)
        if kind == 5:
            a, b = (Fraction(rng.choice((-4, -3, -2, 2, 3)), rng.randint(1, 3))
                    for _ in range(2))
            terms = {0: a}
            terms[k] = terms.get(k, 0) + b
            value = (RationalFunction.monomial(a, 0)
                     + RationalFunction.monomial(b, k))
            if value and rng.random() < 0.5:
                return 1 / value, _laurent(terms)[::-1]
            return value, _laurent(terms)
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
                _assert_canonical(f)
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

    def test_one_atom_per_primitive_divisor(self):
        # 2 - 3x, -4 + 6x and 1 - 3/2x are the atom 2 - 3x, up to content
        f = 1 / RationalFunction(P(2, -3)) / RationalFunction(P(-4, 6))
        assert f.atoms == {((0, 2), (1, -3)): 2}
        assert (f.num, f.den) == _euclid_reduce(P(1), P(-8, 24, -18))
        g = f / (1 - RationalFunction.monomial(Fraction(3, 2), 1))
        assert g.atoms == {((0, 2), (1, -3)): 3}
        _assert_canonical(g)


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
        """1 - c*x^k as a canonical integer atom: q - p*x^k for c = p/q,
        which for q > 1 is not cyclotomic even when p = 1."""
        c = Fraction(rng.choice((1, 1, -1, 2, -3, 4, -4, 8, 9))) / rng.choice(
            (1, 1, 1, 2, 3))
        k = rng.choice((1, 2, 3, 4, 6, 8, 9, 12))
        return (0, c.denominator), (k, -c.numerator)

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
            clear = math.lcm(*(c.denominator for c in num.values()))
            got = rf_from_atoms({e: int(c * clear) for e, c in num.items()},
                                atoms, Fraction(1, clear))
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

    def test_non_unit_binomial_is_not_cyclotomic(self):
        # 2 - x^3 shares no factor with 1 - x^3, which would cancel the
        # numerator if the atom were read as 1 - x^3
        for k in (1, 3, 4):
            num = P(*([1] + [0] * (k - 1) + [-1]))
            den = P(*([2] + [0] * (k - 1) + [-1]))
            got = rf_from_atoms({0: 1, k: -1}, {((0, 2), (k, -1)): 1},
                                Fraction(1))
            assert got == _euclid_reduce(num, den)
            assert RationalFunction(num, den).den == den.monic()

    def test_cyclotomic_factors_above_the_numerator_degree_are_skipped(
            self, monkeypatch):
        over = nsq.exactalg._over_cyclotomic
        calls = []
        monkeypatch.setattr(nsq.exactalg, "_over_cyclotomic",
                            lambda p, d: calls.append((len(p) - 1, d))
                            or over(p, d))
        k = 720720
        num, den = rf_from_atoms({0: 1}, {((0, 1), (k, -1)): 1}, Fraction(1))
        assert calls == []
        assert num == P(-1) and den.coeffs[0] == -1 and den.deg == k
        assert den.coeffs[1:-1] == (0,) * (k - 1) and den.lead == 1

        def phi(d):
            return sum(math.gcd(i, d) == 1 for i in range(1, d + 1))

        rng = random.Random(101)
        for _ in range(30):
            k = rng.choice((6, 12, 30, 60))
            num = P(*(rng.randint(-2, 2) for _ in range(rng.randint(1, 5))))
            if not num:
                continue
            num = num * rng.choice((P(1), P(1, -1), P(1, 1), P(1, 1, 1)))
            del calls[:]
            got = rf_from_atoms({e: int(c) for e, c in enumerate(num.coeffs)
                                 if c}, {((0, 1), (k, -1)): 2}, Fraction(1))
            assert got == _euclid_reduce(num, P(*([1] + [0] * (k - 1) + [-1]))
                                         * P(*([1] + [0] * (k - 1) + [-1])))
            assert all(phi(d) <= deg for deg, d in calls)

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


def _assert_canonical(f):
    """A primitive integer numerator, and atoms that are primitive integer
    polynomials with positive constant term, as sorted (exp, int) pairs."""
    assert all(type(c) is int for c in f.terms.values())
    assert not f.terms or math.gcd(*f.terms.values()) == 1
    for atom in f.atoms:
        assert all(type(c) is int for _, c in atom) and list(atom) == sorted(atom)
        assert atom[0][0] == 0 and atom[0][1] > 0 and len(atom) > 1
        assert math.gcd(*(c for _, c in atom)) == 1


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
