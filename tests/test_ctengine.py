import random
from fractions import Fraction

import pytest

import nsq.ctengine
import nsq.exactalg
from nsq.ctengine import (BinomialFactor, CTExpr, Monomial, _share_root,
                          build_rgf_expr, classify_monomial, ct_constant_term,
                          ct_rgf_rational, lemma_zero_check, normalize_expr,
                          parse_elliott, reduce_factor_mod, render_elliott,
                          residue_A0)
from nsq.errors import (CapExceeded, InternalMismatch, NonCoprimeFactors,
                        PreconditionUnmet)
from nsq.exactalg import (Poly, RationalFunction as RF, poly_gcd,
                          series_from_rational)
from nsq.rgf import rgf_rational, rgf_series
from nsq.semigroup import GeneratorList


def F(coef, xexp, b):
    return BinomialFactor(Monomial(Fraction(coef), xexp), b)


def E_mono(coef, xexp, lexp, factors):
    return CTExpr({lexp: RF.monomial(coef, xexp)}, factors)


class TestClassify:
    def test_examples(self):
        assert classify_monomial(1, -3) == "small"
        assert classify_monomial(0, 5) == "small"
        assert classify_monomial(0, -2) == "large"
        assert classify_monomial(0, 0) == "one"
        assert classify_monomial(-1, 4) == "large"


class TestNormalize:
    def test_negative_exponent_factor(self):
        E = E_mono(1, 0, 0, [F(1, 1, -3)])
        N = normalize_expr(E)
        assert N.factors == (F(1, -1, 3),)
        assert N.numerator == {3: RF.monomial(-1, -1)}

    def test_idempotent(self):
        E = E_mono(1, 0, 0, [F(1, 2, -1), F(1, 1, 1)])
        N = normalize_expr(E)
        assert normalize_expr(N) == N
        assert N.factors == (F(1, -2, 1), F(1, 1, 1))

    def test_already_normalized_unchanged(self):
        E = E_mono(1, 1, 2, [F(1, 0, 3), F(1, 2, 1)])
        assert normalize_expr(E) == E


class TestBuildExpr:
    def test_examples(self):
        E = build_rgf_expr(GeneratorList.of(5, 6), 3)
        assert E.factors == (F(1, 1, -3), F(1, 0, 5), F(1, 0, 6))
        assert E.numerator == {0: RF(1)}
        E = build_rgf_expr(GeneratorList.of(3, 5), 2)
        assert E.factors == (F(1, 1, -2), F(1, 0, 3), F(1, 0, 5))
        E = build_rgf_expr(GeneratorList.of(4), 1)
        assert E.factors == (F(1, 1, -1), F(1, 0, 4))


class TestReduce:
    def test_relation_cubed(self):
        # relation L^3 = x turns (1 - L^4) into (1 - x*L)
        E = build_rgf_expr(GeneratorList.of(4, 6), 3)
        R = reduce_factor_mod(E, 0)
        assert R.factors[1] == F(1, 1, 1)
        # and (1 - L^6) becomes the L-free (1 - x^2)
        assert R.factors[2] == F(1, 2, 0)

    def test_low_degree_unchanged(self):
        E = CTExpr({0: RF(1)}, [F(1, 1, -3), F(1, 1, 2)])
        R = reduce_factor_mod(E, 0)
        assert R.factors[1] == F(1, 1, 2)

    def test_preserves_residue_at_reduced_factor(self):
        for gens, p in [((4, 11, 14), 3), ((3, 5), 2), ((5, 6), 3)]:
            E = build_rgf_expr(GeneratorList.of(*gens), p)
            before = residue_A0(E, 0)
            after = residue_A0(reduce_factor_mod(E, 0), 0)
            assert before.A0 == after.A0
            assert before.contributing == after.contributing


class TestResidue:
    def test_substitution_example(self):
        E = E_mono(1, 0, 0, [F(1, 2, -1), F(1, 1, 1)])
        r = residue_A0(E, 1)
        x3 = RF.monomial(1, 3)
        assert r.A0 == RF(1) / (RF(1) - x3)
        assert r.contributing == "small"

    def test_single_factor(self):
        E = E_mono(1, 0, 0, [F(1, 0, 1)])
        r = residue_A0(E, 0)
        assert r.A0 == RF(1)

    def test_non_coprime(self):
        E = E_mono(1, 0, 0, [F(1, 1, 1), F(1, 2, 2)])
        with pytest.raises(NonCoprimeFactors):
            residue_A0(E, 0)


class TestShareRoot:
    """The monomial test u^{c/d} = v^{b/d} against the polynomial gcd."""

    @staticmethod
    def by_gcd(f, g):
        return poly_gcd(f.as_poly(), g.as_poly()).deg > 0

    def test_sign_and_root_of_unity_pairs(self):
        pairs = [
            (F(1, 0, 2), F(-1, 0, 1), True),    # 1 - L^2 and 1 + L
            (F(1, 0, 2), F(1, 0, 1), True),     # 1 - L^2 and 1 - L
            (F(-1, 0, 2), F(1, 0, 1), False),   # 1 + L^2 and 1 - L
            (F(-1, 0, 2), F(-1, 0, 1), False),  # 1 + L^2 and 1 + L
            (F(-1, 0, 3), F(-1, 0, 1), True),   # 1 + L^3 and 1 + L
            (F(1, 0, 4), F(-1, 0, 2), True),    # 1 - L^4 and 1 + L^2
            (F(1, 0, 3), F(1, 0, 2), True),     # 1 - L^3 and 1 - L^2
            (F(1, 2, 2), F(1, 1, 1), True),     # 1 - x^2 L^2 and 1 - x L
            (F(1, 2, 2), F(-1, 1, 1), True),    # 1 - x^2 L^2 and 1 + x L
            (F(4, 0, 2), F(2, 0, 1), True),     # 1 - 4L^2 and 1 - 2L
            (F(4, 0, 2), F(-2, 0, 1), True),
            (F(2, 0, 2), F(2, 0, 1), False),
            (F(1, 1, 1), F(1, 2, 2), True),
            (F(1, 1, 2), F(1, 1, 1), False),
        ]
        for f, g, shared in pairs:
            assert _share_root(f, g) == shared, (f, g)
            assert _share_root(g, f) == shared, (g, f)
            assert self.by_gcd(f, g) == shared, (f, g)

    def test_matches_polynomial_gcd(self):
        rng = random.Random(61)
        seen = set()
        for _ in range(300):
            f, g = (F(rng.choice((-2, -1, 1, 2, 4)), rng.randint(0, 2),
                      rng.randint(1, 4)) for _ in range(2))
            shared = _share_root(f, g)
            seen.add(shared)
            assert shared == self.by_gcd(f, g), (f, g)
        assert seen == {True, False}


class TestConstantTerm:
    def test_multisection_of_geometric(self):
        E = E_mono(1, 0, 0, [F(1, 1, -2), F(1, 0, 3)])
        x3 = RF.monomial(1, 3)
        assert ct_constant_term(E) == RF(1) / (RF(1) - x3)

    def test_trivial(self):
        assert ct_constant_term(E_mono(1, 0, 0, [F(1, 0, 1)])) == RF(1)

    def test_rgf_pipeline_series(self):
        A = GeneratorList.of(5, 6)
        f = ct_rgf_rational(A, 3)
        N = 25
        assert series_from_rational(f, N).coeffs == tuple(
            rgf_series(A, 3, N).coeffs)

    def test_matches_rgf_rational(self):
        for gens, p in [((3, 5), 2), ((5, 6), 3), ((4, 11, 14), 3),
                        ((7, 8), 6), ((3, 4, 5), 2)]:
            A = GeneratorList.of(*gens)
            assert ct_rgf_rational(A, p) == rgf_rational(A, p).to_rational()

    def test_degenerate_instance(self):
        with pytest.raises(NonCoprimeFactors):
            ct_rgf_rational(GeneratorList.of(4, 8, 11), 3)

    def test_brute_force_oracle(self):
        rng = random.Random(71)
        N = 14
        done = 0
        while done < 12:
            k = rng.randint(1, 3)
            factors = []
            for _ in range(k):
                b = rng.choice([-2, -1, 1, 2, 3])
                factors.append(F(rng.choice([1, 1, 2, -1]), rng.randint(1, 4), b))
            s = rng.randint(0, 2)
            E = E_mono(1, rng.randint(0, 2), s, factors)
            try:
                f = ct_constant_term(E)
            except NonCoprimeFactors:
                continue
            got = series_from_rational(f, N).coeffs
            want = _brute_ct(E, N)
            assert got == tuple(want), (E, got, want)
            done += 1

    @pytest.mark.parametrize("text", [
        "1/((1 - L^60)*(1 - x*L^7)*(1 - 2*x^2*L^11))",
        "1/((1 - L^60)*(1 - x*L^-7)*(1 - 2*x^2*L^11))",
    ])
    def test_three_factors_with_a_ring_of_60(self, text):
        E = parse_elliott(text)
        N = 40
        got = series_from_rational(ct_constant_term(E), N).coeffs
        assert got == tuple(_brute_ct(E, N))

    def test_large_coprime_coefficients(self):
        # the result's one gcd has degree 23, between a numerator of degree
        # 82 and a denominator of degree 93; a plain Euclid over Fraction
        # spends seconds in coefficient growth there
        E = parse_elliott(
            "1/((1 - 3*x*L^10)*(1 - 5*x^2*L^-9)*(1 - 7*x^3*L^7))")
        N = 40
        got = series_from_rational(ct_constant_term(E), N).coeffs
        assert got == tuple(_brute_ct(E, N))
        assert any(got)

    def test_large_rung_cross_multiplies_with_the_closed_form(self):
        # 4 s of Euclid at the exit before atom-wise cancellation
        A = GeneratorList.of(211, 223, 227)
        f = ct_rgf_rational(A, 5)
        r = rgf_rational(A, 5)
        assert (f.num.deg, f.den.deg) == (442, 661)
        assert f.num * r.denominator() == Poly.from_ints(r.numerator) * f.den

    def test_residue_and_lemma_charge_their_rings(self):
        E = parse_elliott("L/((1 - L^300000)*(1 - x*L))")
        # only the ring at factor 0: 300000 * 300001 cells
        with pytest.raises(CapExceeded,
                           match="residue ring of 90000300000 cells"):
            residue_A0(E, 0)
        with pytest.raises(CapExceeded,
                           match="residue rings of 90000600001 cells"):
            lemma_zero_check(E)
        # the ring at factor 1 has 300001 cells: L = 1/x there
        r = residue_A0(E, 1)
        assert r.A0.num == Poly.monomial(Fraction(1), 299999)
        assert r.A0.den == Poly.monomial(Fraction(1), 300000) - Poly([1])

    def test_cap_charges_the_residue_rings(self):
        E = parse_elliott("1/((1 - L^2000)*(1 - x*L))")
        # b * (1 + scale degree) per ring: 2000 * 2001 + 1 * 2001
        msg = "residue rings of 4004001 cells exceed cap 100000"
        with pytest.raises(CapExceeded, match=msg):
            ct_constant_term(E, cap=100000)
        A = GeneratorList.of(3, 5)
        with pytest.raises(CapExceeded):
            ct_rgf_rational(A, 2, cap=0)
        assert ct_rgf_rational(A, 2, cap=100) == rgf_rational(A, 2).to_rational()

    def test_one_gcd_per_result(self, monkeypatch):
        # the exit cancels atom by atom: no Euclid here, and one only for
        # a reducible atom sharing a factor with the numerator
        E = parse_elliott("1/((1 - L^6)*(1 - x*L^2)*(1 - 2*x^3*L^5)*(1 - x^2))")
        calls = []
        gcd = nsq.exactalg.poly_gcd
        monkeypatch.setattr(nsq.exactalg, "poly_gcd",
                            lambda a, b: calls.append(1) or gcd(a, b))
        ct_constant_term(E)
        residue_A0(E, 1)
        assert calls == []
        # (1 - 2x)/(1 - 4x^2) = 1/(1 + 2x) = (1/2)/(x + 1/2)
        f = RF(Poly.from_ints([1, -2]), Poly.from_ints([1, 0, -4]))
        assert calls == []
        assert (f.num.coeffs, f.den.coeffs) == (
            (Fraction(1, 2),), (Fraction(1, 2), Fraction(1)))
        assert len(calls) == 1

    def test_no_euclid_from_parse_to_result(self, monkeypatch):
        calls = []
        gcd = nsq.exactalg.poly_gcd
        monkeypatch.setattr(nsq.exactalg, "poly_gcd",
                            lambda a, b: calls.append(1) or gcd(a, b))
        E = parse_elliott("1/((1 - x*L^-3)*(1 - L^5)*(1 - 2*x*L^-2))")
        f = ct_constant_term(E)
        g = ct_rgf_rational(GeneratorList.of(7, 19, 29), 3)
        assert calls == []
        got = series_from_rational(f, 20).coeffs
        assert got == tuple(_brute_ct(E, 20))
        assert g == rgf_rational(GeneratorList.of(7, 19, 29), 3).to_rational()

    def test_results_carry_their_normal_form(self, monkeypatch):
        E = parse_elliott("1/((1 - x*L^-3)*(1 - L^5)*(1 - 2*x*L^-2))")
        A = GeneratorList.of(7, 19, 29)
        calls = []
        reduce = nsq.exactalg.rf_from_atoms
        monkeypatch.setattr(nsq.exactalg, "rf_from_atoms",
                            lambda *args: calls.append(1) or reduce(*args))
        for run in (lambda: ct_constant_term(E),
                    lambda: ct_rgf_rational(A, 3),
                    lambda: residue_A0(E, 1).A0,
                    lambda: rgf_rational(A, 3).to_rational()):
            del calls[:]
            f = run()
            assert len(calls) == 1
            f.num, f.den, hash(f)
            assert len(calls) == 1

    def test_perturbed_residue_fails_the_remainder_check(self, monkeypatch):
        residue_poly = nsq.ctengine._residue_poly

        def off_by_one(num, lam, pos):
            coeffs = residue_poly(num, lam, pos)
            return [coeffs[0] + 1, *coeffs[1:]] if pos == 0 else coeffs

        monkeypatch.setattr(nsq.ctengine, "_residue_poly", off_by_one)
        with pytest.raises(InternalMismatch):
            ct_rgf_rational(GeneratorList.of(3, 5, 7), 2)
        with pytest.raises(InternalMismatch):
            ct_constant_term(parse_elliott("1/((1 - x*L)*(1 - x^2*L^-1))"))


def _brute_ct(E, N):
    """Constant term in L by truncated double-series expansion; valid
    when every factor monomial has positive x-degree, or x-degree 0 and
    a positive L-exponent."""
    terms = {}
    (lexp, rf), = E.numerator.items()
    mono = rf.as_monomial()
    terms[lexp] = {mono[1]: mono[0]}
    # an x-free factor's L^{b*m} must be cancelled by the negative
    # L-exponents reachable within x-degree N, so b*m <= reach
    reach = max(0, -lexp) + sum(-f.b * (N // f.u.xexp)
                                for f in E.factors if f.b < 0)
    for f in E.factors:
        assert f.u.xexp >= 1 or (f.u.xexp == 0 and f.b > 0)
        new = {}
        top = N // f.u.xexp if f.u.xexp else reach // f.b
        for m in range(top + 1):
            ce = f.u.coef ** m
            xe = f.u.xexp * m
            le = f.b * m
            for l0, xs in terms.items():
                for x0, c0 in xs.items():
                    if x0 + xe > N:
                        continue
                    d = new.setdefault(l0 + le, {})
                    d[x0 + xe] = d.get(x0 + xe, Fraction(0)) + c0 * ce
        terms = new
    out = [Fraction(0)] * (N + 1)
    for xe, c in terms.get(0, {}).items():
        if xe <= N:
            out[xe] = c
    return [RF(Poly([c])) for c in out]


class TestLemmaZero:
    def test_examples(self):
        E = E_mono(1, 0, 1, [F(1, 1, 1), F(1, 3, 2)])
        assert lemma_zero_check(E)
        E2 = E_mono(1, 0, 2, [F(1, 1, 1), F(1, 3, 2)])
        assert lemma_zero_check(E2)

    def test_precondition(self):
        with pytest.raises(PreconditionUnmet):
            lemma_zero_check(E_mono(1, 0, 0, [F(1, 0, 1)]))
        with pytest.raises(PreconditionUnmet):
            lemma_zero_check(E_mono(1, 0, 3, [F(1, 1, 1), F(1, 3, 2)]))

    def test_random_proper_expressions(self):
        rng = random.Random(73)
        done = 0
        while done < 15:
            k = rng.randint(2, 4)
            factors = [F(1, rng.randint(1, 6), rng.randint(1, 3))
                       for _ in range(k)]
            deg = sum(f.b for f in factors)
            lexp = rng.randint(1, deg - 1)
            E = E_mono(1, rng.randint(0, 3), lexp, factors)
            try:
                assert lemma_zero_check(E)
            except NonCoprimeFactors:
                continue
            done += 1


class TestGrammar:
    def test_round_trip(self):
        for text in ["1/((1 - x*L^-3)*(1 - L^5)*(1 - L^6))",
                     "x^2*L/((1 - 2*x*L^2)*(1 - x^3))",
                     "-3*L^-2/((1 - x))",
                     "x/((1 - 0*L^2)*(1 - 2*L))",
                     "L^-1/((1 - 0*x))"]:
            E = parse_elliott(text)
            assert parse_elliott(render_elliott(E)) == E

    def test_parse_matches_builder(self):
        E = parse_elliott("1/((1 - x*L^-3)*(1 - L^5)*(1 - L^6))")
        assert E == build_rgf_expr(GeneratorList.of(5, 6), 3)

    def test_bad_input(self):
        with pytest.raises(ValueError):
            parse_elliott("1/((1 - ))")
        with pytest.raises(ValueError):
            parse_elliott("1/((1 - x)) trailing")
