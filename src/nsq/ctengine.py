"""Constant-term calculus for Elliott-rational functions in an auxiliary
variable L over exact rational functions in x.

An expression is a Laurent polynomial in L with rational-function
coefficients divided by a product of binomial factors (1 - u*L^b), where
u is a signed monomial c*x^e.  Residues are computed in Q(x)[L]/(1 - u*L^b),
where every other factor has a closed-form inverse: with L^b = M = 1/u,
y = v*L^c and n = b/gcd(b, c), y^n is the scalar s = v^n M^{cn/b}, so

    1/(1 - y) = (1 + y + ... + y^{n-1}) / (1 - s).

s = 1 exactly when the two factors share a root, which a monomial test
decides beforehand.  The constant term follows from the partial
fraction split, with the small/large monomial ordering of the double
Laurent series field deciding which factors contribute.  Applied to the
lifted denumerant expression this yields RGF_p(x) exactly.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import (DivisionByZeroPoly, GcdNotOne, InternalMismatch,
                     NonCoprimeFactors, PreconditionUnmet)
from .exactalg import Poly, RationalFunction, poly_divmod
from .semigroup import GeneratorList

RF = RationalFunction


@dataclass(frozen=True)
class Monomial:
    """Signed monomial coef * x^xexp with exact rational coef."""

    coef: Fraction
    xexp: int

    def __post_init__(self):
        if not self.coef:
            raise ValueError("monomial coefficient must be nonzero")

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.coef * other.coef, self.xexp + other.xexp)

    def inv(self) -> "Monomial":
        return Monomial(1 / self.coef, -self.xexp)

    def neg(self) -> "Monomial":
        return Monomial(-self.coef, self.xexp)

    def __pow__(self, n: int) -> "Monomial":
        return Monomial(self.coef ** n, self.xexp * n)

    def is_one(self) -> bool:
        return self.coef == 1 and self.xexp == 0

    def to_ratfun(self) -> RF:
        return RF.monomial(self.coef, self.xexp)


@dataclass(frozen=True)
class BinomialFactor:
    """The denominator factor (1 - u * L^b)."""

    u: Monomial
    b: int

    def as_poly(self) -> Poly:
        """Polynomial in L over Q(x); requires b >= 0."""
        coeffs = [RF(1)] + [RF(0)] * self.b
        coeffs[self.b] = coeffs[self.b] - self.u.to_ratfun()
        return Poly(coeffs)


@dataclass(frozen=True)
class Residue:
    factor_index: int
    A0: RF
    contributing: str  # "small" or "large"


class CTExpr:
    """numerator / product of binomial factors.

    The numerator maps L-exponents (any sign) to rational functions in x.
    Instances are treated as immutable.
    """

    __slots__ = ("numerator", "factors")

    def __init__(self, numerator, factors):
        self.numerator = {e: c for e, c in dict(numerator).items() if c}
        self.factors = tuple(factors)

    def __eq__(self, other):
        return (isinstance(other, CTExpr)
                and self.numerator == other.numerator
                and self.factors == other.factors)

    def __repr__(self):
        return f"CTExpr({self.numerator!r}, {self.factors!r})"


def classify_monomial(e: int, b: int) -> str:
    """Position of x^e * L^b in the series-expansion ordering."""
    if e > 0 or (e == 0 and b > 0):
        return "small"
    if e == 0 and b == 0:
        return "one"
    return "large"


def normalize_expr(E: CTExpr) -> CTExpr:
    """Rewrite every factor with a negative L-exponent as a positive one,
    pushing the monomial prefactor into the numerator; idempotent."""
    num = dict(E.numerator)
    factors = []
    for f in E.factors:
        if f.b < 0:
            # 1 - u*L^b  =  (-u*L^b) * (1 - u^{-1} * L^{-b})
            pre = f.u.inv().neg().to_ratfun()
            num = {e - f.b: c * pre for e, c in num.items()}
            factors.append(BinomialFactor(f.u.inv(), -f.b))
        else:
            factors.append(f)
    return CTExpr(num, factors)


def build_rgf_expr(A: GeneratorList, p: int) -> CTExpr:
    """The lifted denumerant expression
    1 / ((1 - x*L^-p) * prod_i (1 - L^{a_i}))."""
    if p < 1:
        raise ValueError("p must be a positive integer")
    factors = [BinomialFactor(Monomial(Fraction(1), 1), -p)]
    factors += [BinomialFactor(Monomial(Fraction(1), 0), a) for a in A.seq]
    return CTExpr({0: RF(1)}, factors)


def reduce_factor_mod(E: CTExpr, s: int) -> CTExpr:
    """Reduce every other factor and the numerator modulo the relation
    u_s * L^{b_s} = 1; the result is congruent to E modulo the ideal
    generated by factor s."""
    f = E.factors[s]
    if f.b == 0:
        raise ValueError("cannot reduce modulo an L-free factor")
    B = abs(f.b)
    M = f.u.inv() if f.b > 0 else f.u  # L^B is congruent to M
    num: dict[int, RF] = {}
    for e, c in E.numerator.items():
        q, r = divmod(e, B)
        val = c * (M ** q).to_ratfun() if q else c
        num[r] = num.get(r, RF(0)) + val
    factors = []
    for j, g in enumerate(E.factors):
        if j == s or g.b == 0:
            factors.append(g)
            continue
        q, r = divmod(g.b, B)
        factors.append(BinomialFactor(g.u * (M ** q), r) if q else g)
    return CTExpr(num, factors)


def _fold_free_factors(num: dict[int, RF], factors):
    """Divide the numerator by every L-free factor; returns the folded
    numerator and the L-dependent factors with their original indices."""
    lam = []
    for idx, f in enumerate(factors):
        if f.b == 0:
            c = RF(1) - f.u.to_ratfun()
            if c.is_zero():
                raise DivisionByZeroPoly("vanishing L-free factor (1 - 1)")
            num = {e: v / c for e, v in num.items()}
        else:
            lam.append((idx, f))
    return num, lam


def _share_root(f: BinomialFactor, g: BinomialFactor) -> bool:
    """(1 - u*L^b) and (1 - v*L^c), b, c > 0, share a root iff
    u^{c/d} = v^{b/d} with d = gcd(b, c)."""
    d = math.gcd(f.b, g.b)
    return f.u ** (g.b // d) == g.u ** (f.b // d)


def _check_pairwise_coprime(lam):
    for i in range(len(lam)):
        for j in range(i + 1, len(lam)):
            if _share_root(lam[i][1], lam[j][1]):
                raise NonCoprimeFactors(
                    f"factors {lam[i][0]} and {lam[j][0]} share a root")


def _ring_reduce(num: dict[int, RF], B: int, M_rf: RF) -> list[RF]:
    """Map a Laurent polynomial in L into Q(x)[L]/(L^B - M)."""
    out = [RF(0)] * B
    for e, c in num.items():
        q, r = divmod(e, B)
        out[r] = out[r] + (c * M_rf ** q if q else c)
    return out


def _ring_mul(a: list[RF], b: list[RF], B: int, M_rf: RF) -> list[RF]:
    out = [RF(0)] * B
    for i, ci in enumerate(a):
        if ci.is_zero():
            continue
        for j, cj in enumerate(b):
            if cj.is_zero():
                continue
            e = i + j
            v = ci * cj
            if e >= B:
                e -= B
                v = v * M_rf
            out[e] = out[e] + v
    return out


def _ring_inv_binomial(g: BinomialFactor, B: int, M: Monomial) -> list[RF]:
    """(1 - v*L^c)^{-1} in Q(x)[L]/(L^B - M) by the closed form
    sum_{j<n} (v*L^c)^j / (1 - v^n M^{c/d}), d = gcd(B, c), n = B/d,
    since L^{cn} = (L^B)^{c/d}; the exponents c*j mod B, j < n, are
    distinct."""
    v, c = g.u, g.b
    d = math.gcd(B, c)
    n = B // d
    scale = RF(1) - (v ** n * M ** (c // d)).to_ratfun()
    out = [RF(0)] * B
    for j in range(n):
        q, r = divmod(c * j, B)
        out[r] = (v ** j * M ** q).to_ratfun() / scale
    return out


def _residue_poly(num: dict[int, RF], lam, pos: int) -> list[RF]:
    """Full residue polynomial A_s(L) (coefficients 0..b_s-1) for the
    factor at position `pos` within the L-dependent list."""
    f = lam[pos][1]
    B = f.b
    M = f.u.inv()
    M_rf = M.to_ratfun()
    elt = _ring_reduce(num, B, M_rf)
    for k, (_, g) in enumerate(lam):
        if k != pos:
            elt = _ring_mul(elt, _ring_inv_binomial(g, B, M), B, M_rf)
    return elt


def residue_A0(E: CTExpr, s: int) -> Residue:
    """Constant-in-L coefficient of the residue at factor s, with its
    contributing classification."""
    E = normalize_expr(E)
    if E.factors[s].b == 0:
        raise ValueError("residues are taken at L-dependent factors")
    num, lam = _fold_free_factors(E.numerator, E.factors)
    pos = next(k for k, (idx, _) in enumerate(lam) if idx == s)
    for k, (idx, g) in enumerate(lam):
        if k != pos and _share_root(lam[pos][1], g):
            raise NonCoprimeFactors(
                f"factor {s} shares a root with factor {idx}")
    coeffs = _residue_poly(num, lam, pos)
    f = lam[pos][1]
    return Residue(s, coeffs[0], classify_monomial(f.u.xexp, f.b))


def ct_constant_term(E: CTExpr) -> RF:
    """Constant term in L of E, as an exact rational function in x.

    Computes every residue, subtracts the partial fractions to recover
    the Laurent-polynomial remainder, and checks the primal (small-sum)
    and dual (value at L=0 minus large-sum) formulas against each other
    whenever both apply.
    """
    E = normalize_expr(E)
    num, lam = _fold_free_factors(E.numerator, E.factors)
    if not lam:
        return num.get(0, RF(0))
    _check_pairwise_coprime(lam)

    residues = []
    for pos in range(len(lam)):
        coeffs = _residue_poly(num, lam, pos)
        f = lam[pos][1]
        residues.append((coeffs, classify_monomial(f.u.xexp, f.b)))

    # remainder R with E = R + sum_s A_s/(1 - u_s L^{b_s})
    factor_polys = [f.as_poly() for _, f in lam]
    D = Poly([RF(1)])
    for fp in factor_polys:
        D = D * fp
    total = dict(num)
    for pos, (coeffs, _) in enumerate(residues):
        term = Poly(coeffs)
        for k, fp in enumerate(factor_polys):
            if k != pos:
                term = term * fp
        for e, c in enumerate(term.coeffs):
            total[e] = total.get(e, RF(0)) - c
    total = {e: c for e, c in total.items() if c}
    shift = max(0, -min(total, default=0))
    ncoeffs = [RF(0)] * (shift + max(total, default=0) + 1)
    for e, c in total.items():
        ncoeffs[e + shift] = c
    quot, rem = poly_divmod(Poly(ncoeffs), D)
    if not rem.is_zero():
        raise InternalMismatch("partial fraction remainder is not polynomial")
    R0 = quot.coeff(shift)
    primal = R0 + sum((c[0] for c, cat in residues if cat == "small"), RF(0))

    if not num or min(num) >= 0:
        # E has a value at L=0; cross-check with the dual formula
        if any(c for e, c in enumerate(quot.coeffs) if e < shift):
            raise InternalMismatch("remainder has a pole at 0 but E does not")
        dual = num.get(0, RF(0)) - sum(
            (c[0] for c, cat in residues if cat == "large"), RF(0))
        if dual != primal:
            raise InternalMismatch("primal and dual constant terms disagree")
    return primal


def lemma_zero_check(E: CTExpr) -> bool:
    """For E proper in L with E(L=0) = 0, the residues must sum to zero."""
    E = normalize_expr(E)
    num, lam = _fold_free_factors(E.numerator, E.factors)
    deg_den = sum(f.b for _, f in lam)
    if not num:
        return True
    if min(num) < 0 or num.get(0):
        raise PreconditionUnmet("E must vanish at L = 0")
    if max(num) >= deg_den:
        raise PreconditionUnmet("E must be proper in L")
    _check_pairwise_coprime(lam)
    total = RF(0)
    for pos in range(len(lam)):
        total = total + _residue_poly(num, lam, pos)[0]
    return total.is_zero()


def ct_rgf_rational(A: GeneratorList, p: int) -> RF:
    """RGF_p(x) via the constant-term pipeline: reduce against the
    (1 - x*L^-p) factor first, then extract the constant term."""
    if A.g != 1:
        raise GcdNotOne("ct_rgf_rational requires gcd(A) = 1")
    E = reduce_factor_mod(build_rgf_expr(A, p), 0)
    return ct_constant_term(E)


# ---------------------------------------------------------------------------
# expression grammar for the CLI: products of terms `1 - c*x^e*L^b`


_TOKEN = re.compile(r"\s*(\(|\)|\*|/|\-|\+|\^|[0-9]+|x|L)")


class _Tokens:
    def __init__(self, text):
        self.toks = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                raise ValueError(f"bad token at {text[pos:]!r}")
            self.toks.append(m.group(1))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self):
        t = self.peek()
        if t is None:
            raise ValueError("unexpected end of expression")
        self.i += 1
        return t

    def expect(self, t):
        got = self.next()
        if got != t:
            raise ValueError(f"expected {t!r}, got {got!r}")


def _parse_monomial(tk: _Tokens):
    """coef, xexp, lexp from e.g. `2*x^3*L^-2`, `x*L^-3`, `L^5`, `7`."""
    coef = Fraction(1)
    xexp = lexp = 0
    sign = 1
    if tk.peek() == "-":
        tk.next()
        sign = -1
    saw = False
    while True:
        t = tk.peek()
        if t is not None and t.isdigit():
            coef *= int(tk.next())
            saw = True
        elif t in ("x", "L"):
            tk.next()
            e = 1
            if tk.peek() == "^":
                tk.next()
                neg = False
                if tk.peek() == "-":
                    tk.next()
                    neg = True
                e = int(tk.next())
                if neg:
                    e = -e
            if t == "x":
                xexp += e
            else:
                lexp += e
            saw = True
        else:
            break
        if tk.peek() == "*":
            nxt = tk.toks[tk.i + 1] if tk.i + 1 < len(tk.toks) else None
            if nxt is not None and (nxt.isdigit() or nxt in ("x", "L")):
                tk.next()
                continue
        break
    if not saw:
        raise ValueError("expected a monomial")
    return sign * coef, xexp, lexp


def _parse_factor(tk: _Tokens) -> BinomialFactor | None:
    """A factor (1 - c*x^e*L^b), or None for c = 0, where it is 1."""
    tk.expect("(")
    tk.expect("1")
    tk.expect("-")
    coef, xexp, lexp = _parse_monomial(tk)
    tk.expect(")")
    return BinomialFactor(Monomial(coef, xexp), lexp) if coef else None


def parse_elliott(text: str) -> CTExpr:
    """Parse `M/((1 - M1)*(1 - M2)*...)` with monomials c*x^e*L^b, or
    `M/(1)`; a factor with c = 0 is 1 and is dropped."""
    tk = _Tokens(text)
    coef, xexp, lexp = _parse_monomial(tk)
    tk.expect("/")
    tk.expect("(")
    if tk.peek() == "1":
        tk.next()
        factors = []
    else:
        factors = [_parse_factor(tk)]
        while tk.peek() == "*":
            tk.next()
            factors.append(_parse_factor(tk))
    tk.expect(")")
    if tk.peek() is not None:
        raise ValueError(f"trailing input: {tk.toks[tk.i:]!r}")
    return CTExpr({lexp: RF.monomial(coef, xexp)},
                  [f for f in factors if f is not None])


def _render_monomial(coef: Fraction, xexp: int, lexp: int) -> str:
    parts = []
    if xexp:
        parts.append("x" if xexp == 1 else f"x^{xexp}")
    if lexp:
        parts.append("L" if lexp == 1 else f"L^{lexp}")
    mag = abs(coef)
    if mag != 1 or not parts:
        parts.insert(0, str(mag))
    body = "*".join(parts)
    return f"-{body}" if coef < 0 else body


def render_elliott(E: CTExpr) -> str:
    """Canonical text for a monomial (or zero) numerator expression;
    inverse of parse_elliott up to normalization of the monomial
    spelling."""
    if len(E.numerator) > 1:
        raise ValueError("only monomial numerators are renderable")
    num = "0"
    for lexp, rf in E.numerator.items():
        mono = rf.as_monomial()
        if mono is None:
            raise ValueError("numerator coefficient is not a monomial")
        num = _render_monomial(mono[0], mono[1], lexp)
    facs = "*".join(
        f"(1 - {_render_monomial(f.u.coef, f.u.xexp, f.b)})" for f in E.factors)
    return f"{num}/({facs or 1})"
