"""Constant-term calculus for Elliott-rational functions in an auxiliary
variable L over exact rational functions in x.

An expression is a Laurent polynomial in L with rational-function
coefficients divided by a product of binomial factors (1 - u*L^b), where
u is a signed monomial c*x^e.  Residues are computed in Q(x)[L]/(1 - u*L^b),
which divides by each other factor in closed form: with L^b = M = 1/u,
y = v*L^c and n = b/gcd(b, c), y^n is the scalar s = v^n M^{cn/b}, so

    1/(1 - y) = (1 + y + ... + y^{n-1}) / (1 - s),

and a division solves (1 - y)*q = e along each orbit i -> i + c mod b of
the slots: one walk around the orbit gives q at its start over 1 - s,
and a second walk fills in the rest.

s = 1 exactly when the two factors share a root, which a monomial test
decides beforehand.  The constant term follows from the partial
fraction split, with the small/large monomial ordering of the double
Laurent series field deciding which factors contribute.  Its remainder
is built from sparse binomial passes: each residue times the other
factors, subtracted from the numerator, then divided by one factor at a
time from the low end.  Applied to the lifted denumerant expression this
yields RGF_p(x) exactly.

Every scalar, from the parsed expression to the result, is an
`exactalg.RationalFunction`: a rational content times an integer Laurent
polynomial in x over a multiset of integer binomial atoms such as 1 - s,
added and multiplied without any gcd
(G. Xin, A fast algorithm for MacMahon's partition analysis, Electron.
J. Combin. 11 (2004) R58).  The engine divides only by binomials (the
L-free factors and each 1 - s) and by monomials, so the multisets stay
small.  Each result has its normal form computed once, before it is
returned, atom by atom and without a Euclid (`exactalg.rf_from_atoms`).
"""
from __future__ import annotations

import math
import re
from collections import namedtuple
from fractions import Fraction

from .errors import (CapExceeded, DivisionByZeroPoly, GcdNotOne,
                     InternalMismatch, NonCoprimeFactors, PreconditionUnmet)
from .exactalg import RationalFunction
from .semigroup import DEFAULT_SIEVE_CAP, GeneratorList

_ZERO = RationalFunction(0)
_ONE = RationalFunction(1)


class Monomial(namedtuple("Monomial", "coef xexp")):
    """Signed monomial coef * x^xexp with exact rational coef."""

    __slots__ = ()

    def __new__(cls, coef: Fraction, xexp: int):
        if not coef:
            raise ValueError("monomial coefficient must be nonzero")
        return tuple.__new__(cls, (coef, xexp))

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.coef * other.coef, self.xexp + other.xexp)

    def inv(self) -> "Monomial":
        return Monomial(1 / self.coef, -self.xexp)

    def neg(self) -> "Monomial":
        return Monomial(-self.coef, self.xexp)

    def __pow__(self, n: int) -> "Monomial":
        return Monomial(self.coef ** n, self.xexp * n)

    def to_ratfun(self) -> RationalFunction:
        return RationalFunction.monomial(self.coef, self.xexp)


class BinomialFactor(namedtuple("BinomialFactor", "u b")):
    """The denominator factor (1 - u * L^b)."""

    __slots__ = ()


class Residue(namedtuple("Residue", "factor_index A0 contributing")):
    """`contributing` is "small" or "large"."""

    __slots__ = ()


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
    return CTExpr({0: _ONE}, factors)


def reduce_factor_mod(E: CTExpr, s: int) -> CTExpr:
    """Reduce every other factor and the numerator modulo the relation
    u_s * L^{b_s} = 1; the result is congruent to E modulo the ideal
    generated by factor s."""
    f = E.factors[s]
    if f.b == 0:
        raise ValueError("cannot reduce modulo an L-free factor")
    B = abs(f.b)
    M = f.u.inv() if f.b > 0 else f.u  # L^B is congruent to M
    factors = []
    for j, g in enumerate(E.factors):
        if j == s or g.b == 0:
            factors.append(g)
            continue
        q, r = divmod(g.b, B)
        factors.append(BinomialFactor(g.u * (M ** q), r) if q else g)
    return CTExpr(_ring_reduce(E.numerator, B, M), factors)


def _fold_free_factors(num: dict[int, RationalFunction], factors):
    """Divide the numerator by every L-free factor; returns the folded
    numerator and the L-dependent factors with their original indices."""
    lam = []
    out = num
    for idx, f in enumerate(factors):
        if f.b == 0:
            c = 1 - f.u.to_ratfun()
            if c.is_zero():
                raise DivisionByZeroPoly("vanishing L-free factor (1 - 1)")
            out = {e: v / c for e, v in out.items()}
        else:
            lam.append((idx, f))
    return out, lam


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


def _ring_cells(lam, pos: int) -> int:
    """Size of the residue ring of the factor (1 - u*L^b) at `pos`: it
    holds b scalars whose numerators grow with the x-degrees of the
    scale binomials 1 - v^n M^{c/d} that `_ring_div_binomial` divides
    by, one per other factor, so it counts b * (1 + sum of those
    degrees)."""
    f = lam[pos][1]
    deg = 1
    for k, (_, g) in enumerate(lam):
        if k != pos:
            d = math.gcd(f.b, g.b)
            deg += abs(f.b // d * g.u.xexp - g.b // d * f.u.xexp)
    return f.b * deg


def _charge_rings(lam, cap: int):
    """Charge all the residue rings against cap before any is built."""
    cells = sum(_ring_cells(lam, pos) for pos in range(len(lam)))
    if cells > cap:
        raise CapExceeded(f"residue rings of {cells} cells exceed cap {cap}")


def _charge_remainder(total: dict[int, RationalFunction], lam, cap: int):
    """Charge the partial-fraction remainder against cap before the
    divisions build it.  Dividing `total` by the factors from the low
    end fills keys of one span S = max - min + 1, and along a class
    e mod b each step multiplies by u, so a coefficient's x-degree grows
    by |deg u| per step: S * (1 + sum |deg u| * ((S - 1) // b)) cells."""
    span = max(total) - min(total) + 1
    growth = sum(abs(g.u.xexp) * ((span - 1) // g.b) for _, g in lam)
    cells = span * (1 + growth)
    if cells > cap:
        raise CapExceeded(f"partial fraction remainder of {cells} cells "
                          f"exceeds cap {cap}")


def _ring_reduce(num: dict[int, RationalFunction], B: int,
                 M: Monomial) -> dict[int, RationalFunction]:
    """Map a Laurent polynomial in L into Q(x)[L]/(L^B - M), as the
    nonzero slots {r: coefficient of L^r}, 0 <= r < B."""
    out: dict[int, RationalFunction] = {}
    for e, c in num.items():
        q, r = divmod(e, B)
        out[r] = out.get(r, _ZERO) + (c * (M ** q).to_ratfun() if q else c)
    return {r: c for r, c in out.items() if c}


def _ring_div_binomial(elt: dict[int, RationalFunction], g: BinomialFactor,
                       B: int, M: Monomial) -> dict[int, RationalFunction]:
    """elt / (1 - v*L^c) in Q(x)[L]/(L^B - M), for elt as `_ring_reduce`
    returns it: the q with (1 - y)*q = elt, y = v*L^c.

    Multiplying by y moves slot i to i + c mod B, times v*M^{floor(c/B)},
    and one more M when it wraps past B, so q_{i+c} = e_{i+c} + w_i*q_i
    along each of the d = gcd(B, c) orbits i -> i + c mod B.  Around an
    orbit of n = B/d slots the steps w multiply to s = y^n = v^n M^{c/d},
    so one Horner walk from a start back to it gives T = (1 - s)*q_start,
    and a second walk from q_start = T/(1 - s) fills in the orbit.  An
    orbit holding no nonzero slot of elt has q = 0 and is skipped."""
    v, c = g.u, g.b
    d = math.gcd(B, c)
    n = B // d
    den = 1 - (v ** n * M ** (c // d)).to_ratfun()
    if n == 1:
        return {i: val / den for i, val in elt.items()}
    q, r = divmod(c, B)
    step = v * M ** q
    stay, wrap = step.to_ratfun(), (step * M).to_ratfun()
    out: dict[int, RationalFunction] = {}
    done = set()
    for start in elt:
        if start % d in done:
            continue
        done.add(start % d)
        acc, i = _ZERO, start
        for _ in range(n):
            j = i + r
            if acc:
                acc = acc * (stay if j < B else wrap)
            i = j if j < B else j - B
            if i in elt:
                acc = acc + elt[i]
        acc = acc / den
        if acc:
            out[i] = acc
        for _ in range(n - 1):
            j = i + r
            acc = acc * (stay if j < B else wrap)
            i = j if j < B else j - B
            if i in elt:
                acc = acc + elt[i]
            if acc:
                out[i] = acc
    return out


def _residue_poly(num: dict[int, RationalFunction], lam,
                  pos: int) -> dict[int, RationalFunction]:
    """Residue polynomial A_s(L) for the factor (1 - u*L^b) at position
    `pos` within the L-dependent list, as its nonzero slots
    {r: coefficient of L^r}, 0 <= r < b."""
    f = lam[pos][1]
    B = f.b
    M = f.u.inv()
    elt = _ring_reduce(num, B, M)
    for k, (_, g) in enumerate(lam):
        if k != pos:
            elt = _ring_div_binomial(elt, g, B, M)
    return elt


def _times_binomial(t: dict[int, RationalFunction],
                    g: BinomialFactor) -> dict[int, RationalFunction]:
    """t * (1 - u*L^b) for a Laurent polynomial t in L."""
    nu = g.u.neg().to_ratfun()
    out = dict(t)
    for e, val in t.items():
        e += g.b
        out[e] = out[e] + nu * val if e in out else nu * val
    return {e: val for e, val in out.items() if val}


def _over_binomial(t: dict[int, RationalFunction],
                   g: BinomialFactor) -> dict[int, RationalFunction]:
    """t / (1 - u*L^b), b > 0, for a Laurent polynomial t in L, divided
    from the low end: q_e = t_e + u*q_{e-b} along each class e mod b.
    The quotient is a Laurent polynomial exactly when q vanishes at the
    top key of every class; otherwise `InternalMismatch`."""
    u, b = g.u.to_ratfun(), g.b
    classes: dict[int, list[int]] = {}
    for e in sorted(t):
        classes.setdefault(e % b, []).append(e)
    out: dict[int, RationalFunction] = {}
    for keys in classes.values():
        acc, last = _ZERO, keys[0]
        for e in keys:
            if acc:
                for gap in range(last + b, e, b):
                    acc = u * acc
                    out[gap] = acc
                acc = u * acc + t[e]
            else:
                acc = t[e]
            if acc:
                out[e] = acc
            last = e
        if acc:
            raise InternalMismatch(
                "partial fraction remainder is not polynomial")
    return out


def residue_A0(E: CTExpr, s: int) -> Residue:
    """Constant-in-L coefficient of the residue at factor s, with its
    contributing classification.  The one ring it builds is charged
    against the default sieve cap (`CapExceeded`)."""
    E = normalize_expr(E)
    if E.factors[s].b == 0:
        raise ValueError("residues are taken at L-dependent factors")
    num, lam = _fold_free_factors(E.numerator, E.factors)
    pos = next(k for k, (idx, _) in enumerate(lam) if idx == s)
    for k, (idx, g) in enumerate(lam):
        if k != pos and _share_root(lam[pos][1], g):
            raise NonCoprimeFactors(
                f"factor {s} shares a root with factor {idx}")
    cells = _ring_cells(lam, pos)
    if cells > DEFAULT_SIEVE_CAP:
        raise CapExceeded(f"residue ring of {cells} cells exceeds cap "
                          f"{DEFAULT_SIEVE_CAP}")
    A0 = _residue_poly(num, lam, pos).get(0, _ZERO)
    f = lam[pos][1]
    return Residue(s, A0.normalised(), classify_monomial(f.u.xexp, f.b))


def ct_constant_term(E: CTExpr,
                     cap: int = DEFAULT_SIEVE_CAP) -> RationalFunction:
    """Constant term in L of E, as an exact rational function in x.

    Computes every residue A_s, recovers the Laurent-polynomial remainder
    R of E = R + sum_s A_s/f_s, and checks the primal (small-sum) and
    dual (value at L=0 minus large-sum) formulas against each other
    whenever both apply.  R*prod f = num - sum_s A_s*prod_{k != s} f_k is
    built by sparse binomial passes, and divided by one factor f at a
    time from the low end; every division must be exact, which holds
    exactly when prod f divides the whole.  The residue rings are
    charged against cap (`CapExceeded`) before any is built, and so are
    the remainder and the normal form of the result.
    """
    E = normalize_expr(E)
    num, lam = _fold_free_factors(E.numerator, E.factors)
    if not lam:
        return num.get(0, _ZERO).normalised(cap)
    _check_pairwise_coprime(lam)
    _charge_rings(lam, cap)

    residues = []
    for pos in range(len(lam)):
        elt = _residue_poly(num, lam, pos)
        f = lam[pos][1]
        residues.append((elt, classify_monomial(f.u.xexp, f.b)))

    # remainder R with E = R + sum_s A_s/(1 - u_s L^{b_s})
    total = dict(num)
    for pos, (elt, _) in enumerate(residues):
        for k, (_, g) in enumerate(lam):
            if k != pos:
                elt = _times_binomial(elt, g)
        for e, c in elt.items():
            total[e] = total[e] - c if e in total else -c
    quot = {e: c for e, c in total.items() if c}
    if quot:
        _charge_remainder(quot, lam, cap)
    for _, g in lam:
        quot = _over_binomial(quot, g)
    primal = quot.get(0, _ZERO) + sum(
        (elt.get(0, _ZERO) for elt, cat in residues if cat == "small"), _ZERO)

    if not num or min(num) >= 0:
        # E has a value at L=0; cross-check with the dual formula
        if any(e < 0 for e in quot):
            raise InternalMismatch("remainder has a pole at 0 but E does not")
        dual = num.get(0, _ZERO) - sum(
            (elt.get(0, _ZERO) for elt, cat in residues if cat == "large"),
            _ZERO)
        if dual != primal:
            raise InternalMismatch("primal and dual constant terms disagree")
    return primal.normalised(cap)


def lemma_zero_check(E: CTExpr) -> bool:
    """For E proper in L with E(L=0) = 0, the residues must sum to zero.
    Its residue rings are charged against the default sieve cap
    (`CapExceeded`) before any is built."""
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
    _charge_rings(lam, DEFAULT_SIEVE_CAP)
    total = _ZERO
    for pos in range(len(lam)):
        total = total + _residue_poly(num, lam, pos).get(0, _ZERO)
    return total.is_zero()


def ct_rgf_rational(A: GeneratorList, p: int,
                    cap: int = DEFAULT_SIEVE_CAP) -> RationalFunction:
    """RGF_p(x) via the constant-term pipeline: reduce against the
    (1 - x*L^-p) factor first, then extract the constant term."""
    if A.g != 1:
        raise GcdNotOne("ct_rgf_rational requires gcd(A) = 1")
    E = reduce_factor_mod(build_rgf_expr(A, p), 0)
    return ct_constant_term(E, cap)


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
    return CTExpr({lexp: RationalFunction.monomial(coef, xexp)},
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
