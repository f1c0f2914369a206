"""Representation generating functions RGF_p(x) = sum_n d(pn; A) x^n:
truncated series by multisection, proved closed-form rational functions,
Frobenius numbers read off the series, and generator extraction from the
numerator support.
"""
from __future__ import annotations

import math
from collections import namedtuple

from .errors import CapExceeded, GcdNotOne, NegativeNumerator
from .semigroup import (DEFAULT_SIEVE_CAP, GeneratorList, denumerant_series,
                        frobenius)


class RGFSeries(namedtuple("RGFSeries", "A p order coeffs")):
    """Coefficients c_n = d(p*n; A) for n = 0..order."""

    __slots__ = ()


class RGFRational(namedtuple("RGFRational",
                             "numerator denom_factors certified_to")):
    """Closed form numerator / prod_i (1 - x^{b_i}); `certified_to` is the
    degree through which `rgf rational --verify` checks the expansion
    against the series."""

    __slots__ = ()

    def numerator_support(self) -> dict[int, int]:
        return {e: c for e, c in enumerate(self.numerator) if c}

    def taylor(self, n: int) -> tuple[int, ...]:
        """Coefficients 0..n of the expansion at 0, in integers: one
        prefix-sum pass c_m += c_{m-b} per factor 1/(1 - x^b)."""
        c = list(self.numerator[:n + 1])
        c += [0] * (n + 1 - len(c))
        for b in self.denom_factors:
            for m in range(b, n + 1):
                c[m] += c[m - b]
        return tuple(c)

    def denominator(self) -> Poly:
        """prod_i (1 - x^{b_i}), unreduced."""
        # loaded here so that only --verify and the CT route load exactalg
        from .exactalg import Poly

        den = Poly.from_ints([1])
        for b in self.denom_factors:
            den = den * Poly.one_minus_pow(b)
        return den

    def to_rational(self) -> RationalFunction:
        """The value over the atoms 1 - x^b, its normal form computed
        atom by atom (`rf_from_atoms`)."""
        from .exactalg import Poly, RationalFunction

        f = RationalFunction(Poly.from_ints(self.numerator))
        for b in self.denom_factors:
            f = f / RationalFunction(Poly.one_minus_pow(b))
        return f.normalised()


def rgf_series(A: GeneratorList, p: int, N: int,
               cap: int = DEFAULT_SIEVE_CAP) -> RGFSeries:
    """Every p-th coefficient of the denumerant series up to p*N."""
    if p < 1:
        raise ValueError("p must be a positive integer")
    if N < 0:
        raise ValueError(f"truncation must be non-negative, got {N}")
    full = denumerant_series(A, p * N, cap=cap)
    return RGFSeries(A, p, N, tuple(full.coeffs[::p]))


def _times_geometric(poly: list[int], a: int, c: int) -> list[int]:
    """poly * (1 + x^a + ... + x^{(c-1)a}) by a sliding window of c terms."""
    out = poly + [0] * ((c - 1) * a)
    for n in range(a, len(out)):
        out[n] += out[n - a] - (poly[n - c * a] if n >= c * a else 0)
    return out


def _closed_form(A: GeneratorList, p: int, cap: int) -> RGFRational:
    """The closed form of RGF_p over prod_i (1 - x^{b_i}), with no
    horizon (`certified_to` None).

    Proof.  With g = gcd(a, p), c = p/g and b = a/g, every a satisfies
    1/(1 - x^a) = (sum_{j<c} x^{ja}) / (1 - x^{pb}), since c*a = p*b.  So
    sum_n d(n; A) x^n = P(x) / prod_i (1 - x^{p b_i}) with the polynomial
    P(x) = prod_i sum_{j<c_i} x^{j a_i} over A.seq.  The denominator is a
    series in x^p, so keeping the terms of exponent pn on both sides
    gives RGF_p(x^p) = P_p(x^p) / prod_i (1 - x^{p b_i}), where P_p keeps
    the coefficients of P at exponents divisible by p.  Substituting
    x^p -> x yields the numerator; its degree is below sum b_i because
    deg P = sum (p - g_i) b_i.  No series is expanded.  P has
    1 + sum (c_i - 1) a_i coefficients, charged against `cap` before it
    is built.
    """
    if A.g != 1:
        raise GcdNotOne("rgf_rational requires gcd(A) = 1")
    if p < 1:
        raise ValueError("p must be a positive integer")
    cs = [p // math.gcd(a, p) for a in A.seq]
    size = 1 + sum((c - 1) * a for a, c in zip(A.seq, cs))
    if size > cap:
        raise CapExceeded(f"closed form of {size} coefficients exceeds cap {cap}")
    P = [1]
    for a, c in zip(A.seq, cs):
        P = _times_geometric(P, a, c)
    num = P[::p]
    while num and num[-1] == 0:
        num.pop()
    bs = sorted(a // math.gcd(a, p) for a in A.seq)
    return RGFRational(tuple(num), tuple(bs), None)


def rgf_rational(A: GeneratorList, p: int,
                 cap: int = DEFAULT_SIEVE_CAP) -> RGFRational:
    """Closed form of RGF_p over prod_i (1 - x^{b_i}), b_i = a_i/gcd(a_i, p),
    proved in `_closed_form`, whose product P is charged against `cap`.

    `certified_to` is the horizon `rgf rational --verify` checks the
    closed form against the series through: one full quasi-period Q (the
    p-reduced lcm of A) past the numerator degree and the transient
    ceil(F(A)/p).  The F(A) sieve shares `cap`.
    """
    r = _closed_form(A, p, cap)
    Q = math.lcm(*A.seq)
    Q //= math.gcd(Q, p)
    transient = -(-(frobenius(A, cap=cap) or 0) // p)
    return r._replace(certified_to=sum(r.denom_factors) + Q + transient + 1)


def frobenius_from_rgf(A: GeneratorList, p: int,
                       cap: int = DEFAULT_SIEVE_CAP) -> int | None:
    """Largest n with d(pn; A) = 0, certified by a run of positive
    coefficients as long as the smallest positive quotient member.  Each
    series it expands is charged against `cap`."""
    if A.g != 1:
        raise GcdNotOne("requires gcd(A) = 1")
    N = 16
    while True:
        coeffs = rgf_series(A, p, N, cap=cap).coeffs
        m = next((n for n in range(1, N + 1) if coeffs[n] > 0), None)
        if m is not None:
            zeros = [n for n in range(1, N + 1) if coeffs[n] == 0]
            if not zeros and N >= m:
                return None
            if zeros and N - zeros[-1] >= m:
                return zeros[-1]
        N *= 2


def gens_from_rgf(r: RGFRational, A: GeneratorList, p: int) -> list[int]:
    """Generators of <A>/p from a nonnegative closed form: the
    denominator exponents plus the nonzero numerator exponents."""
    if any(c < 0 for c in r.numerator):
        raise NegativeNumerator("numerator has a negative coefficient")
    out = set(r.denom_factors)
    out.update(e for e, c in enumerate(r.numerator) if c and e > 0)
    return sorted(out)


def format_poly(pairs) -> str:
    """Ascending-exponent text of a polynomial given as (exp, coef)
    pairs in ascending exponent order, e.g. 1 - 2*x + x^4; "0" when
    every coefficient is zero."""
    terms = []
    for e, c in pairs:
        if not c:
            continue
        body = str(abs(c)) if e == 0 else (
            ("" if abs(c) == 1 else f"{abs(c)}*") + ("x" if e == 1 else f"x^{e}"))
        terms.append(("- " if c < 0 else "+ ") + body)
    if not terms:
        return "0"
    head = terms[0].replace("+ ", "", 1).replace("- ", "-", 1)
    return " ".join([head] + terms[1:])


def render_text(r: RGFRational) -> str:
    """Ascending-exponent text form, e.g. (1 + x^4)/((1-x^3)*(1-x^5))."""
    den = "*".join(f"(1-x^{b})" for b in r.denom_factors)
    return f"({format_poly(enumerate(r.numerator))})/({den})"


def to_json_dict(r: RGFRational) -> dict:
    return {
        "num": {str(e): c for e, c in sorted(r.numerator_support().items())},
        "den": list(r.denom_factors),
        "certified_to": r.certified_to,
    }


def from_json_dict(d: dict) -> RGFRational:
    support = {int(e): int(c) for e, c in d["num"].items()}
    top = max(support, default=0)
    num = tuple(support.get(e, 0) for e in range(top + 1))
    return RGFRational(num, tuple(d["den"]), int(d["certified_to"]))
