"""Reference answers for the benchmark, in plain int and Fraction arithmetic.

Nothing here imports nsq, so a defect in the package cannot hide in the
oracle that checks it.  Each oracle is much cheaper than the operation it
checks, so every answer of a run can be checked without the check
dominating the run:

- numerical semigroups through the Apery set of the least generator,
  found by Dijkstra over residues (k * m log m work instead of a sieve of
  F(A) cells);
- RGF_p(x) through an exact identity: with b_i = a_i / gcd(a_i, p) and
  c_i = p / gcd(a_i, p),

      prod_i (1 - x^{p b_i}) / (1 - x^{a_i}) = prod_i sum_{j < c_i} x^{j a_i}

  is a polynomial P(x), and the p-multisection of P is the numerator of
  RGF_p(x) over prod_i (1 - x^{b_i});
- constant terms of Elliott expressions by enumerating exponent vectors up
  to a fixed x-degree.
"""
from __future__ import annotations

import heapq
import math
from fractions import Fraction


def sylvester(a: int, b: int) -> int:
    """Frobenius number of <a, b> for coprime a, b."""
    return a * b - a - b


def apery_set(gens, m: int) -> list[int]:
    """w[r] = least element of <gens> congruent to r mod m."""
    dist: list[int | None] = [None] * m
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if d != dist[r]:
            continue
        for a in gens:
            nd = d + a
            s = nd % m
            if dist[s] is None or nd < dist[s]:
                dist[s] = nd
                heapq.heappush(heap, (nd, s))
    if any(w is None for w in dist):
        raise ValueError(f"gcd of {tuple(gens)} is not 1")
    return dist


def minimal_from_apery(m: int, ap) -> list[int]:
    """Minimal generators of the semigroup with multiplicity m and Apery
    set ap: m and the nonzero Apery elements that are not the sum of two
    nonzero Apery elements."""
    if m == 1:
        return [1]
    nz = sorted(w for w in ap if w)
    members = set(nz)
    out = [m]
    for w in nz:
        if not any(w - v in members for v in nz if 2 * v <= w):
            out.append(w)
    return sorted(out)


class Semigroup:
    """<gens> with gcd 1, held as the Apery set of its least generator."""

    def __init__(self, gens):
        self.m = min(gens)
        self.ap = apery_set(gens, self.m)

    def __contains__(self, n: int) -> bool:
        return n >= 0 and n >= self.ap[n % self.m]

    def frobenius(self) -> int | None:
        return None if self.m == 1 else max(self.ap) - self.m

    def minimal_generators(self) -> list[int]:
        return minimal_from_apery(self.m, self.ap)


class Quotient:
    """S/p = {n : p*n in S}, with its multiplicity, Frobenius number and
    Apery set read off the membership test of S."""

    def __init__(self, S: Semigroup, p: int):
        self.S, self.p = S, p
        fs = S.frobenius()
        self.f = None
        for n in range((fs if fs is not None else 0) // p, 0, -1):
            if n not in self:
                self.f = n
                break
        self.m = next(n for n in range(1, (self.f or 0) + 2) if n in self)
        ap: list[int | None] = [None] * self.m
        missing = self.m
        n = 0
        while missing:
            if ap[n % self.m] is None and n in self:
                ap[n % self.m] = n
                missing -= 1
            n += 1
        self.ap = ap

    def __contains__(self, n: int) -> bool:
        return self.p * n in self.S

    def minimal_generators(self) -> list[int]:
        return minimal_from_apery(self.m, self.ap)

    def generated_by(self, gens) -> bool:
        """True iff <gens> equals this quotient."""
        gens = sorted(set(gens))
        if not gens or any(g < 1 or g not in self for g in gens):
            return False
        return self.m in gens and apery_set(gens, self.m) == self.ap


# --- integer polynomials, constant term first --------------------------


def poly_mul(a, b) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                if d:
                    out[i + j] += c * d
    return out


def trim(coeffs) -> list:
    out = list(coeffs)
    while out and not out[-1]:
        out.pop()
    return out


def rgf_closed_form(seq, p: int) -> tuple[list[int], list[int]]:
    """(numerator, denominator exponents) of RGF_p for the generator
    sequence seq, proved by the identity in the module docstring."""
    P = [1]
    for a in seq:
        c = p // math.gcd(a, p)
        P = poly_mul(P, [0 if i % a else 1 for i in range(a * (c - 1) + 1)])
    return trim(P[::p]), sorted(a // math.gcd(a, p) for a in seq)


def expand(num, den, n: int) -> list[int]:
    """First n+1 coefficients of num / prod_b (1 - x^b)."""
    c = (list(num) + [0] * (n + 1))[:n + 1]
    for b in den:
        for i in range(b, n + 1):
            c[i] += c[i - b]
    return c


def den_poly(den) -> list[int]:
    """prod_b (1 - x^b) as an integer polynomial."""
    out = [1]
    for b in den:
        out = poly_mul(out, [1] + [0] * (b - 1) + [-1])
    return out


def same_rational(num1, den1, num2, den2) -> bool:
    """num1/den1 == num2/den2 for polynomials given as coefficient lists."""
    return trim(poly_mul(num1, den2)) == trim(poly_mul(num2, den1))


def rational_series(num, den, n: int) -> list[Fraction]:
    """First n+1 Taylor coefficients of num/den; den[0] must be nonzero."""
    out: list[Fraction] = []
    for k in range(n + 1):
        acc = Fraction(num[k]) if k < len(num) else Fraction(0)
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * out[k - j]
        out.append(acc / den[0])
    return out


def brute_constant_term(coef, xexp: int, lexp: int, factors, degree: int):
    """CT in L of coef*x^xexp*L^lexp / prod (1 - c*x^e*L^b), as the first
    degree+1 coefficients in x.  Every factor has e >= 1, so it expands as
    a geometric series and only finitely many exponent vectors reach each
    x-degree."""
    out = [Fraction(0)] * (degree + 1)

    def walk(i, xdeg, ldeg, c):
        if i == len(factors):
            if ldeg == 0:
                out[xdeg] += c
            return
        ci, ei, bi = factors[i]
        k = 0
        while xdeg + k * ei <= degree:
            walk(i + 1, xdeg + k * ei, ldeg + k * bi, c * Fraction(ci) ** k)
            k += 1

    if xexp <= degree:
        walk(0, xexp, lexp, Fraction(coef))
    return out


def render_monomial(coef: int, xexp: int, lexp: int) -> str:
    """Text of coef*x^xexp*L^lexp in the nsq expression grammar."""
    parts = [] if coef == 1 else [str(coef)]
    if xexp:
        parts.append("x" if xexp == 1 else f"x^{xexp}")
    if lexp:
        parts.append("L" if lexp == 1 else f"L^{lexp}")
    return "*".join(parts) or "1"


def render_elliott(coef, xexp, lexp, factors) -> str:
    facs = "*".join(f"(1 - {render_monomial(c, e, b)})" for c, e, b in factors)
    return f"{render_monomial(coef, xexp, lexp)}/({facs})"
