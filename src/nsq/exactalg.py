"""Exact arithmetic kernel: dense univariate polynomials, rational
functions and truncated power series.

Rational scalars are `fractions.Fraction`.  `Poly` is coefficient-generic:
the package uses it over Fraction (polynomials in x), and it works as
well over `RationalFunction` (polynomials in a second variable whose
coefficients are rational functions in x).  `RationalFunction` is the
one type for a rational function in x: one rational content times a
primitive integer Laurent numerator over a multiset of canonical
primitive integer atoms, computed with no gcd, whose reduced normal
form `rf_from_atoms` computes once, on first read.  All operations are
pure and every value is immutable after construction.
Fraction `Poly`s are built only at the boundary: the `num`/`den`
normal form, the `RationalFunction` constructor's arguments, and the
Euclid `rf_from_atoms` runs for a reducible atom (Capelli).  Only the
public `RGFRational.denominator()`, which no command calls, multiplies
them.
`TruncatedSeries` is defined in `semigroup`, whose denumerant series
needs no kernel, and is re-exported here.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import CapExceeded, DivisionByZeroPoly, PoleAtZero
from .semigroup import DEFAULT_SIEVE_CAP, TruncatedSeries

_ZERO_F = Fraction(0)


def _trim(coeffs):
    end = len(coeffs)
    while end and not coeffs[end - 1]:
        end -= 1
    return tuple(coeffs[:end])


class Poly:
    """Dense univariate polynomial, constant term first.

    The zero polynomial is the empty coefficient tuple and has degree -1.
    Coefficients may be any exact field elements supporting arithmetic
    with themselves and with int scalars.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _trim(list(coeffs))

    @classmethod
    def from_ints(cls, coeffs):
        return cls([Fraction(c) for c in coeffs])

    @classmethod
    def monomial(cls, coef, exp):
        return cls([0] * exp + [coef])

    @classmethod
    def one_minus_pow(cls, b):
        """1 - x^b with Fraction coefficients."""
        return cls.from_ints([1] + [0] * (b - 1) + [-1])

    @property
    def deg(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    @property
    def lead(self):
        return self.coeffs[-1]

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return Poly([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                     for i in range(n)])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly([c * other for c in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return Poly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            for j, d in enumerate(other.coeffs):
                out[i + j] = out[i + j] + c * d
        return Poly(out)

    __rmul__ = __mul__

    def scale(self, s):
        return Poly([c * s for c in self.coeffs])

    def monic(self):
        if not self.coeffs:
            return self
        lc = self.lead
        return Poly([c / lc for c in self.coeffs])

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Exact long division: a = q*b + r with deg r < deg b."""
    if b.is_zero():
        raise DivisionByZeroPoly("division by the zero polynomial")
    r = list(a.coeffs)
    db = b.deg
    if a.deg < db:
        return Poly(), a
    q = [0] * (a.deg - db + 1)
    blead = b.lead
    for k in range(a.deg - db, -1, -1):
        c = r[k + db]
        if not c:
            continue
        f = c / blead
        q[k] = f
        for j, bc in enumerate(b.coeffs):
            if bc:
                r[k + j] = r[k + j] - f * bc
    return Poly(q), Poly(r[:db])


def _primitive(p: Poly) -> Poly:
    """p over Q scaled to coprime integer coefficients; a constant, or p
    over another field (such as RationalFunction), is returned as it is."""
    cs = p.coeffs
    if p.deg < 1 or not all(isinstance(c, (int, Fraction)) for c in cs):
        return p
    den = math.lcm(*[c.denominator for c in cs])
    num = math.gcd(*[c.numerator for c in cs])
    return Poly([Fraction(c.numerator * (den // c.denominator) // num)
                 for c in cs])


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd via Euclid; gcd(p, 0) is the monic multiple of p.  Each
    remainder is made primitive, which keeps its coefficients small."""
    while not b.is_zero():
        a, b = b, _primitive(poly_divmod(a, b)[1])
    return a.monic()


def _mul_terms(a, b) -> dict:
    """Product of two sparse Laurent polynomials given as (exp, coef)
    pairs, as {exp: coef} without zero coefficients."""
    out = {}
    for i, c in a:
        for j, d in b:
            out[i + j] = out.get(i + j, 0) + c * d
    return {e: c for e, c in out.items() if c}


def _terms(p) -> tuple[dict, Fraction]:
    """An int, Fraction or Fraction Poly as a primitive {exp: int}, zeros
    dropped, and the content that multiplies it back."""
    cs = p.coeffs if isinstance(p, Poly) else (p,)
    cs = {i: Fraction(c) for i, c in enumerate(cs) if c}
    if not cs:
        return {}, _ZERO_F
    den = math.lcm(*[c.denominator for c in cs.values()])
    cs = {i: c.numerator * (den // c.denominator) for i, c in cs.items()}
    g = math.gcd(*cs.values())
    return {i: c // g for i, c in cs.items()}, Fraction(g, den)


class RationalFunction:
    """A rational function in x: one rational content `scale` times a
    primitive integer Laurent numerator over a multiset of atoms, with
    no gcd taken.

    `terms` maps exponents to nonzero ints with gcd 1; `scale` is a
    Fraction, 0 exactly when `terms` is empty.  `atoms` maps each atom,
    a primitive integer polynomial with positive constant term written
    as its sorted (exp, int) pairs, to its multiplicity, so 1 - 2/3x^3
    and 3 - 2x^3 are one atom.  Products of primitive polynomials are
    primitive (Gauss), so a product multiplies integers and adds the
    multisets; a sum lifts both sides to the per-atom maximum, puts the
    two scales over one denominator and takes out the gcd of the
    integer sum; a quotient adds the divisor's numerator, less its
    monomial factor, as one more atom; equality is a cross-
    multiplication.  Fraction arithmetic runs once per operation, on
    the scales.  This is the scalar of G. Xin, A fast algorithm for
    MacMahon's partition analysis, Electron. J. Combin. 11 (2004) R58.

    `num` and `den` are the reduced normal form: coprime, den monic,
    Fraction coefficients, and x^-k written with x^k in the denominator.
    `rf_from_atoms` computes it atom by atom on first read, with no
    Euclid unless a reducible atom shares a factor with the numerator,
    and it is cached; `hash`, `as_monomial` and `repr` read it.  Values
    are immutable: the cache only fills in.
    """

    __slots__ = ("terms", "scale", "atoms", "_form")

    def __init__(self, num, den=None):
        """num / den for ints, Fractions or Polys over Fraction."""
        value = self._new(*_terms(num))
        if den is not None:
            den = self._new(*_terms(den))
            if not den.terms:
                raise ZeroDivisionError(
                    "rational function with zero denominator")
            value = value / den
        self.terms, self.scale = value.terms, value.scale
        self.atoms, self._form = value.atoms, None

    @classmethod
    def _new(cls, terms: dict, scale: Fraction, atoms: dict | None = None):
        """scale * terms / prod atoms, built without `__init__`."""
        f = object.__new__(cls)
        f.terms = terms
        f.scale = scale if terms else _ZERO_F
        f.atoms = atoms if terms and atoms else {}
        f._form = None
        return f

    @classmethod
    def monomial(cls, coef, exp):
        """coef * x^exp with exp allowed negative."""
        return cls._new({exp: 1} if coef else {}, Fraction(coef))

    def normalised(self, cap: int = DEFAULT_SIEVE_CAP) -> "RationalFunction":
        """This value, with its normal form computed and cached.  The dense
        lists of that computation are charged against cap before any is
        built: the numerator's span of exponents plus the total degree of
        the atoms, counted with multiplicity (`CapExceeded`)."""
        if self._form is None:
            if self.terms:
                cells = max(self.terms) - min(self.terms) + 1 + sum(
                    atom[-1][0] * m for atom, m in self.atoms.items())
                if cells > cap:
                    raise CapExceeded(f"normal form of {cells} coefficients "
                                      f"exceeds cap {cap}")
            self._form = rf_from_atoms(self.terms, self.atoms, self.scale)
        return self

    @property
    def num(self) -> Poly:
        return self.normalised()._form[0]

    @property
    def den(self) -> Poly:
        return self.normalised()._form[1]

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    @staticmethod
    def _coerce(v):
        if isinstance(v, RationalFunction):
            return v
        if isinstance(v, (int, Fraction)):
            return RationalFunction.monomial(v, 0)
        return NotImplemented

    def _lift(self, atoms: dict) -> dict:
        """The numerator over `atoms`, a multiset containing self.atoms."""
        num = self.terms
        for atom, k in atoms.items():
            for _ in range(k - self.atoms.get(atom, 0)):
                num = _mul_terms(num.items(), atom)
        return num

    def _common_atoms(self, other) -> dict:
        atoms = dict(self.atoms)
        for atom, k in other.atoms.items():
            if k > atoms.get(atom, 0):
                atoms[atom] = k
        return atoms

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._form is not None and other._form is not None:
            return self._form == other._form
        # both lifted numerators are primitive, so they agree up to sign
        atoms = self._common_atoms(other)
        a, b = self._lift(atoms), other._lift(atoms)
        if self.scale == other.scale:
            return a == b
        return (self.scale == -other.scale
                and a == {e: -c for e, c in b.items()})

    def __hash__(self):
        num, den = self.normalised()._form
        # a constant hashes as the Fraction it equals
        if den.deg == 0 and num.deg < 1:
            return hash(num.coeff(0))
        return hash(self._form)

    def __neg__(self):
        return self._new(self.terms, -self.scale, self.atoms)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        atoms = self._common_atoms(other)
        p, q = self.scale, other.scale
        den = math.lcm(p.denominator, q.denominator)
        i = p.numerator * (den // p.denominator)
        j = q.numerator * (den // q.denominator)
        g = math.gcd(i, j)
        i, j = i // g, j // g
        num = {e: i * c for e, c in self._lift(atoms).items()}
        for e, c in other._lift(atoms).items():
            c = j * c + num.pop(e, 0)
            if c:
                num[e] = c
        h = math.gcd(*num.values())
        if h > 1:
            num = {e: c // h for e, c in num.items()}
        return self._new(num, Fraction(g * h, den), atoms)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        atoms = dict(self.atoms)
        for atom, k in other.atoms.items():
            atoms[atom] = atoms.get(atom, 0) + k
        return self._new(_mul_terms(self.terms.items(), other.terms.items()),
                         self.scale * other.scale, atoms)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.terms:
            raise ZeroDivisionError("division by zero rational function")
        s = min(other.terms)
        sign = 1 if other.terms[s] > 0 else -1
        num = {e - s: c for e, c in self.terms.items()}
        for atom, k in other.atoms.items():
            for _ in range(k):
                num = _mul_terms(num.items(), atom)
        atoms = dict(self.atoms)
        if len(other.terms) > 1:
            atom = tuple(sorted((e - s, sign * c)
                                for e, c in other.terms.items()))
            atoms[atom] = atoms.get(atom, 0) + 1
        scale = self.scale / other.scale
        return self._new(num, scale if sign > 0 else -scale, atoms)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def as_monomial(self):
        """(coef, exp) if this is coef*x^exp, else None."""
        if self.num.is_zero():
            return None
        nsup = [i for i, c in enumerate(self.num.coeffs) if c]
        dsup = [i for i, c in enumerate(self.den.coeffs) if c]
        if len(nsup) != 1 or len(dsup) != 1:
            return None
        e = nsup[0] - dsup[0]
        return self.num.coeffs[nsup[0]] / self.den.coeffs[dsup[0]], e

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"


# ---------------------------------------------------------------------------
# normal form: an integer Laurent numerator over integer atoms, reduced in
# integer arithmetic.  Integer polynomials are lists, constant term
# first, with a nonzero last entry.

# 61-bit primes for the modular coprimality test
_PRIMES = (2**61 - 1, 2**61 - 31, 2**61 - 45)
_CYCLOTOMIC = {}


def _divisors(n: int) -> set:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return {*small, *(n // d for d in small)}


def _cyclotomic(d: int) -> tuple:
    """F_d = prod_{e | d} (1 - x^e)^mu(d/e) as its (e, mu) pairs, mu != 0.

    F_d is the cyclotomic polynomial Phi_d for d > 1 and 1 - x = -Phi_1
    for d = 1, so 1 - x^k = prod_{d | k} F_d with no unit, and every F_d
    is irreducible with constant term 1.  Cached per d."""
    f = _CYCLOTOMIC.get(d)
    if f is None:
        f, n, q = [(d, 1)], d, 2
        while q * q <= n:
            if n % q == 0:
                f += [(e // q, -mu) for e, mu in f]
                while n % q == 0:
                    n //= q
            q += 1
        if n > 1:
            f += [(e // n, -mu) for e, mu in f]
        f = _CYCLOTOMIC[d] = tuple(f)
    return f


def _one_minus_pow(e: int) -> list:
    return [1] + [0] * (e - 1) + [-1]


def _over_cyclotomic(p: list, d: int):
    """p / F_d if exact, else None, by 2^omega(d) binomial passes: the
    factors with mu = -1 multiply first, so each division by a factor
    with mu = 1 is exact exactly when F_d divides p."""
    f = _cyclotomic(d)
    for e, mu in f:
        if mu < 0:
            p = _times(p, _one_minus_pow(e))
    for e, mu in f:
        if mu > 0:
            p = _over(p, _one_minus_pow(e))
            if p is None:
                return None
    return p


def _times(p: list, a: list) -> list:
    out = [0] * (len(p) + len(a) - 1)
    for j, c in enumerate(a):
        if c:
            for i, b in enumerate(p):
                out[i + j] += b * c
    return out


def _over(p: list, a: list):
    """p / a over the integers if exact, else None.  a is primitive, so by
    Gauss's lemma a quotient over Q has integer coefficients."""
    da = len(a) - 1
    if len(p) <= da:
        return None
    r = list(p)
    lead = a[-1]
    terms = [(j, c) for j, c in enumerate(a[:-1]) if c]
    q = [0] * (len(p) - da)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + da]
        if c:
            f, rem = divmod(c, lead)
            if rem:
                return None
            q[k] = f
            for j, cj in terms:
                r[k + j] -= f * cj
    return None if any(r[:da]) else q


def _rem_mod(u: list, v: list, P: int) -> list:
    """u mod v over GF(P), trimmed."""
    dv = len(v) - 1
    u = list(u)
    if len(u) > dv:
        inv = pow(v[-1], -1, P)
        terms = [(j, c) for j, c in enumerate(v[:-1]) if c]
        for k in range(len(u) - 1 - dv, -1, -1):
            f = u[k + dv] * inv % P
            if f:
                for j, c in terms:
                    u[k + j] = (u[k + j] - f * c) % P
        del u[dv:]
    while u and not u[-1]:
        u.pop()
    return u


def _coprime_mod_p(p: list, a: list) -> bool:
    """True when gcd(p, a) = 1 over Q is proved modulo a prime P that
    divides neither leading coefficient: a common factor of positive
    degree keeps its degree mod P, so a constant gcd mod P rules it out
    (W. S. Brown, J. ACM 18 (1971)).  False means undecided."""
    P = next((P for P in _PRIMES if p[-1] % P and a[-1] % P), None)
    if P is None:
        return False
    u, v = [c % P for c in a], _rem_mod([c % P for c in p], a, P)
    while v:
        u, v = v, _rem_mod(u, v, P)
    return len(u) == 1


def _dense(terms, low: int) -> list:
    """sum c x^(e - low) over (e, c) pairs as a dense list."""
    out = [0] * (max(e for e, _ in terms) - low + 1)
    for e, c in terms:
        out[e - low] = c
    return out


def rf_from_atoms(num: dict, atoms: dict,
                  scale: Fraction) -> tuple[Poly, Poly]:
    """The normal form (num, den) of scale * num / prod atom^mult:
    coprime, den monic, Fraction coefficients; no Euclid unless a
    reducible atom shares a factor with the numerator.

    `num` maps exponents of any sign to nonzero ints.  Each atom is a
    primitive integer polynomial with positive constant term, written as
    its sorted (exp, int) pairs, mapped to its multiplicity; atoms are
    coprime to x, so the power of x needs no gcd, and integer, so no
    denominator needs clearing.  An atom 1 - x^k is the product of the
    irreducible F_d, d | k (see `_cyclotomic`), so exact division decides
    how often each cancels; F_d is skipped when its degree phi(d)
    exceeds the numerator's.  Any other atom is divided out while the
    division is exact; then `_coprime_mod_p` proves it coprime to the
    rest.  Only when that fails, which by Capelli's theorem needs a
    reducible atom such as 1 - 4x^2, does one Euclid `poly_gcd` take out
    the common factor.  The denominator is rebuilt from what did not
    cancel, and the pair is made monic directly, with no second gcd.
    """
    if not num:
        return Poly(), Poly([Fraction(1)])
    # the value is scale * N / (x^-low * prod atoms)
    low = min(num)
    N = _dense(num.items(), low)
    cyclo = {}
    others = []
    for atom, m in atoms.items():
        if len(atom) == 2 and atom[0][1] == 1 and atom[1][1] == -1:
            for d in _divisors(atom[1][0]):
                cyclo[d] = cyclo.get(d, 0) + m
        else:
            others.append((_dense(atom, 0), m))
    net = {}  # e -> exponent of (1 - x^e) in what is left of the F_d
    for d, m in cyclo.items():
        f = _cyclotomic(d)
        phi = sum(e * mu for e, mu in f)
        while (m and len(N) > phi
               and (q := _over_cyclotomic(N, d)) is not None):
            N, m = q, m - 1
        for e, mu in f if m else ():
            net[e] = net.get(e, 0) + mu * m
    den = [1]
    for a, m in others:
        while m and (q := _over(N, a)) is not None:
            N, m = q, m - 1
        rest = [1]
        for _ in range(m):
            rest = _times(rest, a)
        if m and not _coprime_mod_p(N, a):
            g = _primitive(poly_gcd(Poly.from_ints(N), Poly.from_ints(rest)))
            g = [int(c) for c in g.coeffs]
            N, rest = _over(N, g), _over(rest, g)
        den = _times(den, rest)
    # multiply before dividing, so that every division is exact
    for e, k in net.items():
        for _ in range(k):
            den = _times(den, _one_minus_pow(e))
    for e, k in net.items():
        for _ in range(-k):
            den = _over(den, _one_minus_pow(e))
    lead = den[-1]
    scale = Fraction(scale, lead)
    sn, sd = scale.numerator, scale.denominator
    return (Poly([_ZERO_F] * max(low, 0)
                 + [Fraction(c * sn, sd) if c else _ZERO_F for c in N]),
            Poly([_ZERO_F] * max(-low, 0)
                 + [Fraction(c, lead) if c else _ZERO_F for c in den]))


def series_from_rational(f: RationalFunction, n: int) -> TruncatedSeries:
    """First n+1 Taylor coefficients of f at 0; requires den(0) != 0."""
    d = f.den.coeffs
    if not d or not d[0]:
        raise PoleAtZero("denominator vanishes at 0")
    d0 = d[0]
    out = []
    for k in range(n + 1):
        acc = f.num.coeff(k)
        for j in range(1, min(k, f.den.deg) + 1):
            acc = acc - d[j] * out[k - j]
        out.append(acc / d0)
    return TruncatedSeries(n, tuple(out))

