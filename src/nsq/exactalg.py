"""Exact arithmetic kernel: dense univariate polynomials, normalized
rational functions and truncated power series.

Rational scalars are `fractions.Fraction`.  `Poly` is coefficient-generic:
it is used both over Fraction (polynomials in x) and over
`RationalFunction` (polynomials in a second variable whose coefficients
are rational functions in x) or `LazyRationalFunction`, the gcd-free
scalar the constant-term engine computes with.  All operations are pure
and every value is immutable after construction.  `TruncatedSeries` is
defined in `semigroup`, whose denumerant series needs no kernel, and is
re-exported here.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import DivisionByZeroPoly, PoleAtZero
from .semigroup import TruncatedSeries


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


def poly_mul(a: Poly, b: Poly) -> Poly:
    return a * b


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


class RationalFunction:
    """Quotient of two Fraction-coefficient polynomials, eagerly reduced.

    Normal form: gcd(num, den) = 1 and den monic, so equality is
    field-wise comparison.  Laurent monomials x^-k are represented with
    x^k in the denominator.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = Poly([Fraction(num)])
        if den is None:
            den = Poly([Fraction(1)])
        elif isinstance(den, (int, Fraction)):
            den = Poly([Fraction(den)])
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self.num = Poly()
            self.den = Poly([Fraction(1)])
            return
        g = poly_gcd(num, den)
        if g.deg > 0:
            num = poly_divmod(num, g)[0]
            den = poly_divmod(den, g)[0]
        lc = den.lead
        self.num = num.scale(1 / lc)
        self.den = den.scale(1 / lc)

    @classmethod
    def monomial(cls, coef, exp):
        """coef * x^exp with exp allowed negative."""
        coef = Fraction(coef)
        if exp >= 0:
            return cls(Poly.monomial(coef, exp))
        return cls(Poly([coef]), Poly.monomial(Fraction(1), -exp))

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    @staticmethod
    def _coerce(v):
        if isinstance(v, RationalFunction):
            return v
        if isinstance(v, (int, Fraction)):
            return RationalFunction(v)
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

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
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

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


def _mul_terms(a, b) -> dict:
    """Product of two sparse Laurent polynomials given as (exp, coef)
    pairs, as {exp: coef} without zero coefficients."""
    out = {}
    for i, c in a:
        for j, d in b:
            out[i + j] = out.get(i + j, 0) + c * d
    return {e: c for e, c in out.items() if c}


class LazyRationalFunction:
    """A rational function in x kept as a Laurent-polynomial numerator
    over a multiset of denominator atoms, with no gcd taken.

    `num` maps exponents to nonzero Fractions.  `atoms` maps each atom, a
    polynomial with constant term 1 written as its sorted (exp, coef)
    pairs, to its multiplicity.  A product adds the multisets; a sum
    lifts both sides to the per-atom maximum; a quotient adds the
    divisor's numerator, less its monomial factor, as one more atom.  A
    value is zero exactly when its numerator is empty, and `to_rf`
    normalises it with the one gcd of its life.  This is the scalar of
    G. Xin, A fast algorithm for MacMahon's partition analysis, Electron.
    J. Combin. 11 (2004) R58.  Instances are immutable.
    """

    __slots__ = ("num", "atoms")

    def __init__(self, num: dict, atoms: dict | None = None):
        self.num = num
        self.atoms = atoms if num and atoms else {}

    @classmethod
    def monomial(cls, coef, exp):
        return cls({exp: Fraction(coef)})

    @classmethod
    def from_rf(cls, f: RationalFunction) -> "LazyRationalFunction":
        num, den = ({i: c for i, c in enumerate(p.coeffs) if c}
                    for p in (f.num, f.den))
        return cls(num) / cls(den)

    @staticmethod
    def _coerce(v):
        if isinstance(v, LazyRationalFunction):
            return v
        if isinstance(v, (int, Fraction)):
            return LazyRationalFunction({0: Fraction(v)} if v else {})
        return NotImplemented

    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def _lift(self, atoms: dict) -> dict:
        """The numerator over `atoms`, a multiset containing self.atoms."""
        num = self.num
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
        atoms = self._common_atoms(other)
        return self._lift(atoms) == other._lift(atoms)

    def __neg__(self):
        return LazyRationalFunction({e: -c for e, c in self.num.items()},
                                    self.atoms)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return other
        atoms = self._common_atoms(other)
        num = dict(self._lift(atoms))
        for e, c in other._lift(atoms).items():
            c += num.pop(e, 0)
            if c:
                num[e] = c
        return LazyRationalFunction(num, atoms)

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
        return LazyRationalFunction(
            _mul_terms(self.num.items(), other.num.items()), atoms)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero rational function")
        s = min(other.num)
        lead = other.num[s]
        num = _mul_terms(self.num.items(), ((-s, 1 / lead),))
        for atom, k in other.atoms.items():
            for _ in range(k):
                num = _mul_terms(num.items(), atom)
        atoms = dict(self.atoms)
        if len(other.num) > 1:
            atom = tuple(sorted((e - s, c / lead)
                                for e, c in other.num.items()))
            atoms[atom] = atoms.get(atom, 0) + 1
        return LazyRationalFunction(num, atoms)

    def to_rf(self) -> RationalFunction:
        """The normalised value: one RationalFunction construction."""
        if not self.num:
            return RationalFunction(0)
        den = {0: Fraction(1)}
        for atom, k in self.atoms.items():
            for _ in range(k):
                den = _mul_terms(den.items(), atom)
        shift = max(0, -min(self.num))
        return RationalFunction(_dense(self.num, shift), _dense(den, shift))

    def __repr__(self):
        return f"LazyRationalFunction({self.num!r}, {self.atoms!r})"


def _dense(terms: dict, shift: int) -> Poly:
    """x^shift times the Laurent polynomial {exp: coef}, as a Poly."""
    coeffs = [Fraction(0)] * (shift + max(terms) + 1)
    for e, c in terms.items():
        coeffs[e + shift] = c
    return Poly(coeffs)


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


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated to the smaller order."""
    n = min(a.order, b.order)
    out = []
    for k in range(n + 1):
        acc = 0
        for j in range(k + 1):
            acc = acc + a.coeffs[j] * b.coeffs[k - j]
        out.append(acc)
    return TruncatedSeries(n, tuple(out))
