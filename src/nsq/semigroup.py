"""Classical numerical-semigroup computations: membership sieves,
Frobenius numbers, gaps, Apery sets, minimal generators and the
Sylvester denumerant.  This layer is the brute-force oracle for
everything built on top of it.

The core is one certified `MembershipTable` per query: `build_membership`
sieves <A> once, and the Frobenius number, gaps and Apery sets are read
off that table.  The minimal generators, of <A> here and of <A>/p in
`quotient`, come from one walk over an Apery set, `_minimal_generators`,
and `semigroup_equal` checks generators, so neither scans the members
one by one.
"""
from __future__ import annotations

import math
from collections import namedtuple

from .errors import CapExceeded, GcdNotOne, NotAMember

DEFAULT_SIEVE_CAP = 10**8


class GeneratorList(namedtuple("GeneratorList", "seq gens g")):
    """Validated generator tuple.

    `seq` keeps the input order (duplicates included, as they matter for
    denumerants); `gens` is the strictly increasing deduplicated view
    used for semigroup computations; `g` is the gcd of all entries.
    """

    __slots__ = ()

    @classmethod
    def of(cls, *values: int) -> "GeneratorList":
        return cls.from_iter(values)

    @classmethod
    def from_iter(cls, values) -> "GeneratorList":
        seq = tuple(int(v) for v in values)
        if not seq:
            raise ValueError("generator list must be nonempty")
        if any(v < 1 for v in seq):
            raise ValueError("generators must be positive integers")
        return cls(seq, tuple(sorted(set(seq))), math.gcd(*seq))

    @classmethod
    def parse(cls, text: str) -> "GeneratorList":
        try:
            return cls.from_iter(int(t) for t in text.split(","))
        except ValueError as exc:
            raise ValueError(f"cannot parse generator list {text!r}") from exc

    def residues(self, p: int) -> list[tuple[int, int, int]]:
        """(a, k, t) with a = p*k + t, 0 <= t < p, over the sorted view."""
        return [(a, a // p, a % p) for a in self.gens]

    def __str__(self):
        return ",".join(str(a) for a in self.seq)


class MembershipTable(namedtuple("MembershipTable",
                                  "gens bound bits certified run_end")):
    """Representability flags for 0..bound.

    `certified` means `member(n)` is exact for every n, past `bound` too:
    every integer above `run_end` <= bound is a member.  A sieved table
    is certified by a run of min(gens) consecutive members ending at
    `run_end`.  `gens` are the generators whose sieve the flags come from
    (for a quotient table, those of <A>).
    """

    __slots__ = ()

    def member(self, n: int) -> bool:
        if n < 0:
            return False
        if n <= self.bound:
            return bool(self.bits[n])
        if self.certified:
            return True
        raise ValueError(f"membership at {n} exceeds uncertified bound {self.bound}")

    def members(self) -> list[int]:
        return [n for n in range(self.bound + 1) if self.bits[n]]

    def non_members(self) -> list[int]:
        return [n for n in range(self.bound + 1) if not self.bits[n]]


def _sieve_bits(gens: tuple[int, ...], bound: int) -> bytes:
    bits = bytearray(bound + 1)
    bits[0] = 1
    for a in gens:
        if a <= bound:
            for n in range(a, bound + 1):
                if bits[n - a]:
                    bits[n] = 1
    return bytes(bits)


def _check_cap(cells: int, cap: int):
    """Charge a table of `cells` cells, sieved or read off, against cap."""
    if cells > cap:
        raise CapExceeded(f"sieve of {cells} cells exceeds cap {cap}")


def build_membership(A: GeneratorList, B: int | None = None,
                     cap: int = DEFAULT_SIEVE_CAP) -> MembershipTable:
    """Sieve representability flags for 0..B.  Without B the table is
    certified: by Schur's bound F(A) <= (min A - 1)(max A - 1) - 1, a run
    of min(A) members ends by max(A)^2 + min(A), the bound used."""
    gens = A.gens
    if B is None:
        if A.g != 1:
            raise GcdNotOne("auto-extension requires gcd(A) = 1")
        B = max(gens) ** 2 + min(gens)
    elif B < 0:
        raise ValueError(f"bound must be non-negative, got {B}")
    _check_cap(B + 1, cap)
    bits = _sieve_bits(gens, B)
    run = min(gens)
    start = bits.find(b"\x01" * run)
    run_end = start + run - 1 if start >= 0 else None
    return MembershipTable(gens, B, bits, run_end is not None, run_end)


def _last_gap(t: MembershipTable) -> int | None:
    """Largest non-member of a certified table, or None when it is N."""
    n = t.bits.rfind(0, 0, t.run_end + 1)
    return n if n > 0 else None


def _apery_of(t: MembershipTable, m: int) -> list[int]:
    """Ap(S, m), the least member of each class mod m, for the semigroup
    S with certified table t and a member m: every class holds a member
    by F + m + 1, so each is one scan of the padded flags."""
    top = (_last_gap(t) or 0) + m + 1
    bits = t.bits[:top + 1].ljust(top + 1, b"\x01")
    return [r + m * bits[r::m].find(1) for r in range(m)]


def _minimal_generators(m: int, w: list[int]) -> list[int]:
    """The unique minimal generating set of the semigroup S with Apery set
    w = Ap(S, m) at a member m > 0.  A minimal generator other than m is
    in w, as x - m is in S for any other member x; and a member x is
    minimal iff x - g is in S for no smaller minimal g.  So walk m and
    w[1:] upward, keeping x when x - g < w[(x - g) % m] for each g kept."""
    out = []
    for x in sorted(w[1:] + [m]):
        if all(x - g < w[(x - g) % m] for g in out):
            out.append(x)
    return out


def frobenius(A: GeneratorList, cap: int = DEFAULT_SIEVE_CAP) -> int | None:
    """Largest non-representable integer, or None when the semigroup is N."""
    if A.g != 1:
        raise GcdNotOne("Frobenius number requires gcd(A) = 1")
    return _last_gap(build_membership(A, cap=cap))


def gaps(A: GeneratorList, cap: int = DEFAULT_SIEVE_CAP) -> list[int]:
    if A.g != 1:
        raise GcdNotOne("gaps require gcd(A) = 1")
    return build_membership(A, cap=cap).non_members()


def apery(A: GeneratorList, m: int, cap: int = DEFAULT_SIEVE_CAP) -> list[int]:
    """Least member in each residue class mod m; m must be a member."""
    if A.g != 1:
        raise GcdNotOne("Apery sets require gcd(A) = 1")
    if m < 1:
        raise NotAMember("Apery modulus must be a positive member")
    table = build_membership(A, cap=cap)
    # the classes are read up to F + m + 1; reading that far is charged
    _check_cap((_last_gap(table) or 0) + m + 2, cap)
    if not table.member(m):
        raise NotAMember(f"{m} is not in the semigroup")
    return _apery_of(table, m)


def minimal_generators(A: GeneratorList, cap: int = DEFAULT_SIEVE_CAP) -> list[int]:
    """The unique minimal generating set: (S \\ {0}) minus sums of two
    nonzero members."""
    if A.g != 1:
        raise GcdNotOne("minimal generators require gcd(A) = 1")
    m = A.gens[0]
    return _minimal_generators(m, _apery_of(build_membership(A, cap=cap), m))


def semigroup_equal(A: GeneratorList, B: GeneratorList,
                    cap: int = DEFAULT_SIEVE_CAP) -> bool:
    """Decide <A> = <B> from their certified tables: each holds the
    other's generators."""
    ta = build_membership(A, cap=cap)
    tb = build_membership(B, cap=cap)
    return (all(tb.member(a) for a in A.gens)
            and all(ta.member(b) for b in B.gens))


class TruncatedSeries(namedtuple("TruncatedSeries", "order coeffs")):
    """Coefficients c_0..c_N of a formal power series, exact.  It lives
    here, not in `exactalg`, so that a denumerant series loads no
    rational-function kernel."""

    __slots__ = ()

    def __new__(cls, order, coeffs):
        if len(coeffs) != order + 1:
            raise ValueError("coefficient list must have length order + 1")
        return tuple.__new__(cls, (order, coeffs))

    def coeff(self, n):
        return self.coeffs[n]


def denumerant(a0: int, A: GeneratorList,
               cap: int = DEFAULT_SIEVE_CAP) -> int:
    """Number of N-solutions of sum x_i a_i = a0, over the input sequence
    (repeated generators count as distinct parts)."""
    if a0 < 0:
        return 0
    return denumerant_series(A, a0, cap=cap).coeffs[a0]


def denumerant_series(A: GeneratorList, N: int,
                      cap: int = DEFAULT_SIEVE_CAP) -> TruncatedSeries:
    """d(0..N; A) by the unbounded-knapsack prefix recurrence."""
    if N < 0:
        raise ValueError(f"truncation must be non-negative, got {N}")
    if N + 1 > cap:
        raise CapExceeded(f"series of {N + 1} cells exceeds cap {cap}")
    dp = [0] * (N + 1)
    dp[0] = 1
    for a in A.seq:
        for n in range(a, N + 1):
            dp[n] += dp[n - a]
    return TruncatedSeries(N, tuple(dp))
