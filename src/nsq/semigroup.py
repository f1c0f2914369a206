"""Classical numerical-semigroup computations: membership sieves,
Frobenius numbers, gaps, Apery sets, minimal generators and the
Sylvester denumerant.  This layer is the brute-force oracle for
everything built on top of it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CapExceeded, GcdNotOne, NotAMember

DEFAULT_SIEVE_CAP = 10**8


@dataclass(frozen=True)
class GeneratorList:
    """Validated generator tuple.

    `seq` keeps the input order (duplicates included, as they matter for
    denumerants); `gens` is the strictly increasing deduplicated view
    used for semigroup computations; `g` is the gcd of all entries.
    """

    seq: tuple[int, ...]
    gens: tuple[int, ...]
    g: int

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


@dataclass(frozen=True)
class MembershipTable:
    """Representability flags for 0..bound.

    `certified` means the flags contain a run of min(gens) consecutive
    members ending at `run_end` <= bound, which proves every integer
    above `run_end` is a member.
    """

    gens: tuple[int, ...]
    bound: int
    bits: bytes
    certified: bool
    run_end: int | None

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


def _find_run_end(bits: bytes, run: int) -> int | None:
    streak = 0
    for n, b in enumerate(bits):
        streak = streak + 1 if b else 0
        if streak >= run:
            return n
    return None


def table_from_bits(gens, bits: bytes) -> MembershipTable:
    run = min(gens)
    end = _find_run_end(bits, run)
    return MembershipTable(tuple(gens), len(bits) - 1, bits,
                           end is not None, end)


def build_membership(A: GeneratorList, B: int | None = None,
                     cap: int = DEFAULT_SIEVE_CAP) -> MembershipTable:
    """Sieve representability flags; without B, extend until certified."""
    gens = A.gens
    if B is not None:
        if B + 1 > cap:
            raise CapExceeded(f"sieve of {B + 1} cells exceeds cap {cap}")
        return table_from_bits(gens, _sieve_bits(gens, B))
    if A.g != 1:
        raise GcdNotOne("auto-extension requires gcd(A) = 1")
    bound = max(gens) ** 2 + min(gens)
    while True:
        if bound + 1 > cap:
            raise CapExceeded(f"sieve of {bound + 1} cells exceeds cap {cap}")
        table = table_from_bits(gens, _sieve_bits(gens, bound))
        if table.certified:
            return table
        bound *= 2


def frobenius(A: GeneratorList, cap: int = DEFAULT_SIEVE_CAP) -> int | None:
    """Largest non-representable integer, or None when the semigroup is N."""
    if A.g != 1:
        raise GcdNotOne("Frobenius number requires gcd(A) = 1")
    table = build_membership(A, cap=cap)
    last_gap = None
    for n in range(table.bound, 0, -1):
        if not table.bits[n]:
            last_gap = n
            break
    return last_gap


def gaps(A: GeneratorList, cap: int = DEFAULT_SIEVE_CAP) -> list[int]:
    if A.g != 1:
        raise GcdNotOne("gaps require gcd(A) = 1")
    table = build_membership(A, cap=cap)
    return table.non_members()


def apery(A: GeneratorList, m: int, cap: int = DEFAULT_SIEVE_CAP) -> list[int]:
    """Least member in each residue class mod m; m must be a member."""
    if A.g != 1:
        raise GcdNotOne("Apery sets require gcd(A) = 1")
    if m < 1:
        raise NotAMember("Apery modulus must be a positive member")
    f = frobenius(A, cap=cap)
    bound = (f if f is not None else 0) + m + 1
    table = build_membership(A, B=max(bound, m), cap=cap)
    if not table.member(m):
        raise NotAMember(f"{m} is not in the semigroup")
    out: list[int | None] = [None] * m
    found = 0
    for n in range(table.bound + 1):
        r = n % m
        if out[r] is None and table.bits[n]:
            out[r] = n
            found += 1
            if found == m:
                break
    return [v for v in out]  # all residues hit below F + m + 1


def minimal_generators(A: GeneratorList, cap: int = DEFAULT_SIEVE_CAP) -> list[int]:
    """The unique minimal generating set: (S \\ {0}) minus sums of two
    nonzero members."""
    if A.g != 1:
        raise GcdNotOne("minimal generators require gcd(A) = 1")
    f = frobenius(A, cap=cap)
    if f is None:
        return [1]
    m = min(A.gens)
    bound = f + m
    table = build_membership(A, B=bound, cap=cap)
    members = [n for n in range(1, bound + 1) if table.bits[n]]
    member_set = set(members)
    out = []
    for c in members:
        if not any(s in member_set and (c - s) in member_set
                   for s in range(1, c // 2 + 1)):
            out.append(c)
    return out


def semigroup_equal(A: GeneratorList, B: GeneratorList,
                    cap: int = DEFAULT_SIEVE_CAP) -> bool:
    """Decide <A> = <B> by comparing membership on a sufficient range."""
    fa = frobenius(A, cap=cap)
    fb = frobenius(B, cap=cap)
    bound = max(fa or 0, fb or 0) + max(max(A.gens), max(B.gens)) + 1
    ta = build_membership(A, B=bound, cap=cap)
    tb = build_membership(B, B=bound, cap=cap)
    return ta.bits == tb.bits


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
    # loaded here so that the sieve commands never load exactalg
    from .exactalg import TruncatedSeries

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
