"""The four seeded workloads.

Each workload yields ops in shuffled blocks, and every block holds one op
of each cell (op kind, k, p).  Instance sizes are quantiles u of the
stated size distribution, taken per cell from a golden-ratio sequence
that is the same for every seed, so the first n ops of a cell cover
[0, 1) almost evenly for every n.  ct-exact picks each instance among
lists of like measured cost (ct_costs.json), and cli-mix rotates its
command variants.  Runs stop only between blocks.  Any run therefore
sees nearly the same mix of kinds and sizes whatever the seed; only the
instances change with it.
The generators are spelled out in manifest.json.

Every workload has the same three parts: `blocks(rng)` makes the inputs,
`call(op)` hands one op to nsq, `check(op, value)` compares the answer
with an oracle from `oracles`; `value` is the exception when the op
raised.  `check` returns OK, FAILED (the op raised, was refused, or the CLI
left a traceback or an undocumented exit code) or WRONG (the program gave
an answer and the answer is wrong).
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import nsq
from nsq import cli
from nsq.errors import NonCoprimeFactors

import oracles

OK, FAILED, WRONG = "ok", "failed", "wrong"


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple
    expect: tuple = (0,)  # CLI exit codes that count as success


def log_uniform(lo: int, hi: int, u: float) -> int:
    return round(lo * (hi / lo) ** u)


class Quantiles:
    """Per-cell golden-ratio sequences of size quantiles in [0, 1).

    The sequences do not depend on the seed: the i-th cell drawn from
    starts at frac((i + 1) * 0.618...), so the first n quantiles of a cell
    are the same in every run and the seed only picks the instances of
    those sizes."""

    STEP = (math.sqrt(5) - 1) / 2

    def __init__(self):
        self.last: dict = {}

    def next(self, cell) -> float:
        before = self.last.get(cell, len(self.last) * self.STEP)
        self.last[cell] = (before + self.STEP) % 1.0
        return self.last[cell]


class Rotation:
    """Per-cell cycles through a fixed tuple of choices from a seeded
    start: any n draws of a cell hold each choice n/len times, give or
    take one."""

    def __init__(self, rng):
        self.rng = rng
        self.at: dict = {}

    def pick(self, cell, choices: tuple):
        i = self.at.get(cell)
        if i is None:
            i = self.rng.randrange(len(choices))
        self.at[cell] = i + 1
        return choices[i % len(choices)]


def spread_gens(rng, m: int, k: int) -> tuple[int, ...]:
    """m and k-1 distinct larger generators below 2m+k, with gcd 1."""
    while True:
        g = (m, *rng.sample(range(m + 1, 2 * m + k), k - 1))
        if math.gcd(*g) == 1:
            return tuple(sorted(g))


def small_gens(rng, k: int, top: int) -> tuple[int, ...]:
    """k distinct generators in [2, top] with gcd 1."""
    while True:
        g = tuple(sorted(rng.sample(range(2, top + 1), k)))
        if math.gcd(*g) == 1:
            return g


def elliott_expression(rng) -> tuple:
    """(coef, xexp, lexp, factors) of x^e0 L^l0 / prod of three factors
    (1 - c x^e L^b) with every e >= 1 and e_i b_j != e_j b_i, which keeps
    the factors coprime.  |b| <= 2 keeps the op near the gens ops' cost."""
    while True:
        factors = [(rng.choice((1, 2)), rng.randint(1, 3),
                    rng.choice((-2, -1, 1, 2)))
                   for _ in range(3)]
        if all(e1 * b2 != e2 * b1
               for i, (_, e1, b1) in enumerate(factors)
               for (_, e2, b2) in factors[i + 1:]):
            return 1, rng.randint(0, 2), rng.randint(-3, 3), tuple(factors)


def reduced_lcm(gens, p: int) -> int:
    q = math.lcm(*gens)
    return q // math.gcd(q, p)


# Oracle objects for the last few instances.  Rungs recur in every block;
# other instances are checked once, so the cache stays small and the
# oracles add little to the peak RSS read after the loop.
@functools.lru_cache(maxsize=8)
def semigroup(gens) -> oracles.Semigroup:
    return oracles.Semigroup(gens)


@functools.lru_cache(maxsize=8)
def quotient(gens, p: int) -> oracles.Quotient:
    return oracles.Quotient(semigroup(gens), p)


@functools.lru_cache(maxsize=8)
def closed_form(gens, p: int):
    return oracles.rgf_closed_form(gens, p)


def _ratfun_lists(f) -> tuple[list, list]:
    return list(f.num.coeffs), list(f.den.coeffs)


# ---------------------------------------------------------------------------


class SemigroupLadder:
    """Sieve-bound semigroup and quotient queries over sizes from tiny to
    large; exactalg, rgf and ctengine stay idle."""

    name = "semigroup-ladder"
    KINDS = ("frobenius", "apery", "minimal_generators", "frobenius_quotient",
             "minimal_quotient_generators", "generators_thm",
             "verify_generators")
    COMBOS = [(k, p) for k in (2, 3, 4) for p in (2, 3, 5)]
    M_RANGE = (3, 500)
    # minimal-generator searches cost about F(A) * m steps, so their least
    # generator is drawn from a narrower range to keep single ops short
    M_RANGE_MINIMAL = (3, 250)
    # ROADMAP ladder rungs, one of each per block.  10007,10009,10037 needs
    # a sieve past the default cap, so nsq refuses it and the op fails.
    RUNGS = ((1001, 1003, 1007), (10007, 10009, 10037))

    @staticmethod
    def draw(rng, m: int, k: int, v: float) -> tuple[int, ...]:
        """m, a largest generator at quantile v of [m + k - 1, 2m + k - 1],
        which sets the sieve size (largest^2 + m cells), and k - 2 seeded
        generators between them, with gcd 1."""
        top = m + k - 1 + int(v * (m + 1))
        while True:
            for _ in range(20):
                g = (m, *sorted(rng.sample(range(m + 1, top), k - 2)), top)
                if math.gcd(*g) == 1:
                    return g
            top += 1

    def blocks(self, rng):
        sizes = Quantiles()
        while True:
            ops = []
            for kind in self.KINDS:
                lo, hi = (self.M_RANGE_MINIMAL if kind.startswith("minimal")
                          else self.M_RANGE)
                for k, p in self.COMBOS:
                    m = log_uniform(lo, hi, sizes.next((kind, k, p)))
                    v = sizes.next((kind, k, p, "largest"))
                    ops.append(Op(kind, (self.draw(rng, m, k, v), p)))
            ops += [Op("frobenius", (g, 0)) for g in self.RUNGS]
            rng.shuffle(ops)
            yield ops

    def call(self, op: Op):
        gens, p = op.args
        A = nsq.GeneratorList.from_iter(gens)
        if op.kind == "frobenius":
            return nsq.frobenius(A)
        if op.kind == "apery":
            return nsq.apery(A, min(gens))
        if op.kind == "minimal_generators":
            return nsq.minimal_generators(A)
        q = nsq.QuotientSpec(A, p)
        return getattr(nsq, op.kind)(q)

    def check(self, op: Op, value) -> str:
        if isinstance(value, Exception):
            return FAILED
        gens, p = op.args
        S = semigroup(gens)
        if op.kind == "frobenius":
            expect = (oracles.sylvester(*gens) if len(gens) == 2
                      else S.frobenius())
            ok = value == expect
        elif op.kind == "apery":
            ok = list(value) == S.ap
        elif op.kind == "minimal_generators":
            ok = list(value) == S.minimal_generators()
        else:
            Q = quotient(gens, p)
            if op.kind == "frobenius_quotient":
                ok = value == Q.f
            elif op.kind == "minimal_quotient_generators":
                ok = list(value) == Q.minimal_generators()
            elif op.kind == "generators_thm":
                ok = Q.generated_by(value)
            else:
                ok = (value.ok and value.quotient_frobenius == Q.f
                      and Q.generated_by(value.generators))
        return OK if ok else WRONG


class RgfClosedForm:
    """Series multisection and the certified closed form; work sits in rgf
    and semigroup.denumerant_series."""

    name = "rgf-closed-form"
    KINDS = ("rgf_rational", "frobenius_from_rgf", "gens_from_rgf",
             "rgf_series")
    COMBOS = [(k, p) for k in (2, 3, 4) for p in (2, 3, 5, 7)]
    TOP = 60
    # the series route runs the denumerant DP to p * lcm-sized horizons;
    # p * k * (p-reduced lcm) bounds that work per op
    WORK_MAX = 1_000_000
    CANDIDATES = 16
    SERIES_TERMS = 2000

    def draw(self, rng, k: int, p: int, u: float) -> tuple[int, ...]:
        """The instance at work quantile u among CANDIDATES uniform draws
        of k generators in [2, TOP] whose work fits WORK_MAX."""
        pool = []
        while len(pool) < self.CANDIDATES:
            g = small_gens(rng, k, self.TOP)
            work = p * k * reduced_lcm(g, p)
            if work <= self.WORK_MAX:
                pool.append((work, g))
        pool.sort()
        return pool[int(u * self.CANDIDATES)][1]

    def blocks(self, rng):
        sizes = Quantiles()
        while True:
            ops = []
            for kind in self.KINDS:
                for k, p in self.COMBOS:
                    u = sizes.next((kind, k, p))
                    ops.append(Op(kind, (self.draw(rng, k, p, u), p)))
            rng.shuffle(ops)
            yield ops

    def call(self, op: Op):
        gens, p = op.args
        A = nsq.GeneratorList.from_iter(gens)
        if op.kind == "rgf_rational":
            return nsq.rgf_rational(A, p)
        if op.kind == "frobenius_from_rgf":
            return nsq.frobenius_from_rgf(A, p)
        if op.kind == "gens_from_rgf":
            return nsq.gens_from_rgf(nsq.rgf_rational(A, p), A, p)
        return nsq.rgf_series(A, p, self.SERIES_TERMS)

    def check(self, op: Op, value) -> str:
        if isinstance(value, Exception):
            return FAILED
        gens, p = op.args
        num, den = closed_form(gens, p)
        if op.kind == "rgf_rational":
            ok = oracles.same_rational(list(value.numerator),
                                       oracles.den_poly(value.denom_factors),
                                       num, oracles.den_poly(den))
        elif op.kind == "frobenius_from_rgf":
            ok = value == quotient(gens, p).f
        elif op.kind == "gens_from_rgf":
            ok = quotient(gens, p).generated_by(value)
        else:
            ok = list(value.coeffs) == oracles.expand(num, den,
                                                      self.SERIES_TERMS)
        return OK if ok else WRONG


class CtExact:
    """Constant-term route: ctengine residues over exactalg rational
    functions; the semigroup layer stays idle."""

    name = "ct-exact"
    # generator bound per (k, p): the CT cost rises steeply with the number
    # of L-dependent factors, so the bound shrinks with k and p until most
    # cells cost alike and the latency distribution has no gap at its median
    TOP = {(2, 2): 25, (2, 3): 16, (3, 2): 11, (3, 3): 9, (4, 2): 8, (4, 3): 8}
    # every gcd-1 list of each cell, and a fixed pool of expressions,
    # ranked by measured cost (rank_ct.py)
    COSTS = Path(__file__).with_name("ct_costs.json")
    BAND = 0.1  # an op's instance costs within 10% of its quantile's cost
    EXPRS_PER_BLOCK = 4
    CT_DEGREE = 24

    def ranked(self) -> tuple[dict, list]:
        """Per cell (k, p), [(ms, gens)]; and [(ms, expression)]."""
        table = json.loads(self.COSTS.read_text())
        cells = {(k, p): [(ms, tuple(g)) for ms, g in table[f"{k},{p}"]]
                 for k, p in self.TOP}
        exprs = [(ms, (coef, xexp, lexp, tuple(map(tuple, factors))))
                 for ms, (coef, xexp, lexp, factors) in table["expr"]]
        return cells, exprs

    def draw(self, rng, pool, u: float) -> tuple[int, ...]:
        """A seeded pick among the instances whose cost is within BAND of
        the cost at quantile u of the pool's ranking."""
        at = pool[int(u * len(pool))][0]
        return rng.choice([g for ms, g in pool if abs(ms - at) <= self.BAND * at])

    def blocks(self, rng):
        cells, exprs = self.ranked()
        sizes = Quantiles()
        while True:
            ops = []
            for (k, p), pool in cells.items():
                for slot in range(2):
                    u = sizes.next((k, p, slot))
                    ops.append(Op("ct_rgf_rational",
                                  (self.draw(rng, pool, u), p)))
            ops += [Op("ct_constant_term",
                       self.draw(rng, exprs, sizes.next(("expr", slot))))
                    for slot in range(self.EXPRS_PER_BLOCK)]
            rng.shuffle(ops)
            yield ops

    def call(self, op: Op):
        if op.kind == "ct_constant_term":
            return nsq.ct_constant_term(
                nsq.parse_elliott(oracles.render_elliott(*op.args)))
        gens, p = op.args
        A = nsq.GeneratorList.from_iter(gens)
        try:
            return nsq.ct_rgf_rational(A, p)
        except NonCoprimeFactors:  # what `nsq ct` does
            return nsq.rgf_rational(A, p)

    def check(self, op: Op, value) -> str:
        if isinstance(value, Exception):
            return FAILED
        if op.kind == "ct_constant_term":
            num, den = _ratfun_lists(value)
            if not den or not den[0]:
                return WRONG
            got = oracles.rational_series(num, den, self.CT_DEGREE)
            want = oracles.brute_constant_term(*op.args, self.CT_DEGREE)
            return OK if got == want else WRONG
        gens, p = op.args
        fnum, fden = closed_form(gens, p)
        if isinstance(value, nsq.RGFRational):
            num, den = list(value.numerator), oracles.den_poly(value.denom_factors)
        else:
            num, den = _ratfun_lists(value)
        ok = oracles.same_rational(num, den, fnum, oracles.den_poly(fden))
        return OK if ok else WRONG


class CliMix:
    """`python -m nsq.cli` one command at a time: interpreter start,
    imports, argparse and formatting dominate."""

    name = "cli-mix"
    SUBCOMMANDS = ("membership", "frobenius", "gaps", "minimal-gens", "apery",
                   "denumerant", "quotient", "tp", "rgf", "ct", "verify")
    SIZES = {"tiny": (3, 9), "medium": (10, 40)}
    RGF_WORK_MAX = 100_000
    # inputs whose exit code is documented: 2 gcd != 1, 3 cap, 1 usage
    DOCUMENTED = (
        (("frobenius", "--gens", "4,6"), (2,)),
        (("gaps", "--gens", "6,9,15"), (2,)),
        (("quotient", "minimal", "--gens", "4,10", "--p", "3"), (2,)),
        (("frobenius", "--gens", "31,37", "--sieve-cap", "100"), (3,)),
        (("minimal-gens", "--gens", "17,19,23", "--sieve-cap", "50"), (3,)),
        (("tp", "--gens", "5,7,11,13", "--p", "5", "--tp-cap", "10"), (3,)),
        (("frobenius", "--gens", "3,x"), (1,)),
        (("quotient", "gens", "--gens", "3,5"), (1,)),
        (("rgf", "rational", "--gens", "3,5", "--p", "two"), (1,)),
    )
    # known defects (ROADMAP item 5): each ends in a traceback today and
    # counts as a failed op until it exits with a documented code
    DEFECTS = (
        (("membership", "--gens", "3,5", "--bound", "-1"), (1, 2)),
        (("denumerant", "--gens", "3,5", "--trunc", "-1"), (1, 2)),
        (("ct", "--expr", "1/((1-1))"), (1, 2)),
    )

    def __init__(self, root, env, in_process: bool = False):
        self.root, self.env, self.in_process = root, env, in_process

    def gens(self, rng, size: str, k: int) -> tuple[int, ...]:
        lo, hi = self.SIZES[size]
        return spread_gens(rng, rng.randint(lo, hi), k)

    def command(self, rng, turn, sub: str, size: str) -> list[str]:
        """One command; `turn` rotates every choice that changes its cost
        (variant, action, k, p), so each block mix differs little."""
        p = turn.pick((sub, size, "p"), (2, 3))
        k = turn.pick((sub, size, "k"), (2, 3))
        if sub in ("rgf", "ct"):
            return self.series_command(rng, turn, sub, size, k, p)
        if sub == "quotient":
            action = turn.pick((sub, size), ("gens", "minimal", "membership",
                                             "frobenius", "table1"))
            G = self.gens(rng, size, 3 if action == "table1" else k)
            argv = ["quotient", action, "--gens", _csv(G), "--p", str(p)]
            if action == "membership":
                argv += ["--bound", str(rng.randint(10, 60))]
            return argv
        G = self.gens(rng, size, k)
        argv = [sub, "--gens", _csv(G)]
        if sub == "membership" and turn.pick((sub, size), (False, True)):
            argv += ["--bound", str(rng.randint(10, 80))]
        elif sub == "apery":
            argv += ["--m", str(G[0])]
        elif sub == "denumerant":
            argv += (["--n", str(rng.randint(0, 200))]
                     if turn.pick((sub, size), (False, True))
                     else ["--trunc", str(rng.randint(5, 60))])
        elif sub in ("tp", "verify"):
            argv += ["--p", str(p)]
        return argv

    def series_command(self, rng, turn, sub: str, size: str, k: int,
                       p: int) -> list[str]:
        if sub == "ct":
            variant = turn.pick((sub, size),
                                ("gens", "verify", "expr", "fallback"))
            if variant == "fallback":
                return ["ct", "--gens", "4,8,11", "--p", "3"]
            if variant == "expr":
                expr = oracles.render_elliott(*elliott_expression(rng))
                return ["ct", "--expr", expr]
            G = small_gens(rng, k, 10)
            argv = ["ct", "--gens", _csv(G), "--p", str(p)]
            return argv + ["--verify"] if variant == "verify" else argv
        action = turn.pick((sub, size), ("series", "rational", "frobenius",
                                         "gens"))
        top = 12 if size == "tiny" else 40
        while True:
            G = small_gens(rng, k, top)
            if p * len(G) * reduced_lcm(G, p) <= self.RGF_WORK_MAX:
                break
        argv = ["rgf", action, "--gens", _csv(G), "--p", str(p)]
        if action == "series":
            argv += ["--trunc", str(rng.randint(10, 60))]
        elif action == "rational" and size == "tiny":
            argv += ["--verify"]
        return argv

    def blocks(self, rng):
        turn = Rotation(rng)
        while True:
            ops = []
            for sub in self.SUBCOMMANDS:
                for size in self.SIZES:
                    argv = self.command(rng, turn, sub, size)
                    if turn.pick((sub, size, "json"), (False, True)):
                        argv += ["--format", "json"]
                    ops.append(Op(sub, tuple(argv), (0, 2) if "table1" in argv
                                  else (0,)))
            for _ in range(3):
                argv, codes = turn.pick("documented", self.DOCUMENTED)
                ops.append(Op("documented", argv, codes))
            argv, codes = turn.pick("defect", self.DEFECTS)
            ops.append(Op("defect", argv, codes))
            rng.shuffle(ops)
            yield ops

    def call(self, op: Op):
        """(exit code, stdout, stderr) of one command: a fresh
        `python -m nsq.cli` process, or cli.main in this process when
        tracing."""
        if self.in_process:
            return self.run_in_process(op)
        proc = subprocess.run([sys.executable, "-m", "nsq.cli", *op.args],
                              cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    @staticmethod
    def run_in_process(op: Op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op.args))
        return rc, out.getvalue(), err.getvalue()

    def check(self, op: Op, value) -> str:
        if isinstance(value, Exception):
            return FAILED
        rc, out, err = value
        if "Traceback" in err or rc not in op.expect:
            return FAILED
        if rc != 0:
            return OK
        if not self.in_process:
            try:
                ref = self.run_in_process(op)
            except Exception:
                return WRONG
            if ref[:2] != (rc, out):
                return WRONG
        if "--format" in op.args:
            try:
                payload = json.loads(out)
            except ValueError:
                return WRONG
        else:
            payload = out.split()
        return OK if self.independent(op, payload) else WRONG

    def independent(self, op: Op, payload) -> bool:
        """Checks against the benchmark's own oracles where one applies."""
        if op.kind not in ("frobenius", "apery", "minimal-gens"):
            return True
        gens = tuple(int(t) for t in op.args[2].split(","))
        S = semigroup(gens)
        if isinstance(payload, dict):
            got = next((v for k, v in payload.items() if k != "m"), None)
        else:
            try:
                got = [int(t) for t in payload]
            except ValueError:
                return False
            got = got[0] if op.kind == "frobenius" and got else got
        want = {"frobenius": S.frobenius, "apery": lambda: S.ap,
                "minimal-gens": S.minimal_generators}[op.kind]()
        return got == want


def _csv(gens) -> str:
    return ",".join(str(g) for g in gens)
