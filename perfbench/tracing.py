"""Layer spans recorded from outside the package.

`Tracer.install` wraps the functions named in `nsq.__all__`,
`quotient._enumerate_tp` (for T_p tuple counts), `cli.main` and the
`RationalFunction` constructor, and patches each wrapper into every nsq
module that holds a reference to the original, so calls between modules
(`rgf.frobenius`, `ctengine.poly_gcd`, `exactalg.poly_gcd` inside
`RationalFunction.__init__`) are seen too.  A span's layer is the module
that defines the function.

Spans are kept in memory as (name, start, end, parent) in flat arrays and
written out when the run ends.  Self time is a span's duration minus the
durations of its direct children; calls nest, so children never overlap.
"""
from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("semigroup", "quotient", "rgf", "ctengine", "exactalg", "cli")


def _count_sieve(c, args, out):
    c["sieve_cells"] += out.bound + 1


def _count_dp(c, args, out):
    c["dp_cells"] += (out.order + 1) * len(args[0].seq)


def _count_horizon(c, args, out):
    c["horizon_terms"] += out.certified_to


def _count_rgf_series(c, args, out):
    c["rgf_series_terms"] += out.order + 1


def _count_tp(c, args, out):
    c["tp_tuples"] += out.p ** len(out.gens)
    c["tp_kept"] += len(out.tuples)


def _count_expansion(c, args, out):
    c["expansion_terms"] += out.order


# counts taken from a call's arguments and result, by span name
COUNTERS = {
    "semigroup.build_membership": _count_sieve,
    "semigroup.denumerant_series": _count_dp,
    "rgf.rgf_rational": _count_horizon,
    "rgf.rgf_series": _count_rgf_series,
    "quotient._enumerate_tp": _count_tp,
    "exactalg.series_from_rational": _count_expansion,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        i = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.counts[f"{name}:{type(exc).__name__}"] += 1
            raise
        finally:
            self.end[i] = perf_counter()
            self.stack.pop()

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if count:
                count(self.counts, args, out)
            return out

        return traced

    def install(self):
        import nsq
        from nsq.exactalg import RationalFunction

        modules = {m: importlib.import_module(f"nsq.{m}") for m in LAYERS}
        targets = [getattr(nsq, n) for n in nsq.__all__]
        targets = [f for f in targets if inspect.isfunction(f)]
        targets += [modules["quotient"]._enumerate_tp, modules["cli"].main]
        wrappers = {}
        for fn in targets:
            layer = fn.__module__.rsplit(".", 1)[-1]
            wrappers[id(fn)] = self.wrap(f"{layer}.{fn.__name__}", fn)
        for mod in (nsq, *modules.values()):
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self.patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
        init = RationalFunction.__init__
        traced_init = self.wrap("exactalg.RationalFunction", init)
        self.patched.append((RationalFunction, "__init__", init))
        RationalFunction.__init__ = traced_init
        return self

    def uninstall(self):
        for owner, attr, value in reversed(self.patched):
            setattr(owner, attr, value)
        self.patched.clear()

    def self_times(self) -> list[float]:
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                child[par] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i] for i in range(n)]

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-layer metrics over the traced ops, normalised per op."""
        selfs = self.self_times()
        self_s = Counter()
        calls = Counter()
        by_name = Counter()
        gcd_self = 0.0
        for i, s in enumerate(selfs):
            name = self.names[self.name[i]]
            layer = name.split(".", 1)[0]
            self_s[layer] += s
            calls[layer] += 1
            by_name[name] += 1
            if name == "exactalg.poly_gcd":
                gcd_self += s
        c = self.counts
        per_op = 1.0 / n_ops
        ct_calls = by_name["ctengine.ct_rgf_rational"]
        fallbacks = c["ctengine.ct_rgf_rational:NonCoprimeFactors"]
        out = {f"{layer}.self_s": self_s[layer] * per_op for layer in LAYERS}
        for layer in ("semigroup", "quotient", "rgf", "ctengine"):
            out[f"{layer}.calls"] = calls[layer] * per_op
        out.update({
            "semigroup.sieve_cells": c["sieve_cells"] * per_op,
            "semigroup.sieves_per_op": by_name["semigroup.build_membership"] * per_op,
            "semigroup.dp_cells": c["dp_cells"] * per_op,
            "rgf.horizon_terms": c["horizon_terms"] * per_op,
            "rgf.series_terms": c["rgf_series_terms"] * per_op,
            "quotient.tp_tuples": c["tp_tuples"] * per_op,
            "quotient.tp_yield": (c["tp_kept"] / c["tp_tuples"]
                                  if c["tp_tuples"] else 0.0),
            "ctengine.fallback_ratio": fallbacks / ct_calls if ct_calls else 0.0,
            "exactalg.rf_inits": by_name["exactalg.RationalFunction"] * per_op,
            "exactalg.gcd_calls": by_name["exactalg.poly_gcd"] * per_op,
            "exactalg.gcd_self_s": gcd_self * per_op,
            "exactalg.series_terms": c["expansion_terms"] * per_op,
        })
        return out

    def write(self, path):
        """Spans as tab-separated name, start, end, parent (row index)."""
        with open(path, "w") as f:
            f.write("name\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                f.write(f"{self.names[self.name[i]]}\t{self.start[i]!r}\t"
                        f"{self.end[i]!r}\t{self.parent[i]}\n")
