"""Rank the ct-exact instance pools by measured cost.

    python3 perfbench/rank_ct.py

Times ct-exact's ops on every gcd-1 list of each (k, p) cell and on a
fixed pool of EXPRS Elliott expressions (best of PASSES passes, each
over all instances) and writes ct_costs.json: per cell, and under
"expr", [milliseconds, instance] sorted by time.  The workload only uses
the ranking, to draw instances of like cost for every seed, so the file
need not be remade when nsq gets faster; remake it if the pools change.
"""
from __future__ import annotations

import itertools
import json
import math
import random
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
PASSES = 3
EXPRS = 240


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    wl = workloads.CtExact()
    pools = {f"{k},{p}": [workloads.Op("ct_rgf_rational", (g, p))
                          for g in itertools.combinations(range(2, top + 1), k)
                          if math.gcd(*g) == 1]
             for (k, p), top in wl.TOP.items()}
    rng = random.Random("ct-exact:expressions")
    pools["expr"] = [workloads.Op("ct_constant_term", e) for e in sorted(
        {workloads.elliott_expression(rng) for _ in range(EXPRS)})]
    best = {op: math.inf for pool in pools.values() for op in pool}
    for _ in range(PASSES):
        for op in best:
            t0 = perf_counter()
            wl.call(op)
            best[op] = min(best[op], perf_counter() - t0)
    ranked = {name: sorted([round(best[op] * 1e3, 2),
                            op.args if name == "expr" else op.args[0]]
                           for op in pool)
              for name, pool in pools.items()}
    out = HERE / "ct_costs.json"
    out.write_text("{\n" + ",\n".join(
        f'  "{cell}": {json.dumps(rows, separators=(",", ":"))}'
        for cell, rows in ranked.items()) + "\n}\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
