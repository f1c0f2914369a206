"""Run one seeded nsq workload and print its metrics.

    python3 perfbench/run.py --workload semigroup-ladder --seed 1 --seconds 24 --trace 0

Run from the root of a checkout: nsq is imported from ./src, never from
an installed copy.  Ops run single-process and closed loop (one op in
flight).  The run draws whole blocks of ops until --seconds of op time
has been measured and at least MIN_OPS ops have run.  Each answer is
checked against an oracle right after its op, outside the timed region.
Op times are scaled to a reference host speed measured by a probe
between ops (hostspeed.py).
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.

--trace 0 reports the end-to-end metrics: setup_s, ops_per_s, lat_p50_ms,
lat_p90_ms, ok_ratio and peak_rss_mb.  --trace 1 runs the ops under layer
spans and reports the per-layer metrics instead; see README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
MIN_OPS = 100  # at least ten samples beyond p90
SETUP_SPAWNS = 4  # per set-up point: before the ops and after them
TRACE_SHARE = 0.5  # of --seconds measured in the traced phase
PROBE_EVERY = 0.05  # seconds of op time between host speed probes
OK, WRONG = "ok", "wrong"  # verdicts of a workload's check()


def metric_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def spawn_seconds(argv, env, expect_stdout=None) -> float:
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    dt = perf_counter() - t0
    if proc.returncode != 0 or (expect_stdout is not None
                                and proc.stdout.strip() != expect_stdout):
        raise RuntimeError(f"set-up command {argv} failed: {proc.stderr}")
    return dt


def spawns(argv, env, n, expect_stdout=None) -> list[float]:
    return [spawn_seconds(argv, env, expect_stdout) for _ in range(n)]


def setup_spawns(workload: str, env) -> list[float]:
    """Times for a fresh interpreter to import nsq (nsq.cli for cli-mix)
    and answer one trivial op."""
    if workload == "cli-mix":
        return spawns(["-m", "nsq.cli", "frobenius", "--gens", "3,5"], env,
                      SETUP_SPAWNS, "7")
    return spawns(["-c", "import nsq; "
                   "print(nsq.frobenius(nsq.GeneratorList.of(3, 5)))"],
                  env, SETUP_SPAWNS, "7")


def cli_import_seconds(env) -> float:
    """Fresh import of nsq.cli minus a bare interpreter start."""
    n = SETUP_SPAWNS * 2
    return (statistics.median(spawns(["-c", "import nsq.cli"], env, n))
            - statistics.median(spawns(["-c", "pass"], env, n)))


def timed(call, op):
    t0 = perf_counter()
    try:
        value = call(op)
    except Exception as exc:  # a failed op, never fatal to the run
        value = exc
    return value, perf_counter() - t0


def run_ops(wl, blocks, call, seconds=None, probe=None):
    """Closed loop over whole blocks of ops until `seconds` of op time is
    measured and MIN_OPS ops have run (or over all blocks).  Samples the
    host speed `probe` between ops.  Returns (op, latency, verdict) rows."""
    rows = []
    busy = 0.0
    for block in blocks:
        if seconds is not None and busy >= seconds and len(rows) >= MIN_OPS:
            break
        for op in block:
            value, dt = timed(call, op)
            busy += dt
            if probe is not None:
                probe.after_op(dt)
            verdict = wl.check(op, value)
            if verdict != OK:
                print(f"# {verdict}: {op.kind} {op.args} -> {value!r:.200}")
            rows.append((op, dt, verdict))
    return rows


def block_stream(wl, seed: int):
    return wl.blocks(random.Random(f"{wl.name}:{seed}"))


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def no_wrong(rows) -> bool:
    return all(v != WRONG for _, _, v in rows)


def end_to_end(wl, args, env) -> tuple[list, bool, dict]:
    setup = setup_spawns(wl.name, env)
    probe = hostspeed.Probe(PROBE_EVERY)
    rows = run_ops(wl, block_stream(wl, args.seed), wl.call, args.seconds,
                   probe)
    setup += setup_spawns(wl.name, env)
    who = (resource.RUSAGE_CHILDREN if wl.name == "cli-mix"
           else resource.RUSAGE_SELF)
    peak_mb = resource.getrusage(who).ru_maxrss / 1024
    # op times at reference host speed; see hostspeed.py
    scales = probe.scales()
    print(f"# host probe: median {statistics.median(probe.times) * 1e3:.4f} ms"
          f" over {len(probe.times)} samples; op times scaled by "
          f"{min(scales):.4f} to {max(scales):.4f}")
    scaled = [dt * c for (_, dt, _), c in zip(rows, scales)]
    # a failed or refused op misses every latency limit
    lat = sorted(t if v == OK else math.inf
                 for t, (_, _, v) in zip(scaled, rows))
    n_ok = sum(v == OK for _, _, v in rows)
    return rows, no_wrong(rows), {
        "setup_s": statistics.median(setup),
        "ops_per_s": n_ok / sum(scaled),
        "lat_p50_ms": percentile(lat, 0.5) * 1e3,
        "lat_p90_ms": percentile(lat, 0.9) * 1e3,
        "ok_ratio": n_ok / len(rows),
        "peak_rss_mb": peak_mb,
    }


def traced(wl, args, env) -> tuple[list, bool, dict]:
    import_s = cli_import_seconds(env)
    tracer = Tracer().install()
    try:
        rows = run_ops(wl, block_stream(wl, args.seed),
                       lambda op: tracer.call(f"bench.{op.kind}", wl.call, op),
                       args.seconds * TRACE_SHARE)
    finally:
        tracer.uninstall()
    # the same ops again without spans, for the overhead ratio
    replay = run_ops(wl, [[op for op, _, _ in rows]], wl.call)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{wl.name}-{args.seed}.tsv")
    layers = tracer.layer_metrics(len(rows))
    wall = sum(dt for _, dt, _ in rows)
    print("# share of traced wall by layer self time: " + ", ".join(
        f"{k.split('.')[0]} {v * len(rows) / wall:.3f}"
        for k, v in layers.items()
        if k.endswith(".self_s") and k != "exactalg.gcd_self_s"))
    metrics = dict(layers)
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead_ratio"] = wall / sum(dt for _, dt, _ in replay)
    return rows, no_wrong(rows) and no_wrong(replay), metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("semigroup-ladder", "rgf-closed-form", "ct-exact",
                             "cli-mix"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "nsq" / "__init__.py").is_file():
        print(f"perfbench: no nsq sources under {SRC}", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("NSQ_")]:
        del os.environ[key]  # caps stay at their defaults, here and in children
    sys.path.insert(0, str(SRC))
    import workloads

    env = {**os.environ, "PYTHONPATH": str(SRC)}
    if args.workload == "cli-mix":
        wl = workloads.CliMix(ROOT, env, in_process=bool(args.trace))
    else:
        wl = {"semigroup-ladder": workloads.SemigroupLadder,
              "rgf-closed-form": workloads.RgfClosedForm,
              "ct-exact": workloads.CtExact}[args.workload]()
    rows, correct, metrics = (traced if args.trace else end_to_end)(wl, args, env)
    units = metric_units()
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(rows),
        "failed": sum(v != OK for _, _, v in rows),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
