"""Benchmark of wavemult: one command, three workloads, correctness checked.

    python3 benches/run.py --workload exact-session --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  A run repeats its workload's pass (a fixed list of operations on
inputs drawn from ``--seed``) for about ``--seconds``, and at least
MIN_PASSES times, then prints one line per metric and, as the last line, a
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
with the program unmodified and scaled to a reference speed of the machine,
which fixed calibration tasks timed between the operations measure (see
`Calibration`).  ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics: counts and self times per pass
from the traced passes, size-sweep exponents and CLI latencies from the
untraced ones (the floor_log2 exponent from the traced ones), and the
tracing overhead as traced minus untraced ``wall_s``.  The spans are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Callable, NamedTuple

from workloads import run_child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

TAIL_PERCENTILE = 90
MIN_PASSES = 5  # timed passes per untraced run; peak RSS is read after the warm-up and these

SETUP_PER_PASS = 2  # fresh interpreters after each timed pass
IMPORTTIME_RUNS = 5

SETUP_CODE = (
    "import time; t = time.perf_counter(); import wavemult; "
    "wavemult.catalog('shannon'); print(time.perf_counter() - t)"
)


class Pass(NamedTuple):
    traced: bool
    records: list
    factor: float  # scales the pass's times to the reference speed


class Rec(NamedTuple):
    label: str
    name: str
    size: int | None
    kind: str
    seconds: float
    ok: bool


def fail(message: str) -> None:
    print(f"benches/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH="src")


# ---------------------------------------------------------------- measuring


def setup_seconds(runs: int, starts: list[float]) -> list[float]:
    """`import wavemult` plus the first catalog() call, each in a fresh interpreter.

    A calibration sample of CHILD is appended to `starts` before each.
    """
    times = []
    for _ in range(runs):
        starts.append(CHILD.sample())
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def import_seconds() -> tuple[float, float]:
    """Median cumulative import time of wavemult (CLI included) and of numpy, from -X importtime."""
    totals, numpy = [], []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import wavemult.cli"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=60, check=True)
        top = np_us = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2][1:]
            if name.startswith("wavemult"):  # top level: no indentation
                top += int(parts[1])
            elif name.strip() == "numpy":
                np_us = int(parts[1])
        totals.append(top / 1e6)
        numpy.append(np_us / 1e6)
    return statistics.median(totals), statistics.median(numpy)


def rational_loop_s() -> float:
    """One fixed loop of rational arithmetic and sorting, which uses no wavemult code."""
    start = time.perf_counter()
    total, seen = Fraction(0), []
    for i in range(1, 400):
        total += Fraction(i, 1 << (i % 37)) * Fraction(3, 7)
        seen.append(total)
    seen.sort()
    return time.perf_counter() - start


def child_start_s() -> float:
    """Start and end of a child interpreter that runs nothing."""
    start = time.perf_counter()
    proc = run_child([sys.executable, "-c", "pass"], 60, cwd=ROOT, env=child_env())
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    return time.perf_counter() - start


class Calibration(NamedTuple):
    """A fixed task, timed before every operation, that tracks the machine's speed.

    The machine's speed drifts by up to half for stretches longer than a
    run, and a workload's operations and its calibration task slow
    together.  A pass's factor is `ref_s` over the given percentile of its
    calibration times; its times are multiplied by it.
    """

    sample: Callable[[], float]
    per_op: int  # samples before each operation
    percentile: int
    ref_s: float  # that percentile at the reference speed (a fast moment of the README machine)

    def factor(self, samples: list[float]) -> float:
        return self.ref_s / statistics.quantiles(samples, n=100)[self.percentile - 1]


# In-process work follows a pure-Python loop; work in child processes, which
# is mostly interpreter start and imports, follows the start of a bare child.
IN_PROCESS = Calibration(rational_loop_s, per_op=2, percentile=10, ref_s=0.0020)
CHILD = Calibration(child_start_s, per_op=1, percentile=25, ref_s=0.060)


def peak_rss_mb(workload) -> float:
    rusage = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(rusage).ru_maxrss / 1024


def run_pass(workload, rng, tracer=None, limit: int | None = None,
             cal: Calibration | None = None, cals: list[float] | None = None) -> list[Rec]:
    """Run, time and check the pass's operations (only the first `limit` of them, if given).

    With `cal`, its samples are appended to `cals` before each operation.
    """
    records = []
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        for op in islice(workload.ops(rng, traced=tracer is not None), limit):
            call = op.call if tracer is None else partial(tracer.call, f"bench.{op.name}", op.call, (op.name, op.size))
            if cal is not None:
                cals += [cal.sample() for _ in range(cal.per_op)]
            start = time.perf_counter()
            try:
                result = call()
            except Exception as err:  # an operation that raises counts as failed
                seconds, ok = time.perf_counter() - start, False
                print(f"FAILED {op.name} size={op.size}: raised {err!r}", file=sys.stderr)
            else:
                seconds = time.perf_counter() - start
                try:
                    ok = bool(op.check(result))
                except Exception as err:
                    ok = False
                    print(f"FAILED {op.name} size={op.size}: check raised {err!r}", file=sys.stderr)
                if not ok:
                    print(f"FAILED {op.name} size={op.size}: wrong result", file=sys.stderr)
            records.append(Rec(op.label or f"{op.name} {op.size}", op.name, op.size, op.kind, seconds, ok))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return records


def drive(workload, rng, seconds: float, tracer=None,
          setup: tuple[list[float], list[float]] | None = None):
    """A warm-up pass, then a closed loop over timed passes; with a tracer, every second one is traced.

    The warm-up pass is checked but not timed: the first operations of a
    process run up to twice as slow while the processor and caches warm up.
    A workload may cut its warm-up to its first `warmup_ops` operations.
    When `setup` is given, set-up samples and calibration samples of CHILD
    are added to its two lists after every pass, so that they are spread
    over the run like the passes.  No pass starts
    that would, at the median pace so far, end after `seconds`, unless the
    run is still short of its minimum (MIN_PASSES untraced passes, or one
    traced and one untraced pass).  Returns the warm-up records, the timed
    passes, and the peak RSS after the warm-up and MIN_PASSES timed passes,
    a fixed amount of work.
    """
    warmup = run_pass(workload, rng, limit=workload.warmup_ops)
    start = time.perf_counter()
    passes: list[Pass] = []
    cycles: list[float] = []
    rss = 0.0
    while True:
        begin = time.perf_counter()
        traced = tracer is not None and len(passes) % 2 == 1
        cal, cals = IN_PROCESS if workload.in_process else CHILD, []
        records = run_pass(workload, rng, tracer if traced else None, cal=cal, cals=cals)
        passes.append(Pass(traced, records, cal.factor(cals)))
        if len(passes) == MIN_PASSES:
            rss = peak_rss_mb(workload)
        if setup is not None:
            setup[0].extend(setup_seconds(SETUP_PER_PASS, setup[1]))
        now = time.perf_counter()
        cycles.append(now - begin)
        filled = len(passes) >= (2 if tracer is not None else MIN_PASSES)
        if filled and now - start + statistics.median(cycles) > seconds:
            return warmup, passes, rss


# ------------------------------------------------------------------ metrics


def slope(samples) -> float:
    """Least-squares slope of log(median time) against log(size), over (size, time) samples."""
    by_size = defaultdict(list)
    for size, seconds in samples:
        by_size[size].append(seconds)
    if len(by_size) < 2 or not all(statistics.median(v) > 0 for v in by_size.values()):
        return 0.0
    xs = [math.log(s) for s in sorted(by_size)]
    ys = [math.log(statistics.median(by_size[s])) for s in sorted(by_size)]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def op_slope(recs: list[Rec], name: str) -> float:
    return slope((r.size, r.seconds) for r in recs if r.name == name)


def best_seconds(passes: list[Pass], scaled: bool = True) -> dict[str, float]:
    """Each operation of the pass at its fastest over the given passes, scaled or as timed."""
    best: dict[str, float] = {}
    for p in passes:
        if len({r.label for r in p.records}) != len(p.records):
            raise ValueError("two operations of one pass share a label")
        factor = p.factor if scaled else 1.0
        for r in p.records:
            best[r.label] = min(best.get(r.label, math.inf), r.seconds * factor)
    return best


def end_to_end(passes: list[Pass], setup_s: float, rss_mb: float, scaled: bool = True) -> dict:
    ms = [s * 1e3 for s in best_seconds(passes, scaled).values()]
    return {
        "setup_s": setup_s,
        "wall_s": sum(ms) / 1e3,
        "op_p50_ms": statistics.median(ms),
        "op_tail_ms": statistics.quantiles(ms, n=100)[TAIL_PERCENTILE - 1],
        "peak_rss_mb": rss_mb,
    }


def merge_totals(dumps: list[dict]) -> dict:
    merged = {"calls": defaultdict(int), "self_ns": defaultdict(int),
              "counters": defaultdict(int), "maxima": defaultdict(int)}
    for d in dumps:
        for key in ("calls", "self_ns", "counters"):
            for name, value in d[key].items():
                merged[key][name] += value
        for name, value in d["maxima"].items():
            merged["maxima"][name] = max(merged["maxima"][name], value)
    return merged


def per_layer(passes, totals: dict, log2_by_op: list, cache: tuple[int, int],
              imports: tuple[float, float]) -> dict:
    from tracing import LOG2

    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    plain = [r for p in untraced for r in p.records]
    n = len(traced)
    calls, self_ns, cnt, mx = totals["calls"], totals["self_ns"], totals["counters"], totals["maxima"]

    def per_pass(*names):
        return sum(calls.get(k, 0) for k in names) / n

    def self_s(keep):
        return sum(v for k, v in self_ns.items() if keep(k)) / n / 1e9

    def layer(name):
        return lambda k: k.startswith(name + ".")

    def p50_ms(kind):
        ms = [r.seconds * 1e3 for r in plain if r.name.startswith("cli:") and r.kind == kind]
        return statistics.median(ms) if ms else 0.0

    checks = calls.get("wavelet_sets.is_wavelet_set", 0)
    hits, misses = cache
    return {
        "exact.set_ops": sum(v for k, v in calls.items() if k.startswith("exact.IntervalSet.")) / n,
        "exact.self_s": self_s(layer("exact")),
        "exact.max_den_bits": mx.get("exact.max_den_bits", 0),
        "exact.log2_calls": cnt.get("exact.log2_calls", 0) / n,
        "exact.log2_self_s": self_s(lambda k: k in LOG2),
        "exact.log2_exponent": slope((key[1], ns / 1e9) for key, ns in log2_by_op
                                     if key[0] == "hostile_tiny"),
        "wavelet_sets.checks": per_pass("wavelet_sets.is_wavelet_set", "wavelet_sets.translation_congruence",
                                        "wavelet_sets.dilation_congruence"),
        "wavelet_sets.self_s": self_s(layer("wavelet_sets")),
        "wavelet_sets.accepted_ratio": cnt.get("wavelet_sets.accepted", 0) / checks if checks else 0.0,
        "wavelet_sets.pieces_exponent": op_slope(plain, "is_wavelet_set"),
        "wavelet_sets.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "sigma.compose_calls": per_pass("sigma.compose"),
        "sigma.extension_calls": per_pass("sigma.dyadic_extension", "sigma.extension_at"),
        "sigma.self_s": self_s(layer("sigma")),
        "sigma.result_pieces": cnt.get("sigma.result_pieces", 0) / n,
        "sigma.max_shift_den_bits": mx.get("sigma.max_shift_den_bits", 0),
        "sigma.power_exponent": op_slope(plain, "compose_power:paper"),
        "dimension.step_calls": per_pass("dimension.dimension_step_function"),
        "dimension.step_rows": cnt.get("dimension.step_rows", 0) / n,
        "dimension.self_s": self_s(layer("dimension")),
        "dimension.depth_exponent": op_slope(plain, "dimension_step_function"),
        "dimension.at_calls": per_pass("dimension.dimension_at"),
        "dimension.at_self_s": self_s(lambda k: k == "dimension.dimension_at"),
        "multiplicity.points": cnt.get("multiplicity.points", 0) / n,
        "multiplicity.gram_schmidt_calls": per_pass("multiplicity.gram_schmidt"),
        "multiplicity.fiber_calls": per_pass("multiplicity.fiber"),
        "multiplicity.profile_evals": per_pass("multiplicity.SpectralProfile.evaluate",
                                               "multiplicity.SpectralProfile.evaluate_array"),
        "multiplicity.self_s": self_s(layer("multiplicity")),
        "parsing.calls": per_pass("parsing.parse_set", "parsing.parse_scalar"),
        "parsing.self_s": self_s(layer("parsing")),
        "cli.invocations": per_pass("cli.main"),
        "cli.import_s": imports[0],
        "cli.import_numpy_s": imports[1],
        "cli.exact_cmd_p50_ms": p50_ms("exact"),
        "cli.numeric_cmd_p50_ms": p50_ms("numeric"),
        "trace.overhead_s": (sum(best_seconds(traced, scaled=False).values())
                             - sum(best_seconds(untraced, scaled=False).values())),
    }


# --------------------------------------------------------------------- main


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["exact-session", "numeric-sweep", "cli-mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (SRC / "wavemult" / "__init__.py").is_file():
        fail(f"no wavemult package under {SRC}; run from the root of a source checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))

    from tracing import Tracer
    import workloads

    rng = random.Random(args.seed)
    tracer = Tracer() if args.trace else None
    if args.workload == "cli-mix":
        child_dir = OUT_DIR / f"{args.workload}-seed{args.seed}.children"
        if args.trace:
            shutil.rmtree(child_dir, ignore_errors=True)
            child_dir.mkdir(parents=True)
        workload = workloads.CliMix(ROOT, child_dir, child_env())
    else:
        workload = workloads.ExactSession() if args.workload == "exact-session" else workloads.NumericSweep()
        import wavemult
        if wavemult.__file__ != str(SRC / "wavemult" / "__init__.py"):
            fail(f"imported wavemult from {wavemult.__file__}, not from {SRC}")

    if args.trace:
        warmup, passes, _ = drive(workload, rng, args.seconds, tracer)
        dumps = [{"label": "benchmark", "names": tracer.names, "spans": tracer.spans, **tracer.totals()}]
        if args.workload == "cli-mix":
            dumps += [json.loads(p.read_text()) for p in workload.child_traces]
            shutil.rmtree(workload.trace_dir)
            totals = merge_totals(dumps)
            cache = (totals["counters"].get("wavelet_sets.cache_hits", 0),
                     totals["counters"].get("wavelet_sets.cache_misses", 0))
        else:
            totals = merge_totals(dumps)
            info = sys.modules["wavemult.wavelet_sets"].is_wavelet_set.cache_info()
            cache = (info.hits, info.misses)
        values = per_layer(passes, totals, tracer.log2_by_op, cache, import_seconds())
        declared = spec["per_layer"]
        trace_path = OUT_DIR / f"{args.workload}-seed{args.seed}.trace.json"
        OUT_DIR.mkdir(exist_ok=True)
        with open(trace_path, "w") as handle:
            json.dump({"workload": args.workload, "seed": args.seed, "processes": dumps}, handle)
    else:
        setup, starts = [], []
        warmup, passes, rss = drive(workload, rng, args.seconds, setup=(setup, starts))
        values = end_to_end(passes, statistics.median(setup) * CHILD.factor(starts), rss)
        timed = end_to_end(passes, statistics.median(setup), rss, scaled=False)
        declared = spec["end_to_end"]

    recs = warmup + [r for p in passes for r in p.records]
    failed = sum(not r.ok for r in recs)
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} timed passes after a warm-up, {len(recs)} operations, "
          f"failed_frac {failed / len(recs):.4f} ({failed} failed)")
    if not args.trace:
        factors = [p.factor for p in passes]
        print(f"  speed factor per pass {min(factors):.3f} to {max(factors):.3f}, of set-up "
              f"{CHILD.factor(starts):.3f}; as timed, unscaled:",
              ", ".join(f"{k} {v:.6g}" for k, v in timed.items() if k != "peak_rss_mb"))
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:32s} {values[m['name']]:14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(recs), "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
