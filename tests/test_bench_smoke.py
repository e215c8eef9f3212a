"""One traced pass of each in-process benchmark workload, checked by the workload itself.

The benchmark under ``benches/`` calls the library by name (functions,
methods, attributes) and its tracer patches the public functions and the
`IntervalSet` methods it lists.  A renamed or removed name then makes an
operation fail, crashes the tracer, or silently zeroes a per-layer counter;
this test catches all three.  Like `run.drive`, it runs the workload's untraced
warm-up first, so the caches are warm whatever ran before and the counters do
not depend on test order.  It imports ``benches/`` and writes nothing there.
"""

import json
import random
import sys
from pathlib import Path

import pytest

import wavemult

ROOT = Path(__file__).resolve().parents[1]
BENCHES = ROOT / "benches"

# Per-layer metrics that a traced pass of the workload must move off zero.
COUNTED = {
    "exact-session": (
        "exact.set_ops", "exact.max_den_bits", "exact.log2_calls", "wavelet_sets.checks",
        "wavelet_sets.accepted_ratio", "sigma.compose_calls", "sigma.extension_calls",
        "sigma.result_pieces", "sigma.max_shift_den_bits", "dimension.step_calls",
        "dimension.step_rows",
    ),
    "numeric-sweep": (
        "exact.set_ops", "wavelet_sets.checks", "dimension.step_calls", "dimension.step_rows",
        "multiplicity.points", "multiplicity.profile_evals",
    ),
}


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCHES))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no __pycache__ under benches/
    try:
        import run
        import tracing
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(BENCHES))
    return run, tracing, workloads


def namespaces():
    """Every attribute of the wavemult modules and of IntervalSet, by identity."""
    mods = [m for n, m in sys.modules.items() if n == "wavemult" or n.startswith("wavemult.")]
    names = {(m.__name__, k): id(v) for m in mods for k, v in vars(m).items()}
    names.update({("IntervalSet", k): id(v) for k, v in vars(wavemult.IntervalSet).items()})
    return names


@pytest.mark.parametrize("name", sorted(COUNTED))
def test_one_traced_pass(bench, name):
    run, tracing, workloads = bench
    workload = {"exact-session": workloads.ExactSession,
                "numeric-sweep": workloads.NumericSweep}[name]()
    rng = random.Random(1)
    warmup = run.run_pass(workload, rng, limit=workload.warmup_ops)
    assert warmup and not [r.label for r in warmup if not r.ok]
    before = namespaces()
    tracer = tracing.Tracer()
    records = run.run_pass(workload, rng, tracer)
    assert namespaces() == before  # uninstall restored every patched name
    assert records and not [r.label for r in records if not r.ok]

    metrics = run.per_layer([run.Pass(True, records, 1.0)], tracer.totals(),
                            tracer.log2_by_op, (0, 0), (0.0, 0.0))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert not [m for m in COUNTED[name] if not metrics[m] > 0]
