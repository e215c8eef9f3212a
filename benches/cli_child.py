"""Run ``python -m wavemult ARGS...`` with the benchmark's tracer installed.

Usage: ``python benches/cli_child.py OUT ARGS...`` with ``PYTHONPATH=src``.
The spans and totals are written to OUT as JSON when the command exits,
together with the `is_wavelet_set` cache statistics of the process.
"""

import runpy
import sys

import wavemult.cli  # noqa: F401  (imports every module the tracer wraps)
from tracing import Tracer

out, args = sys.argv[1], sys.argv[2:]
tracer = Tracer()
tracer.install()
sys.argv = ["wavemult", *args]
try:
    runpy.run_module("wavemult", run_name="__main__", alter_sys=True)
finally:
    tracer.uninstall()
    info = sys.modules["wavemult.wavelet_sets"].is_wavelet_set.cache_info()
    tracer.counters["wavelet_sets.cache_hits"] += info.hits
    tracer.counters["wavelet_sets.cache_misses"] += info.misses
    tracer.dump(out, label=" ".join(args))
