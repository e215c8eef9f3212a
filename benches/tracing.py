"""Span tracing of wavemult from outside the package.

`Tracer.install` wraps the public functions of the modules parsing, exact,
wavelet_sets, sigma, dimension, multiplicity and cli, plus the set operations
of `IntervalSet` and the evaluations of `SpectralProfile`.  Modules bind
names with ``from .x import y``, so every wavemult namespace holding a
function gets the wrapper, not only its home module.  `uninstall` restores
the originals, so untraced runs execute the program unmodified.

Each call records a span (id, parent id, name, start, end) in memory; self
time is the span minus the time of its child spans, summed per name.
Result hooks count the sizes the layers produce (pieces, rows, points,
denominator bits).  `dump` writes the spans out once, at the end of a run.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from collections import Counter

LAYERS = ("parsing", "exact", "wavelet_sets", "sigma", "dimension", "multiplicity", "cli")

SET_METHODS = (
    "from_intervals", "union", "intersect", "difference", "negate", "dilate", "translate",
    "measure", "contains", "subset_of", "zero_in_closure", "dist_zero", "max_abs",
)
SET_RESULTS = {"from_intervals", "union", "intersect", "difference", "negate", "dilate", "translate"}
PROFILE_METHODS = ("evaluate", "evaluate_array")
LOG2 = ("exact.floor_log2", "exact.ceil_log2")


def _den_bits(c) -> int:
    return c.denominator.bit_length()


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.spans: list[tuple[int, int, int, int, int]] = []
        self.counters: Counter = Counter()
        self.maxima: Counter = Counter()
        self._stack: list[list[int]] = []  # open spans: [id, name index, child ns]
        self._ids = itertools.count()
        self._index: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._log2_ns = [0]  # floor_log2/ceil_log2 self time inside the current operation
        self.log2_by_op: list[tuple[object, int]] = []  # (operation key, that self time in ns)

    # ------------------------------------------------------------ recording

    def _name(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return self._index[name]

    def wrap(self, name: str, fn, on_result=None):
        idx = self._name(name)
        stack, spans, calls, self_ns = self._stack, self.spans, self.calls, self.self_ns
        ids, clock, counters, log2_ns = self._ids, time.perf_counter_ns, self.counters, self._log2_ns
        log2 = {self._name(n) for n in LOG2} if name in LOG2 else None

        def traced(*args, **kwargs):
            frame = [next(ids), idx, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                calls[idx] += 1
                self_ns[idx] += dur - frame[2]
                parent = -1
                if stack:
                    stack[-1][2] += dur
                    parent = stack[-1][0]
                spans.append((frame[0], parent, idx, start, end))
                if log2 is not None:
                    log2_ns[0] += dur - frame[2]
                    if not (stack and stack[-1][1] in log2):
                        counters["exact.log2_calls"] += 1
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, name: str, fn, key=None):
        """Run fn() as a span of its own (an operation of the benchmark).

        The floor_log2/ceil_log2 self time spent inside it is appended to
        `log2_by_op` under `key`.
        """
        self._log2_ns[0] = 0
        result = self.wrap(name, fn)()
        self.log2_by_op.append((key, self._log2_ns[0]))
        return result

    # ------------------------------------------------------------- patching

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "wavemult" or n.startswith("wavemult.")]
        hooks = self._hooks()
        for layer in LAYERS:
            mod = sys.modules.get(f"wavemult.{layer}")
            if mod is None:
                continue
            for attr in getattr(mod, "__all__", ["main"]):
                obj = getattr(mod, attr)
                if isinstance(obj, type) or not callable(obj):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self.wrap(name, obj, hooks.get(name))
                for m in modules:
                    for key in [k for k, v in vars(m).items() if v is obj]:
                        self._patch(m, key, wrapper)
        exact = sys.modules.get("wavemult.exact")
        for meth in SET_METHODS if exact is not None else ():
            raw = exact.IntervalSet.__dict__[meth]
            hook = self._set_result if meth in SET_RESULTS else None
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(f"exact.IntervalSet.{meth}", raw.__func__, hook))
            else:
                wrapped = self.wrap(f"exact.IntervalSet.{meth}", raw, hook)
            self._patch(exact.IntervalSet, meth, wrapped)
        multiplicity = sys.modules.get("wavemult.multiplicity")
        if multiplicity is not None:
            for meth in PROFILE_METHODS:
                raw = multiplicity.SpectralProfile.__dict__[meth]
                self._patch(multiplicity.SpectralProfile, meth,
                            self.wrap(f"multiplicity.SpectralProfile.{meth}", raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------------- hooks

    def _set_result(self, result) -> None:
        bits = max((max(_den_bits(iv.lo.coef), _den_bits(iv.hi.coef)) for iv in result.pieces), default=0)
        if bits > self.maxima["exact.max_den_bits"]:
            self.maxima["exact.max_den_bits"] = bits

    def _shift_bits(self, mapping) -> None:
        bits = max((_den_bits(shift.coef) for _, shift in mapping.pairs), default=0)
        if bits > self.maxima["sigma.max_shift_den_bits"]:
            self.maxima["sigma.max_shift_den_bits"] = bits

    def _hooks(self) -> dict:
        c = self.counters

        def accepted(report):
            c["wavelet_sets.accepted"] += report.accepted

        def power(mapping):
            c["sigma.result_pieces"] += sum(len(piece) for piece, _ in mapping.pairs)
            self._shift_bits(mapping)

        def step(fn):
            c["dimension.step_rows"] += sum(len(piece) for piece, _ in fn.pairs)

        def points(report):
            c["multiplicity.points"] += len(report.records)

        return {
            "wavelet_sets.is_wavelet_set": accepted,
            "sigma.build_sigma": lambda s: self._shift_bits(s.mapping),
            "sigma.compose": self._shift_bits,
            "sigma.dyadic_extension": self._shift_bits,
            "sigma.compose_power": power,
            "dimension.dimension_step_function": step,
            "multiplicity.verify_m_equals_d": points,
        }

    # --------------------------------------------------------------- output

    def totals(self) -> dict:
        """Calls and self time per name, plus counters and maxima (JSON-ready)."""
        return {
            "calls": {n: self.calls[i] for i, n in enumerate(self.names)},
            "self_ns": {n: self.self_ns[i] for i, n in enumerate(self.names)},
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
        }

    def dump(self, path, label: str = "") -> None:
        with open(path, "w") as handle:
            json.dump({"label": label, "names": self.names, "spans": self.spans,
                       **self.totals()}, handle)
