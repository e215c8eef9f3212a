"""The three workloads: each pass is a fixed list of operations on seeded inputs.

A workload yields `Op`s one at a time; the runner times `call()` alone and
then hands the result to `check`, which compares it with the benchmark's own
oracles (`inputs.py`).  Inputs are drawn from the run's seeded generator, so
a seed fixes the whole sequence of passes.  Every operation of a pass is
closed loop: one client, the next operation starts when the last returned.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import permutations
from pathlib import Path
from typing import Any, Callable, Optional

import inputs as I

HERE = Path(__file__).resolve().parent


@dataclass
class Op:
    name: str
    size: Optional[int]  # the swept size, where the operation is part of a size sweep
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    kind: str = "exact"
    label: str = ""  # names the operation within a pass, the same in every pass; default "name size"


def run_child(cmd: list[str], timeout: float, **popen_args) -> subprocess.CompletedProcess:
    """Run a child to its end and capture its output as text, killing it after `timeout` s.

    Unlike ``subprocess.run(timeout=...)``, which polls for the child's end
    in sleeps of up to 50 ms and so adds up to 50 ms to a timed child, this
    waits for the end without polling; a timer thread enforces the timeout.
    """
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          **popen_args) as proc:
        killed = threading.Event()

        def kill() -> None:
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            out, err = proc.communicate()
        finally:
            timer.cancel()
    if killed.is_set():
        raise subprocess.TimeoutExpired(cmd, timeout, out, err)
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def _frags(mapping) -> list[tuple[Fraction, Fraction, Fraction]]:
    return [(iv.lo.coef, iv.hi.coef, shift.coef) for iv, shift in mapping.cases()]


def _bijection(frags, domain: list[I.Piece]) -> bool:
    """The pieces partition `domain`, of measure 2pi, and their images do not overlap."""
    total = sum(hi - lo for lo, hi, _ in frags)
    images = I.merged((lo + s, hi + s) for lo, hi, s in frags)
    return (I.merged((lo, hi) for lo, hi, _ in frags) == domain
            and total == sum(hi - lo for lo, hi in domain) == 2
            and sum(hi - lo for lo, hi in images) == total)


def _to_set(pieces):
    import wavemult as wm

    return wm.IntervalSet.from_intervals(
        wm.Interval(wm.RationalPi(lo), wm.RationalPi(hi)) for lo, hi in pieces)


# ------------------------------------------------------------ exact-session


class ExactSession:
    """Library session on the exact side: tilings, sigma, powers, step functions."""

    name = "exact-session"
    in_process = True
    warmup_ops = None  # the whole pass
    PIECES = (48, 180, 400)
    POWERS = (2, 4, 8, 12)
    DEPTHS = (12, 40, 100)
    HOSTILE_E = (50, 100, 200)

    def __init__(self) -> None:
        import wavemult as wm

        self.wm = wm
        self.sets = {name: wm.catalog(name) for name in wm.CATALOG_NAMES}
        self.windows = {d: _to_set(I.symmetric_window(d)) for d in self.DEPTHS}
        self.sigmas = {
            "paper": (wm.build_sigma(self.sets["paper_w1"], self.sets["paper_w2"]), "paper_w1"),
            "shannon-journe": (wm.build_sigma(self.sets["shannon"], self.sets["journe"]), "shannon"),
        }

    def ops(self, rng, traced: bool = False):
        wm = self.wm
        for n in self.PIECES:
            P = I.translation_congruent_set(rng, n)
            yield Op("is_wavelet_set", n, partial(wm.is_wavelet_set, _to_set(P)),
                     partial(self._check_generated, P, I.dilation_tiles(P)))
        for a, b in permutations(sorted(I.CATALOG), 2):
            yield Op("build_sigma", None, partial(wm.build_sigma, self.sets[a], self.sets[b]),
                     partial(self._check_sigma, a, b), label=f"build_sigma {a}->{b}")
        for label, (sigma, w1) in self.sigmas.items():
            for p in self.POWERS:
                yield Op(f"compose_power:{label}", p, partial(wm.compose_power, sigma, p),
                         partial(self._check_power, w1, label == "paper" and p == 2))
        journe = self.sets["journe"]
        for d in self.DEPTHS:
            window = I.symmetric_window(d)
            yield Op("dimension_step_function", d,
                     partial(wm.dimension_step_function, journe, self.windows[d]),
                     partial(self._check_step, I.CATALOG["journe"], window, I.points_in(rng, window, 4)))
        for d in self.DEPTHS:
            B = I.two_interval_wavelet_set(rng)
            window = I.symmetric_window(d)
            yield Op("core_equivalence_regions", d,
                     partial(wm.core_equivalence_regions, _to_set(B), journe, self.windows[d]),
                     partial(self._check_regions, B, I.CATALOG["journe"], I.points_in(rng, window, 6)))
        # Hostile inputs; a seeded nudge of the right end keeps every set new to the cache.
        nudge = Fraction(rng.randrange(1, 2**16), 2**16)
        hostile = [("hostile_far", 2000, [(Fraction(1), 2000 - nudge)])]
        hostile += [("hostile_tiny", e, [(Fraction(1, 2**e), 1 - nudge / 2)]) for e in self.HOSTILE_E]
        for name, size, H in hostile:
            yield Op(name, size, partial(wm.is_wavelet_set, _to_set(H)),
                     partial(self._check_hostile, H))

    @staticmethod
    def _check_generated(P, dilation_ok, report) -> bool:
        frags = _frags(report.tau_witness)
        return (I.translation_tiles(P) and report.is_translation_congruent
                and report.is_dilation_congruent == dilation_ok
                and report.accepted == dilation_ok
                and all(s % 2 == 0 for _, _, s in frags)
                and I.merged((lo, hi) for lo, hi, _ in frags) == P
                and I.tiles([(lo + s, hi + s) for lo, hi, s in frags], Fraction(-1), Fraction(1)))

    @staticmethod
    def _check_sigma(a, b, sigma) -> bool:
        frags = _frags(sigma.mapping)
        ok = (all(s % 2 == 0 for _, _, s in frags) and _bijection(frags, I.CATALOG[a])
              and I.merged((lo + s, hi + s) for lo, hi, s in frags) == I.CATALOG[b])
        if (a, b) == ("paper_w1", "paper_w2"):
            ok = ok and frags == I.PAPER_SIGMA
        return ok

    @staticmethod
    def _check_power(w1, paper_square, mapping) -> bool:
        frags = _frags(mapping)
        ok = _bijection(frags, I.CATALOG[w1])
        if paper_square:
            ok = ok and I.PAPER_SQUARE_WITNESS in frags
        return ok

    def _check_step(self, W, window, points, step) -> bool:
        rows = [(iv.lo.coef, iv.hi.coef, v) for iv, v in step.rows()]
        probes = [(lo, v) for lo, _, v in rows] + [((lo + hi) / 2, v) for lo, hi, v in rows]
        probes += [(x, step.value_at(self.wm.RationalPi(x))) for x in points]
        return (I.merged((lo, hi) for lo, hi, _ in rows) == window
                and all(I.lattice_count(W, x) == v for x, v in probes))

    @staticmethod
    def _check_regions(A, B, points, regions) -> bool:
        pieces = [(iv.lo.coef, iv.hi.coef) for iv in regions]
        probes = points + [(lo + hi) / 2 for lo, hi in pieces] + [lo for lo, _ in pieces]
        return all(I.contains(pieces, x) == (I.lattice_count(A, x) != I.lattice_count(B, x))
                   for x in probes)

    @staticmethod
    def _check_hostile(H, report) -> bool:
        return (not report.accepted
                and report.is_translation_congruent == I.translation_tiles(H)
                and report.is_dilation_congruent == I.dilation_tiles(H))


# ------------------------------------------------------------ numeric-sweep


class NumericSweep:
    """verify_m_equals_d (J=12, K=8): Meyer on a uniform grid, two MSF sets on midpoint grids."""

    name = "numeric-sweep"
    in_process = True
    warmup_ops = None
    J, K = 12, 8
    # Points per verify_m_equals_d call.  A Meyer call then takes about four
    # times an MSF call, and the two kinds make up 30 and 60 % of a pass, so
    # the median and the 90th percentile fall inside a cluster of like calls
    # rather than on the edge between two.
    CHUNK = {"meyer": 128, "journe": 64, "paper_w1": 64}
    WINDOW = I.symmetric_window(6)  # the CLI's default numeric window [-pi,-pi/64) u [pi/64,pi)

    def __init__(self) -> None:
        import wavemult as wm

        self.wm = wm
        self.window = _to_set(self.WINDOW)
        self.profiles = {"meyer": wm.meyer_profile()}
        self.profiles.update({n: wm.msf_profile(wm.catalog(n)) for n in ("journe", "paper_w1")})

    def ops(self, rng, traced: bool = False):
        wm = self.wm
        grids: dict[str, list] = {}

        def keep(name, count, exact, grid):
            grids[name] = grid
            if exact:
                inside = I.in_pieces(self.WINDOW, [p.coef for p in grid])
            else:
                inside = all(any(lo * math.pi <= x < hi * math.pi for lo, hi in self.WINDOW)
                             for x in grid)
            return len(grid) >= count and inside

        yield Op("uniform_grid", 1024, partial(wm.uniform_grid, self.window, 1024),
                 partial(keep, "meyer", 1024, False), kind="numeric")
        for name in ("journe", "paper_w1"):
            yield Op("midpoint_grid", 512, partial(wm.midpoint_grid, wm.catalog(name), self.window, 512),
                     partial(keep, name, 512, True), kind="numeric", label=f"midpoint_grid {name}")
        chunks = [(name, i) for name, grid in grids.items() for i in range(0, len(grid), self.CHUNK[name])]
        rng.shuffle(chunks)
        for name, i in chunks:
            points = grids[name][i:i + self.CHUNK[name]]
            yield Op(f"verify_m_equals_d:{name}", None,
                     partial(wm.verify_m_equals_d, self.profiles[name], points, self.J, self.K),
                     partial(self._check, name, points), kind="numeric",
                     label=f"verify_m_equals_d:{name} from {i}")

    @staticmethod
    def _check(name, points, report) -> bool:
        records = report.records
        if not (report.all_agree and len(records) == len(points)):
            return False
        if name == "meyer":  # an MRA wavelet: multiplicity 1 everywhere
            return all(r.rank == 1 for r in records)
        W = I.CATALOG[name]
        return all(r.exact == r.rank == I.lattice_count(W, p.coef) for r, p in zip(records, points))


# ------------------------------------------------------------------ cli-mix


class CliMix:
    """Sequential ``python -m wavemult`` processes covering every subcommand."""

    name = "cli-mix"
    in_process = False  # the work runs in child processes
    warmup_ops = 3  # every process starts cold; the warm-up only fills the file cache

    def __init__(self, root: Path, trace_dir: Path, env: dict) -> None:
        self.root = root
        self.trace_dir = trace_dir
        self.env = env
        self.child_traces: list[Path] = []

    def invoke(self, args: list[str], traced: bool):
        if traced:
            out = self.trace_dir / f"child-{len(self.child_traces)}.json"
            self.child_traces.append(out)
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(out), *args]
        else:
            cmd = [sys.executable, "-m", "wavemult", *args]
        proc = run_child(cmd, 120, cwd=self.root, env=self.env)
        return proc.returncode, json.loads(proc.stdout) if proc.stdout.strip() else None

    def ops(self, rng, traced: bool = False):
        gen = I.translation_congruent_set(rng, 48)
        gen_dil = I.dilation_tiles(gen)
        B = I.two_interval_wavelet_set(rng)
        xi = I.points_in(rng, [(Fraction(1, 16), Fraction(1))], 1)[0]
        wide = I.set_text(I.symmetric_window(10))
        journe, shannon = I.CATALOG["journe"], I.CATALOG["shannon"]
        commands = [
            ("exact", ["catalog"],
             lambda j: {k: I.parse_pieces(v) for k, v in j.items()} == I.CATALOG, 0),
            ("exact", ["verify-set", "--name", "shannon"],
             lambda j: j["accepted"] is True and j["measure"] == "2 pi", 0),
            ("exact", ["verify-set", "--set", I.set_text(gen)],
             lambda j: (j["translation_congruent"] is True and j["dilation_congruent"] == gen_dil
                        and j["measure"] == "2 pi" and I.parse_pieces(j["set"]) == gen),
             0 if gen_dil else 1),
            ("exact", ["verify-set", "--set", I.set_text(B)], lambda j: j["accepted"] is True, 0),
            ("exact", ["verify-set", "--set", "[1pi,2pi)"],
             lambda j: j["accepted"] is False and j["failure_regions"] != "", 1),
            ("exact", ["verify-set", "--set", "[1pi,1pi)"], lambda j: j["error"] == "parse", 2),
            ("exact", ["sigma", "--w1", "paper_w1", "--w2", "paper_w2", "--power", "2"],
             self._check_paper_square, 1),
            ("exact", ["sigma", "--w1", "paper_w1", "--w2", "[1pi,2pi)"],
             lambda j: j["error"] == "precondition", 3),
            ("exact", ["sigma", "--w1", "shannon", "--w2", "journe"],
             lambda j: self._map_ok(j["map"], shannon, journe), 0),
            ("exact", ["dimfn", "--set", "journe", "--window", "[1/8pi,1pi)"],
             lambda j: self._step_ok(j["step_function"], journe, [(Fraction(1, 8), Fraction(1))]), 0),
            ("exact", ["dimfn", "--set", I.set_text(B), "--window", wide],
             lambda j: self._step_ok(j["step_function"], B, I.symmetric_window(10))
             and [e["value"] for e in j["step_function"]] == [1], 0),
            # The three grid sweeps are the slow sixth of the mix, where its 90th percentile falls;
            # their grids are sized so that the three take about the same time.
            ("numeric", ["dimfn", "--wavelet", "msf:journe", "--grid", "256"],
             partial(self._msf_grid_ok, journe), 0),
            ("numeric", ["dimfn", "--wavelet", "msf:paper_w1", "--grid", "256"],
             partial(self._msf_grid_ok, I.CATALOG["paper_w1"]), 0),
            ("numeric", ["dimfn", "--wavelet", "meyer", "--grid", "160"],
             lambda j: j["all_agree"] is True and len(j["records"]) == 160
             and all(r["rank"] == 1 for r in j["records"]), 0),
            ("numeric", ["multiplicity", "--wavelet", "msf:journe", "--xi", "1/12pi"],
             lambda j: j["rank"] == I.lattice_count(journe, Fraction(1, 12)), 0),
            ("numeric", ["multiplicity", "--wavelet", "meyer", "--xi", I.pi_text(xi)],
             lambda j: j["rank"] == 1 and j["truncation_exact"] is True, 0),
            ("exact", ["core-equiv", "--a", "paper_w1", "--b", "paper_w2", "--window", "[1/64pi,1pi)"],
             partial(self._regions_ok, I.CATALOG["paper_w1"], I.CATALOG["paper_w2"],
                     [(Fraction(1, 64), Fraction(1))]), 0),
            ("exact", ["core-equiv", "--a", "journe", "--b", I.set_text(B), "--window", "[1/8pi,1pi)"],
             partial(self._regions_ok, journe, B, [(Fraction(1, 8), Fraction(1))]), 1),
        ]
        commands = [(f"cli:{c[1][0]} #{j}", *c) for j, c in enumerate(commands)]
        rng.shuffle(commands)
        for label, kind, args, check, code in commands:
            yield Op(f"cli:{args[0]}", None, partial(self.invoke, args, traced),
                     partial(self._check, check, code), kind=kind, label=label)

    @staticmethod
    def _check(check, code, result) -> bool:
        got, payload = result
        return got == code and payload is not None and check(payload)

    @staticmethod
    def _map_ok(entries, w1, w2) -> bool:
        frags = [(lo, hi, I.parse_scalar(e["shift"])) for e in entries
                 for lo, hi in I.parse_pieces(e["piece"])]
        return (all(s % 2 == 0 for _, _, s in frags) and _bijection(frags, w1)
                and I.merged((lo + s, hi + s) for lo, hi, s in frags) == w2)

    @classmethod
    def _check_paper_square(cls, j) -> bool:
        w = j["witness"]
        sigma = sorted((lo, hi, I.parse_scalar(e["shift"])) for e in j["map"]
                       for lo, hi in I.parse_pieces(e["piece"]))
        return (j["in_commutant"] is False and sigma == I.PAPER_SIGMA
                and (*I.parse_pieces(w["piece"])[0], I.parse_scalar(w["shift"])) == I.PAPER_SQUARE_WITNESS)

    @staticmethod
    def _msf_grid_ok(W, j) -> bool:
        return j["all_agree"] is True and len(j["records"]) >= 256 and all(
            r["rank"] == r["exact"] == I.lattice_count(W, I.parse_scalar(r["xi_pi"])) for r in j["records"])

    @staticmethod
    def _step_ok(entries, W, window) -> bool:
        rows = [(lo, hi, e["value"]) for e in entries for lo, hi in I.parse_pieces(e["piece"])]
        return (I.merged((lo, hi) for lo, hi, _ in rows) == window
                and all(I.lattice_count(W, x) == v for lo, hi, v in rows for x in (lo, (lo + hi) / 2)))

    @staticmethod
    def _regions_ok(A, B, window, j) -> bool:
        pieces = I.parse_pieces(j["differing_regions"])
        cells = I.merged(pieces + window)
        probes = [lo for lo, _ in pieces] + [(lo + hi) / 2 for lo, hi in pieces + window]
        return (cells == window and j["core_equivalent"] == (not pieces)
                and all(I.contains(pieces, x) == (I.lattice_count(A, x) != I.lattice_count(B, x))
                        for x in probes))
