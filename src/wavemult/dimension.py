"""Exact, integer-valued dimension functions of MSF wavelets.

For a wavelet set W the dimension function at xi counts the lattice pairs
(j, k), j >= 1, with 2**j * (xi + 2*pi*k) in W.  On a query window bounded
away from 0 the count is a finite step function, computed here by exact
indicator summation; no sampling happens anywhere on this path.  Values are
nonnegative integers by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .exact import (
    MINUS_PI,
    PI,
    PreconditionError,
    Interval,
    IntervalSet,
    Piecewise,
    RationalPi,
    ceil_log2,
    merge_cells,
    sweep,
)
from .wavelet_sets import PRINCIPAL_WINDOW, _require_wavelet_set

__all__ = [
    "StepFunction",
    "DimensionIntegral",
    "dimension_step_function",
    "dimension_values",
    "dimension_integral",
    "core_equivalent_exact",
    "core_equivalence_regions",
    "mra_consistent",
    "midpoint_grid",
]


@dataclass(frozen=True)
class StepFunction(Piecewise):
    """Integer-valued step function on a window, in canonical form.

    Canonical as a `Piecewise` with nonnegative integer values whose pieces
    partition the window exactly, so equality of step functions is equality
    of dataclasses.
    """

    window: IntervalSet
    pairs: tuple[tuple[IntervalSet, int], ...]

    OVERLAP_ERROR = "step function pieces must partition the window"

    _tag = int

    def _build(self, triples: list) -> None:
        if any(value < 0 for _, _, value in triples):
            raise ValueError("step function values must be nonnegative")
        super()._build(triples)
        if self.domain != self.window:
            raise ValueError(self.OVERLAP_ERROR)

    def restrict(self, sub: IntervalSet) -> "StepFunction":
        if not sub.subset_of(self.window):
            raise PreconditionError("restriction window must lie inside the window")
        return StepFunction(
            sub, tuple((piece.intersect(sub), value) for piece, value in self.pairs)
        )

    @property
    def max_value(self) -> int:
        return max((value for _, value in self.pairs), default=0)

    def constant_value(self) -> Optional[int]:
        return self.pairs[0][1] if len(self.pairs) == 1 else None

    def midpoint_grid(self, count: int) -> list[RationalPi]:
        """At least `count` exact points off the breakpoints: each row is
        subdivided evenly and the midpoints of its cells are returned."""
        _require_grid_size(count)
        rows = self.rows()
        if not rows:
            return []
        per_row = -(-count // len(rows))
        points = []
        for iv, _ in rows:
            width = iv.length / per_row
            for i in range(per_row):
                points.append(iv.lo + width * i + width / 2)
        return points


def _step_from_covers(window: IntervalSet, covers: Iterable[tuple]) -> StepFunction:
    """Sum of the indicators of the covers, coefficient pairs (lo, hi), as a step function
    on `window`: one sweep over the window pieces (tagged True) and the covers (tagged
    False); inside the window the value is the count less one."""
    items = [(iv.lo.coef, iv.hi.coef, True) for iv in window]
    items += [(lo, hi, False) for lo, hi in covers]
    return StepFunction.from_triples(merge_cells(
        (lo, hi, count - 1) for lo, hi, count, tags in sweep(items) if True in tags), window=window)


def _hit_sets(W: IntervalSet, query: IntervalSet) -> list[tuple]:
    """Pieces (lo, hi) of the translates 2**-j * W - 2*pi*k, j >= 1, that can meet the query,
    uncut (`_step_from_covers` keeps only the cells inside the query)."""
    eps = query.dist_zero().coef
    radius = W.max_abs().coef
    pieces = [(iv.lo.coef, iv.hi.coef) for iv in W]
    hits = []
    scale = Fraction(1, 2)
    while radius * scale >= eps:
        k_max = math.floor((radius * scale + 1) / 2)
        scaled = [(lo * scale, hi * scale) for lo, hi in pieces]
        hits += [(lo - 2 * k, hi - 2 * k) for k in range(-k_max, k_max + 1) for lo, hi in scaled]
        scale /= 2
    return hits


def dimension_step_function(W: IntervalSet, query: IntervalSet) -> StepFunction:
    """Exact dimension function of W on a query window inside [-pi, pi).

    The query must keep 0 outside its closure so that only finitely many
    (j, k) contribute.
    """
    _require_wavelet_set(W)
    if query.is_empty:
        return StepFunction(query, ())
    if not query.subset_of(PRINCIPAL_WINDOW):
        raise PreconditionError("query window must lie inside [-pi, pi)")
    if query.zero_in_closure():
        raise PreconditionError("query window must stay away from 0")
    return _step_from_covers(query, _hit_sets(W, query))


def _punctured_window(edge: RationalPi) -> IntervalSet:
    """[-pi, -edge) u [edge, pi)."""
    return IntervalSet.from_intervals([Interval(MINUS_PI, -edge), Interval(edge, PI)])


def dimension_values(W: IntervalSet, points: Sequence[RationalPi]) -> list[int]:
    """Count of (j, k) with j >= 1 and 2**j * (xi + 2*pi*k) in W, at each point xi.

    Every xi must lie in [-pi, pi) and differ from 0 (breakpoints accumulate
    at 0, so the value there is not defined by a finite computation).  The
    counts are read from one step function on [-pi, -e) u [e, pi), where e is
    the largest power of two times pi below every |xi|.
    """
    if not points:
        return []
    _require_wavelet_set(W)
    for xi in points:
        if not (MINUS_PI <= xi < PI):
            raise PreconditionError("xi must lie in [-pi, pi)")
        if xi.is_zero:
            raise PreconditionError("the dimension function is not evaluated at 0")
    edge = PI.times_pow2(ceil_log2(min(abs(xi.coef) for xi in points)) - 1)
    step = dimension_step_function(W, _punctured_window(edge))
    return [step.value_at(xi) for xi in points]


@dataclass(frozen=True)
class DimensionIntegral:
    """Partial sums of the integral identity sum_j 2**-j * |W| = |W|."""

    limit: RationalPi
    partial_sums: tuple[RationalPi, ...]


def dimension_integral(W: IntervalSet, terms: int = 30) -> DimensionIntegral:
    """Exact partial sums converging to the total mass |W| (= 2*pi when accepted)."""
    _require_wavelet_set(W)
    mu = W.measure().coef
    acc = Fraction(0)
    partials = []
    for j in range(1, terms + 1):
        acc += mu / 2**j
        partials.append(RationalPi(acc))
    return DimensionIntegral(RationalPi(mu), tuple(partials))


def core_equivalent_exact(Wa: IntervalSet, Wb: IntervalSet, query: IntervalSet) -> bool:
    """True iff the two exact dimension functions agree on the query window."""
    return dimension_step_function(Wa, query) == dimension_step_function(Wb, query)


def core_equivalence_regions(
    Wa: IntervalSet, Wb: IntervalSet, query: IntervalSet
) -> IntervalSet:
    """Subregion of the query where the two dimension functions differ."""
    fa, fb = dimension_step_function(Wa, query), dimension_step_function(Wb, query)
    # Both functions partition the query, so every cell lies under one row of
    # each; its distinct tags (the row values) are two exactly where they differ.
    rows = ((iv.lo.coef, iv.hi.coef, value) for f in (fa, fb) for iv, value in f.rows())
    return IntervalSet.from_cells((lo, hi) for lo, hi, _, values in sweep(rows) if len(values) == 2)


def mra_consistent(W: IntervalSet, depth: int = 10) -> bool:
    """Constant-1 dimension function on [pi/2**depth, pi) and its mirror (depth >= 1)."""
    if depth < 1:
        raise PreconditionError(f"depth must be at least 1, got {depth}")
    window = _punctured_window(PI.times_pow2(-depth))
    return dimension_step_function(W, window).constant_value() == 1


# Largest grid size `midpoint_grid` and `multiplicity.uniform_grid` accept.
MAX_GRID = 1 << 16


def _require_grid_size(count: int) -> None:
    if not 1 <= count <= MAX_GRID:
        raise PreconditionError(f"grid size must lie in 1..{MAX_GRID}, got {count}")


def midpoint_grid(W: IntervalSet, window: IntervalSet, count: int) -> list[RationalPi]:
    """At least `count` exact points avoiding the breakpoints of W's dimension function.

    Each constant piece of the exact step function is subdivided evenly and
    the midpoints of the cells are returned, so no point can sit on a
    breakpoint (`StepFunction.midpoint_grid`).
    """
    _require_grid_size(count)  # before the step function is built
    return dimension_step_function(W, window).midpoint_grid(count)
