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
from typing import Optional, Sequence

from .exact import (
    MINUS_PI,
    PI,
    TWO_PI,
    PreconditionError,
    Interval,
    IntervalSet,
    RationalPi,
    group_by_value,
    sweep,
)
from .wavelet_sets import PRINCIPAL_WINDOW, _require_wavelet_set

__all__ = [
    "StepFunction",
    "DimensionIntegral",
    "dimension_at",
    "dimension_step_function",
    "dimension_integral",
    "core_equivalent_exact",
    "core_equivalence_regions",
    "mra_consistent",
    "midpoint_grid",
]


@dataclass(frozen=True)
class StepFunction:
    """Integer-valued step function on a window, in canonical form.

    Pairs are grouped by value (each value appears once, its region a
    canonical IntervalSet) and ordered by value; the regions partition the
    window exactly, so equality of step functions is equality of dataclasses.
    """

    window: IntervalSet
    pairs: tuple[tuple[IntervalSet, int], ...]

    def __post_init__(self) -> None:
        if any(value < 0 for piece, value in self.pairs if not piece.is_empty):
            raise ValueError("step function values must be nonnegative")
        pairs, union = group_by_value((piece, int(value)) for piece, value in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        if union != self.window:
            raise ValueError("step function pieces must partition the window")

    def value_at(self, x: RationalPi) -> int:
        for piece, value in self.pairs:
            if piece.contains(x):
                return value
        raise PreconditionError(f"{x} lies outside the step-function window")

    def rows(self) -> list[tuple[Interval, int]]:
        """Breakpoint rows (interval, value) ordered by left endpoint."""
        rows = [(iv, value) for piece, value in self.pairs for iv in piece]
        rows.sort(key=lambda row: row[0].lo.coef)
        return rows

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

    def to_json_obj(self) -> list[dict]:
        return [
            {"piece": piece.to_text(), "value": value} for piece, value in self.pairs
        ]

    def to_csv_rows(self) -> list[dict]:
        return [
            {
                "lo_pi_num": iv.lo.num,
                "lo_pi_den": iv.lo.den,
                "hi_pi_num": iv.hi.num,
                "hi_pi_den": iv.hi.den,
                "value": value,
            }
            for iv, value in self.rows()
        ]


def _step_from_covers(window: IntervalSet, covers: Sequence[IntervalSet]) -> StepFunction:
    """Sum of the indicator functions of `covers`, as a step function on `window`.

    One sweep over the window pieces (tagged True) and the cover pieces
    (tagged False); inside the window the value is the count less one.
    """
    items = [(iv.lo.coef, iv.hi.coef, True) for iv in window]
    items += [(iv.lo.coef, iv.hi.coef, False) for s in covers for iv in s]
    grouped: dict[int, list[Interval]] = {}
    for lo, hi, count, tags in sweep(items):
        if True in tags:
            grouped.setdefault(count - 1, []).append(Interval(RationalPi(lo), RationalPi(hi)))
    return StepFunction(
        window,
        tuple((IntervalSet.from_intervals(ivs), v) for v, ivs in grouped.items()),
    )


def dimension_at(W: IntervalSet, xi: RationalPi) -> int:
    """Count of (j, k) with j >= 1 and 2**j * (xi + 2*pi*k) in W.

    xi must lie in [-pi, pi) and differ from 0 (breakpoints accumulate at 0,
    so the value there is not defined by a finite computation).
    """
    _require_wavelet_set(W)
    if not (MINUS_PI <= xi < PI):
        raise PreconditionError("xi must lie in [-pi, pi)")
    if xi.is_zero:
        raise PreconditionError("the dimension function is not evaluated at 0")
    radius = W.max_abs()
    k_max = math.floor((radius.coef + 2) / 4)
    count = 0
    for k in range(-k_max, k_max + 1):
        base = xi + TWO_PI * k
        if base.is_zero:
            continue
        y = base.times_pow2(1)
        while abs(y) <= radius:
            if W.contains(y):
                count += 1
            y = y.times_pow2(1)
    return count


def _hit_sets(W: IntervalSet, query: IntervalSet) -> list[IntervalSet]:
    """All nonempty sets (2**-j * W - 2*pi*k) meet query, for j >= 1."""
    eps = query.dist_zero()
    hits = []
    j = 1
    while True:
        scaled = W.dilate(-j)
        radius = scaled.max_abs()
        if radius < eps:
            break
        k_max = math.floor((radius.coef + 1) / 2)
        for k in range(-k_max, k_max + 1):
            hit = scaled.translate(TWO_PI * (-k)).intersect(query)
            if not hit.is_empty:
                hits.append(hit)
        j += 1
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
    rows = ((iv.lo.coef, iv.hi.coef, value)
            for f in (fa, fb) for piece, value in f.pairs for iv in piece)
    return IntervalSet.from_intervals(Interval(RationalPi(lo), RationalPi(hi))
                                      for lo, hi, _, values in sweep(rows) if len(values) == 2)


def mra_consistent(W: IntervalSet, depth: int = 10) -> bool:
    """Constant-1 dimension function on [pi/2**depth, pi) and its mirror."""
    edge = RationalPi(Fraction(1, 2**depth))
    window = IntervalSet.from_intervals(
        [Interval(MINUS_PI, -edge), Interval(edge, PI)]
    )
    return dimension_step_function(W, window).constant_value() == 1


def midpoint_grid(W: IntervalSet, window: IntervalSet, count: int) -> list[RationalPi]:
    """At least `count` exact points avoiding the breakpoints of W's dimension function.

    Each constant piece of the exact step function is subdivided evenly and
    the midpoints of the cells are returned, so no point can sit on a
    breakpoint.
    """
    if count < 1:
        raise PreconditionError(f"grid size must be at least 1, got {count}")
    rows = dimension_step_function(W, window).rows()
    if not rows:
        return []
    per_row = -(-count // len(rows))
    points = []
    for iv, _ in rows:
        width = iv.length / per_row
        for i in range(per_row):
            points.append(iv.lo + width * i + width / 2)
    return points
