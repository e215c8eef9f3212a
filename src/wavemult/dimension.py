"""Exact, integer-valued dimension functions of MSF wavelets.

For a wavelet set W the dimension function D at xi counts the lattice pairs
(j, k), j >= 1, with 2**j * (xi + 2*pi*k) in W.  D is a finite step function
on [-pi, pi) minus the single point 0: `dimension_function` builds it once per
set by exact indicator summation on the integer `_coordinates` of W, as every
other exact builder does, and keeps its rows on that unit; every window and
point is answered from it.  No sampling happens on this path, and values are
nonnegative integers by construction.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Optional

from . import _LAZY
from .exact import (
    PreconditionError,
    IntervalSet,
    Piecewise,
    RationalPi,
    _coordinates,
    _require_count,
    _times_pow2,
    ceil_log2,
    cover,
)
from .wavelet_sets import CACHE_SIZE, _fold, _require_wavelet_set

__all__ = list(_LAZY["dimension"])


class StepFunction(Piecewise):
    """Integer-valued step function on its domain, in canonical form.

    Canonical as a `Piecewise` with nonnegative integer values, so equality
    of step functions is equality of dataclasses.
    """

    @classmethod
    def _rows(cls, triples: list) -> list[list]:
        if any(value < 0 for _, _, value in triples):
            raise ValueError("step function values must be nonnegative")
        return super()._rows(triples)

    def constant_value(self) -> Optional[int]:
        values = {value for *_, value in self._on_unit()[1]}
        return values.pop() if len(values) == 1 else None


@lru_cache(maxsize=CACHE_SIZE)
def dimension_function(W: IntervalSet) -> StepFunction:
    """Exact dimension function of W on all of [-pi, pi), built once per set.

    The k = 0 terms add 1 off U, the union of the dilates 2**m * W (m >= 0) in
    [-pi, pi): dyadic tiling gives each xi != 0 one j with 2**j * xi in W, and
    j >= 1 exactly off U.  The k != 0 terms come from the finitely many
    translates 2**-j * W - 2*pi*k with 2**j < max |W| that meet [-pi, pi).  One
    `cover` of the window (weight 1), the dilates that make up U, clipped to the
    window and disjoint by dilation congruence (weight -1), and the translates
    (weight 1) gives the rows of D as its runs.  At 0 the function takes its right
    limit, one more than the lattice count there, which has no k = 0 term.
    """
    _require_wavelet_set(W)
    top = ceil_log2(W.max_abs().coef)  # the unit holds 2**(top - 1): each level below is a shift
    unit, pairs = _coordinates(W.coefs, max(0, top - 1))
    items = [(-unit, unit, 1)]
    for lo, hi in pairs:
        near = lo if lo > 0 else -hi
        if hi - lo == near and near < unit:  # a whole octave: its dilates fill [lo, pi) or [-pi, hi)
            items.append((lo, unit, -1) if lo > 0 else (-unit, hi, -1))
        else:  # a shorter piece (none spans more): its dilates that start below pi, clipped to the window
            items += [(max(_times_pow2(lo, m), -unit), min(_times_pow2(hi, m), unit), -1)
                      for m in range(ceil_log2(unit, near))]
    # The levels with 2**j < max |W|, folded into [-pi, pi); shift -2*pi*k, k != 0.  W has
    # measure 2*pi, so each piece of 2**-j * W is at most pi long and meets at most two
    # 2*pi cells: the fold's three-fragment cap never binds here.
    pieces = [(_times_pow2(lo, -j), _times_pow2(hi, -j)) for j in range(1, top) for lo, hi in pairs]
    items += [(lo + s, hi + s, 1) for lo, hi, s in _fold(pieces, unit) if s]
    return StepFunction._on(unit, cover(items))


def dimension_step_function(W: IntervalSet, query: IntervalSet) -> StepFunction:
    """Exact dimension function of W on a query window inside [-pi, pi) that keeps 0
    outside its closure: the restriction of `dimension_function(W)`.

    W, then the query, is checked before that function is built: the query's first start
    and last end, its first and last coefficients, must lie in [-pi, pi], the closure of
    that function's domain.  Its rows are sorted and disjoint and cover [-pi, pi), so each
    query piece finds the rows it meets by bisection on their starts and clips them: sorted,
    disjoint `Fraction` rows over unit 1, no two of one value touching, which need no
    construction rule.
    """
    _require_wavelet_set(W)
    if query.coefs and not (-1 <= query.coefs[0][0] and query.coefs[-1][1] <= 1):
        raise PreconditionError("query window must lie inside [-pi, pi)")
    if query.zero_in_closure():
        raise PreconditionError("query window must stay away from 0")
    rows, start, cut = dimension_function(W).coefs, itemgetter(0), []
    for a, b in query.coefs:
        for c, d, value in rows[bisect_right(rows, a, key=start) - 1:bisect_left(rows, b, key=start)]:
            cut.append((max(a, c), min(b, d), value))
    return StepFunction._on(1, cut)


def dimension_values(W: IntervalSet, points: Iterable[RationalPi]) -> list[int]:
    """Count of (j, k) with j >= 1 and 2**j * (xi + 2*pi*k) in W, at each point xi.

    Each count is read by one bisection of the row starts of `dimension_function(W)`,
    which tile [-pi, pi), so every point lands in a row.  On int starts over the rows'
    unit a point n / d takes the key n * unit // d: an int start c is at most n * unit / d
    exactly when it is at most that floor.  Past the coordinate budget the starts after
    the first are Fractions and the key is the point's own coefficient.  The range checks
    compare numerators and denominators.  Every xi must lie in [-pi, pi) and differ
    from 0, where that function holds its right limit; a point that does not raises
    before that function is built, after W's own check.  The points may be any
    iterable; they are read once.
    """
    points = list(points)
    fractions = [(xi.coef.numerator, xi.coef.denominator) for xi in points]
    bad = next((n for n, d in fractions if not (n and -d <= n < d)), None)
    if bad is not None:
        _require_wavelet_set(W)
        raise PreconditionError("xi must lie in [-pi, pi)" if bad else "the dimension function is not evaluated at 0")
    if not points:
        return []
    unit, rows = dimension_function(W)._on_unit()
    starts = [lo for lo, _, _ in rows]
    if all(type(c) is int for c in starts):
        keys = [n * unit // d for n, d in fractions]
    else:
        keys = [xi.coef for xi in points]
    return [rows[bisect_right(starts, key) - 1][2] for key in keys]


@dataclass(frozen=True)
class DimensionIntegral:
    """Integral of D over [-pi, pi) (`limit`) and partial sums of sum_j 2**-j * |W| = |W|."""

    limit: RationalPi
    partial_sums: tuple[RationalPi, ...]


def dimension_integral(W: IntervalSet, terms: int = 30) -> DimensionIntegral:
    """Exact integral of `dimension_function(W)` from its coordinate rows (2*pi for a wavelet
    set), and the exact partial sums sum_{j <= terms} 2**-j * |W|, converging to |W|, for
    `terms` in 1..1024: the denominators grow to `terms` bits, so the cost grows as its square."""
    terms = _require_count("terms", terms, 1024)
    unit, rows = dimension_function(W)._on_unit()
    limit = Fraction(sum((hi - lo) * value for lo, hi, value in rows), unit)
    mu = W.measure().coef
    partials = tuple(RationalPi(mu - mu / 2**j) for j in range(1, terms + 1))
    return DimensionIntegral(RationalPi(limit), partials)


def core_equivalence_regions(
    Wa: IntervalSet, Wb: IntervalSet, query: IntervalSet
) -> IntervalSet:
    """Subregion of the query where the two dimension functions differ."""
    fa, fb = dimension_step_function(Wa, query), dimension_step_function(Wb, query)
    # Both functions partition the query, so over the query the total is the difference of
    # their values, and 0 off it.
    items = [*fa._on_unit()[1], *[(lo, hi, -value) for lo, hi, value in fb._on_unit()[1]]]
    return IntervalSet.from_cells((lo, hi) for lo, hi, total in cover(items) if total)


def mra_consistent(W: IntervalSet) -> bool:
    """Is W the wavelet set of an MRA wavelet?  Exactly when its dimension function
    is 1 almost everywhere (Gripenberg 1995; X. Wang 1995), here on all of [-pi, pi)."""
    return dimension_function(W).constant_value() == 1


# Largest grid size `midpoint_grid` and `multiplicity.uniform_grid` accept.
MAX_GRID = 1 << 16


def midpoint_grid(W: IntervalSet, window: IntervalSet, count: int) -> list[RationalPi]:
    """At least `count` exact points avoiding the breakpoints of W's dimension function.

    Each row of the exact step function on the window is subdivided evenly
    and the midpoints of the cells are returned, so no point can sit on a
    breakpoint.
    """
    count = _require_count("grid size", count, MAX_GRID)  # before the step function is built
    rows = dimension_step_function(W, window)._on_unit()[1]
    per_row = -(-count // len(rows)) if rows else 0
    points = []
    for lo, hi, _ in rows:
        half = (hi - lo) / (2 * per_row)
        points += [RationalPi(lo + half * (2 * i + 1)) for i in range(per_row)]
    return points
