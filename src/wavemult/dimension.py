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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional

from . import _LAZY
from .exact import (
    PreconditionError,
    IntervalSet,
    Piecewise,
    RationalPi,
    _coordinates,
    _times_pow2,
    ceil_log2,
    merge_cells,
    sweep,
)
from .wavelet_sets import CACHE_SIZE, _fold, _require_wavelet_set

__all__ = list(_LAZY["dimension"])


class StepFunction(Piecewise):
    """Integer-valued step function on its domain, in canonical form.

    Canonical as a `Piecewise` with nonnegative integer values, so equality
    of step functions is equality of dataclasses.
    """

    def _build(self, triples: list) -> None:
        if any(value < 0 for _, _, value in triples):
            raise ValueError("step function values must be nonnegative")
        super()._build(triples)

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
    sweep over the window (tag 0), U (tag 1) and the translates (tag 2) gives
    each cell the value count - 2 * [cell in U].  At 0 the function takes its
    right limit, one more than the lattice count there, which has no k = 0 term.
    """
    _require_wavelet_set(W)
    top = ceil_log2(W.max_abs().coef)  # the unit holds 2**(top - 1): each level below is a shift
    unit, pairs = _coordinates(W.coefs, max(0, top - 1))
    items = [(-unit, unit, 0)]
    for lo, hi in pairs:
        near = lo if lo > 0 else -hi
        if hi - lo == near and near < unit:  # a whole octave: its dilates fill [lo, pi) or [-pi, hi)
            items.append((lo, unit, 1) if lo > 0 else (-unit, hi, 1))
        else:  # a shorter piece (none spans more): its dilates that start below pi
            items += [(_times_pow2(lo, m), _times_pow2(hi, m), 1) for m in range(ceil_log2(unit, near))]
    # The levels with 2**j < max |W|, folded into [-pi, pi); shift -2*pi*k, k != 0.  W has
    # measure 2*pi, so each piece of 2**-j * W is at most pi long and meets at most two
    # 2*pi cells: the fold's three-fragment cap never binds here.
    pieces = [(_times_pow2(lo, -j), _times_pow2(hi, -j)) for j in range(1, top) for lo, hi in pairs]
    items += [(lo + s, hi + s, 2) for lo, hi, s in _fold(pieces, unit) if s]
    # The cells come sorted and disjoint, and count at least 2 where tag 1 is among their tags.
    cells = merge_cells((lo, hi, count - 2 * (1 in tags)) for lo, hi, count, tags in sweep(items) if 0 in tags)
    return StepFunction._on(unit, cells, [(pairs, W.coefs)])


def dimension_step_function(W: IntervalSet, query: IntervalSet) -> StepFunction:
    """Exact dimension function of W on a query window inside [-pi, pi) that keeps 0
    outside its closure: the restriction of `dimension_function(W)`.

    W, then the query, is checked before that function is built: the query's first start
    and last end, its first and last coefficients, must lie in [-pi, pi], the closure of
    that function's domain.  One sweep over the query (tag -1) and its rows, whose values
    are nonnegative, then gives each query cell its row's value: sorted, disjoint
    `Fraction` rows over unit 1, which need no construction rule.
    """
    _require_wavelet_set(W)
    if query.coefs and not (-1 <= query.coefs[0][0] and query.coefs[-1][1] <= 1):
        raise PreconditionError("query window must lie inside [-pi, pi)")
    if query.zero_in_closure():
        raise PreconditionError("query window must stay away from 0")
    items = [(lo, hi, -1) for lo, hi in query.coefs] + list(dimension_function(W).coefs)
    return StepFunction._on(1, merge_cells((lo, hi, max(tags)) for lo, hi, _, tags in sweep(items) if -1 in tags))


def dimension_values(W: IntervalSet, points: Iterable[RationalPi]) -> list[int]:
    """Count of (j, k) with j >= 1 and 2**j * (xi + 2*pi*k) in W, at each point xi.

    The counts come from one walk over the int rows of `dimension_function(W)` in the
    order of the points, sorted first if they do not ascend; the range checks compare
    numerators and denominators, the walk a row end c over the rows' unit with a point
    n / d as c * d against n * unit.  Every xi must
    lie in [-pi, pi) and differ from 0, where that function holds its right limit; a
    point that does not raises before that function is built, after W's own check.
    The points may be any iterable; they are read once.
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
    order = range(len(points))
    if any(a * d > c * b for (a, b), (c, d) in zip(fractions, fractions[1:])):
        order = sorted(order, key=lambda index: points[index].coef)
    last, i = len(rows) - 1, 0
    values, missing = [0] * len(points), []
    for index in order:
        n, d = fractions[index]
        n *= unit
        while i < last and rows[i][1] * d <= n:  # row i ends at or before the point
            i += 1
        lo, hi, value = rows[i]
        if lo * d <= n < hi * d:
            values[index] = value
        else:
            missing.append(index)
    if missing:
        raise PreconditionError(f"{points[min(missing)]} lies outside the domain")
    return values


@dataclass(frozen=True)
class DimensionIntegral:
    """Integral of D over [-pi, pi) (`limit`) and partial sums of sum_j 2**-j * |W| = |W|."""

    limit: RationalPi
    partial_sums: tuple[RationalPi, ...]


def dimension_integral(W: IntervalSet, terms: int = 30) -> DimensionIntegral:
    """Exact integral of `dimension_function(W)` from its coordinate rows (2*pi for a wavelet
    set), and the exact partial sums sum_{j <= terms} 2**-j * |W|, converging to |W|, for
    `terms` in 1..1024: the denominators grow to `terms` bits, so the cost grows as its square."""
    if not 1 <= terms <= 1024:
        raise PreconditionError(f"terms must lie in 1..1024, got {terms}")
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
    # Both functions partition the query, so every cell lies under one row of
    # each; its distinct tags (the row values) are two exactly where they differ.
    rows = (row for f in (fa, fb) for row in f._on_unit()[1])
    return IntervalSet.from_cells((lo, hi) for lo, hi, _, values in sweep(rows) if len(values) == 2)


def mra_consistent(W: IntervalSet) -> bool:
    """Is W the wavelet set of an MRA wavelet?  Exactly when its dimension function
    is 1 almost everywhere (Gripenberg 1995; X. Wang 1995), here on all of [-pi, pi)."""
    return dimension_function(W).constant_value() == 1


# Largest grid size `midpoint_grid` and `multiplicity.uniform_grid` accept.
MAX_GRID = 1 << 16


def _require_grid_size(count: int) -> None:
    if not 1 <= count <= MAX_GRID:
        raise PreconditionError(f"grid size must lie in 1..{MAX_GRID}, got {count}")


def midpoint_grid(W: IntervalSet, window: IntervalSet, count: int) -> list[RationalPi]:
    """At least `count` exact points avoiding the breakpoints of W's dimension function.

    Each row of the exact step function on the window is subdivided evenly
    and the midpoints of the cells are returned, so no point can sit on a
    breakpoint.
    """
    _require_grid_size(count)  # before the step function is built
    rows = dimension_step_function(W, window)._on_unit()[1]
    per_row = -(-count // len(rows)) if rows else 0
    points = []
    for lo, hi, _ in rows:
        half = (hi - lo) / (2 * per_row)
        points += [RationalPi(lo + half * (2 * i + 1)) for i in range(per_row)]
    return points
