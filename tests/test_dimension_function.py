"""The whole-circle dimension function against the windowed reference, and its identities.

`dimension_function(W)` builds D once on [-pi, pi) and every window is a
restriction of it.  The reference in `tests/_oracles.py` builds D on the
window alone from every translate 2**-j * W - 2*pi*k deep enough to reach
it.  On the whole circle D must integrate to 2*pi, satisfy the consistency
equation D(xi) + D(xi + pi) = D(2 xi) + 1 (Bownik, Rzeszotnik & Speegle 2001)
and, next to 0, equal the direct lattice count.
"""

import random
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from itertools import chain

import pytest

import _oracles
from wavemult import dimension
from wavemult.dimension import StepFunction, dimension_function, dimension_step_function, dimension_values
from wavemult.exact import Interval, IntervalSet, RationalPi, ceil_log2
from wavemult.wavelet_sets import CATALOG_NAMES, PRINCIPAL_WINDOW, _fold, catalog

from _oracles import (
    brute_dimension_count,
    coordinates_with_back,
    deep_piece_wavelet_set,
    fraction_dimension_function,
    near_zero_wavelet_set,
    random_point_in,
    two_interval_wavelet_set,
    windowed_step_function,
)

DEPTHS = (1, 3, 12, 40, 100)
SIDES = (0, 1, -1)  # both halves, the positive half, the negative half


def window(depth: int, side: int) -> IntervalSet:
    """[-pi, -pi/2**depth) u [pi/2**depth, pi), or one half of it."""
    edge = Fraction(1, 2**depth)
    ivs = [Interval(RationalPi(edge), RationalPi(1)), Interval(RationalPi(-1), RationalPi(-edge))]
    return IntervalSet.from_intervals(ivs if side == 0 else ivs[side < 0:][:1])


DEEP_PIECE = [(2, 2), (3, 5), (12, 12), (20, 3), (40, 64), (100, 7)]


def two_interval_sets(seed: int, count: int) -> list[IntervalSet]:
    rng = random.Random(seed)
    return [two_interval_wavelet_set(rng) for _ in range(count)]


class TestAgainstTheWindowedReference:
    @pytest.mark.parametrize("W", [catalog(name) for name in CATALOG_NAMES]
                             + [deep_piece_wavelet_set(n, t) for n, t in DEEP_PIECE],
                             ids=[*CATALOG_NAMES, *(f"deep_piece{p}" for p in DEEP_PIECE)])
    def test_every_window(self, W):
        for depth in DEPTHS:
            for side in SIDES:
                query = window(depth, side)
                assert dimension_step_function(W, query) == windowed_step_function(W, query)

    @pytest.mark.parametrize("n", range(65))
    def test_near_zero_sets(self, n):
        W = near_zero_wavelet_set(n)
        for depth in (1, n + 3, 100):
            for side in SIDES:
                query = window(depth, side)
                assert dimension_step_function(W, query) == windowed_step_function(W, query)

    def test_seeded_two_interval_sets(self):
        rng = random.Random(12)
        for W in two_interval_sets(1200, 200):
            query = window(rng.choice(DEPTHS), rng.choice(SIDES))
            assert dimension_step_function(W, query) == windowed_step_function(W, query), W


def wrap(x: Fraction) -> Fraction:
    """x moved by a multiple of 2 into [-1, 1) (coefficients of pi)."""
    return (x + 1) % 2 - 1


def check_identities(W: IntervalSet, rng: random.Random, points: int = 8, k_max: int = 1000) -> None:
    D = dimension_function(W)
    rows = D.rows()
    assert D.domain == PRINCIPAL_WINDOW
    assert sum((iv.hi.coef - iv.lo.coef) * value for iv, value in rows) == 2, W

    # Consistency equation, at row starts and seeded points; it fails only where an
    # argument is 0 (xi = 0 or -pi), since D(0) is the right limit, not a finite count.
    xs = [iv.lo.coef for iv, _ in rows]
    xs += [random_point_in(rng, PRINCIPAL_WINDOW, 2**16).coef for _ in range(points)]
    for x in xs:
        if x in (0, -1):
            continue
        here, shifted, doubled = (D.value_at(RationalPi(wrap(y))) for y in (x, x + 1, 2 * x))
        assert here + shifted == doubled + 1, (W, x)

    # The rows next to 0 against the direct count at +-pi/2**k inside them, and at 0 the
    # right limit, one more than the count (no k = 0 term).  Every set here has
    # max |W| < 8 pi, so only |k| <= 1 and j < k + 3 can contribute at +-pi/2**k,
    # and only |k| <= 2 and j <= 2 at 0.
    left_iv, left = next(row for row in rows if row[0].lo.coef < 0 <= row[0].hi.coef)
    right_iv, right = next(row for row in rows if row[0].lo.coef <= 0 < row[0].hi.coef)
    zero = RationalPi(0)
    assert D.value_at(zero) == right == brute_dimension_count(W, zero, j_cap=3, k_cap=2) + 1
    reach = min(-left_iv.lo.coef, right_iv.hi.coef)
    first = 1
    while Fraction(1, 2**first) >= reach:
        first += 1
    k = rng.randint(first, max(first, k_max))
    xi = RationalPi(Fraction(1, 2**k))
    assert xi.coef < reach
    assert brute_dimension_count(W, xi, j_cap=k + 3, k_cap=1) == right, (W, k)
    assert brute_dimension_count(W, -xi, j_cap=k + 3, k_cap=1) == left, (W, k)


class TestWholeCircleIdentities:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_catalog(self, name):
        check_identities(catalog(name), random.Random(name), points=200)

    @pytest.mark.parametrize("n", [*range(65), 1000, 13000])
    def test_near_zero_sets(self, n):
        check_identities(near_zero_wavelet_set(n), random.Random(n))

    @pytest.mark.parametrize("n,t", DEEP_PIECE)
    def test_deep_piece_sets(self, n, t):
        check_identities(deep_piece_wavelet_set(n, t), random.Random(n * t), points=100)

    @pytest.mark.parametrize("block", range(10))
    def test_seeded_two_interval_sets(self, block):
        rng = random.Random(block)
        for i, W in enumerate(two_interval_sets(2000 + block, 100)):
            check_identities(W, rng, k_max=1000 if i % 10 == 0 else 64)


FOLD_SETS = [catalog(name) for name in CATALOG_NAMES]
FOLD_SETS += [near_zero_wavelet_set(n) for n in range(65)]
FOLD_SETS += [deep_piece_wavelet_set(n, t) for n in (2, 3, 5, 12) for t in (2, 4, 12)]
FOLD_SETS += two_interval_sets(3000, 300)


def test_the_fold_cap_never_binds_on_the_translates():
    """Each piece of 2**-j * W (j >= 1) is at most pi long, so the fold into [-pi, pi)
    cuts it into at most two fragments, and they make up the whole piece: the cap of
    three, meant for hostile tiling inputs, never drops a translate of D."""
    for W in FOLD_SETS:
        for j in range(1, ceil_log2(W.max_abs().coef)):
            for iv in W:
                lo, hi = iv.lo.coef / 2**j, iv.hi.coef / 2**j
                fragments = _fold([(lo, hi)], Fraction(1))
                assert len(fragments) <= 2, (W, j)
                ends = [lo] + [b for _, b, _ in fragments]
                assert [(a, b) for a, b, _ in fragments] == list(zip(ends, ends[1:])), (W, j)
                assert ends[-1] == hi, (W, j)


# Each family with the side of the `COORD_BITS` budget that `_coordinates` puts it on:
# near_zero_wavelet_set(n) has an (n + 3)-bit unit and deep_piece_wavelet_set(n, n) a
# (2n + 1)-bit one.
FRACTION_BUILD_FAMILIES = {
    "catalog": (lambda: [catalog(name) for name in CATALOG_NAMES], "int"),
    "two-interval": (lambda: two_interval_sets(2100, 20), "int"),
    "deep-piece": (lambda: [deep_piece_wavelet_set(n, t) for n, t in DEEP_PIECE], "int"),
    "near-zero up to 1000": (lambda: [near_zero_wavelet_set(n) for n in (0, 1, 5, 30, 1000)], "int"),
    "near-zero 10000": (lambda: [near_zero_wavelet_set(10000)], "Fraction"),
    "deep-piece 400": (lambda: [deep_piece_wavelet_set(400, 400)], "int"),
    "deep-piece 1600": (lambda: [deep_piece_wavelet_set(1600, 1600)], "Fraction"),
}


@pytest.mark.parametrize("family", FRACTION_BUILD_FAMILIES)
def test_the_same_rows_as_the_fraction_build(monkeypatch, family):
    """`dimension_function` on the `_coordinates` of W, whose unit holds 2**(top - 1) for
    2**top >= max |W|, against the Fraction build it replaced: the same rows, from the same
    items scaled by the unit (the whole-octave shortcut, the dilate range and the levels all
    show in the items).  The build's `cover` weighs what the tagged sweep tagged: the window
    (tag 0) and the translates (tag 2) 1, and the dilates (tag 1) -1, clipped to [-pi, pi).
    Past the budget the unit is 1 and the coordinates are the coefficients themselves."""
    make, side = FRACTION_BUILD_FAMILIES[family]
    swept = {}
    for module, name in ((dimension, "cover"), (_oracles, "tagged_sweep")):
        def recording(items, module=module, walk=getattr(module, name)):
            swept[module] = list(items)
            return walk(swept[module])

        monkeypatch.setattr(module, name, recording)
    for W in make():
        unit, coords, coef = coordinates_with_back(W.coefs, max(0, ceil_log2(W.max_abs().coef) - 1))
        ints = all(type(x) is int for x in chain.from_iterable(coords))
        assert ("int" if ints else "Fraction") == side and (ints or unit == 1), (W, unit)
        got = dimension_function.__wrapped__(W)
        assert got.coefs == fraction_dimension_function(W).coefs, W
        items = [(coef(lo), coef(hi), weight) for lo, hi, weight in swept[dimension]]
        weights = {0: 1, 1: -1, 2: 1}
        assert items == [(max(lo, -1), min(hi, 1), weights[tag]) for lo, hi, tag in swept[_oracles]], W


@pytest.mark.parametrize("family", FRACTION_BUILD_FAMILIES)
def test_a_restriction_reads_the_rows_it_cuts(family):
    """`dimension_step_function` finds the rows of D a query piece meets by bisection and clips
    them.  On pieces that start or end on a row end, strictly inside a row, or at -pi or pi, it
    is the canonical step function whose cells, between the ends of the query and of D's rows,
    take D's values at their midpoints (`dimension_values`, one walk over D's int rows)."""
    seen = Counter()
    for index, W in enumerate(FRACTION_BUILD_FAMILIES[family][0]()):
        rows = dimension_function(W).coefs
        ends = [lo for lo, _, _ in rows] + [rows[-1][1]]  # D's rows cover [-pi, pi) in order
        seen["rows"] = max(seen["rows"], len(rows))
        rng = random.Random(f"{family} {index}")
        for _ in range(4):
            points = rng.sample(ends, min(len(ends), 4))
            points += [lo + (hi - lo) / 3 for lo, hi, _ in rng.sample(rows, min(len(rows), 3))]
            points = sorted(set(points + [x for x in (-1, 1) if rng.random() < 0.5]))
            pieces = [(a, b) for a, b in zip(points[::2], points[1::2]) if not a <= 0 <= b]
            query = IntervalSet(tuple(Interval(RationalPi(a), RationalPi(b)) for a, b in pieces))
            cells = []
            for a, b in pieces:
                cuts = [a, *ends[bisect_right(ends, a):bisect_left(ends, b)], b]
                cells += zip(cuts, cuts[1:])
            values = dimension_values(W, [RationalPi((lo + hi) / 2) for lo, hi in cells])
            want = StepFunction.from_triples((lo, hi, value) for (lo, hi), value in zip(cells, values))
            assert dimension_step_function(W, query) == want, (W, query)
            for x in chain.from_iterable(pieces):
                seen["at pi" if abs(x) == 1 else "on a row end" if x in ends else "inside a row"] += 1
    assert min(seen["at pi"], seen["inside a row"], seen["on a row end"] if seen["rows"] > 1 else 1) >= 1, seen
