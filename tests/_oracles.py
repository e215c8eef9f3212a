"""Independent references for the tests: one path per exact verdict that shares no kernel with
the library code it checks.

A reference here imports no private name of `wavemult`, neither its walk `cover` nor
`merge_cells`, and reads no private attribute (`tests/test_oracles_lint.py` checks this and
that the table below names every top-level definition).  It may build its result with the
public constructors, `from_triples`, `from_intervals` and `from_cells`, whose construction
rule the tests check on their own; it never takes the library's integer coordinates
(`_coordinates`, `_times_pow2`), its fold or annulus split, its pull-back lookup or its sort
key.  A replaced library body comes here only when no reference below covers its verdict on
the same inputs.

| Verdict | References kept | Why they share no kernel with the library |
|---|---|---|
| weighted runs of `cover`, canonical unions, intersection and difference | `midpoint_cover`, `sort_merge_intervals`, `midpoint_set_algebra`, `_inside`, `_cells`, `_set_of` | recount each cell at its midpoint, or merge sorted intervals one at a time |
| the overlay the references below run | `tagged_sweep`, `Ratio` | its own event sort by cross-multiplied ratios, keeping open tags; `cover` sums weights under `_order_key` |
| `floor_log2`, `ceil_log2` | `loop_floor_log2`, `loop_ceil_log2` | halve or double one step at a time |
| `is_wavelet_set`: verdicts, failure region and witness | `object_wavelet_report`, `object_principal_fragments`, `object_annulus_fragments`, `object_tiling_failure` | `Interval` fragments and one tagged sweep per tiling, not int coordinates and one `cover` |
| the tilings behind it, on long pieces | `midpoint_tiling_failure`, `principal_images`, `annulus_images` | every cut of a piece, no three-fragment cap, counted at cell midpoints |
| `dimension_step_function`, `dimension_function` and `core_equivalence_regions` | `windowed_step_function`, `hit_sets`, `step_from_covers`, `midpoint_step_from_covers`, `midpoint_differing_regions` | D built on the window alone from every translate deep enough to reach it: no k = 0 shortcut, no fold, no restriction by bisection |
| `dimension_values`, D at single points | `brute_dimension_count`, `bisect_dimension_values` | a double loop over (j, k); `value_at` on D's `Fraction` coefs, not the int floor lookup |
| `midpoint_grid` | `loop_midpoint_grid` | `RationalPi` arithmetic on each row's `Interval` |
| sigma: `compose` | `object_compose` | one tagged sweep of `Interval` pieces, not the pull-back lookup |
| sigma: `dyadic_extension` | `extension_at`, `object_dyadic_extension`, `fraction_dyadic_extension` | pointwise; every level of the hull; octave dilates overlaid by a tagged sweep on `Fraction`s, which reaches the inputs past the 3072-bit budget |
| sigma: `compose_power` and the commutant witness | `loop_compose_powers`, `object_commutant_witness` | one composition and one octave extension per power, not binary powering on one chain; a scan of `Interval` rows |
| `Piecewise.from_triples`, `value_at` | `object_piecewise`, `object_value_at`, `scan_value_at` | `Interval` rows from a tagged sweep; a bisection of those rows by their `Interval` starts; a scan over all pairs |
| `IntervalSet` negate, dilate, translate, measure, contains and bounds | `object_set_ops` | `Interval` and `RationalPi` arithmetic on the pieces |
| fibers, Gram-Schmidt, rank and lattice sums | `TWO_PI_F`, `loop_fiber`, `loop_gram_schmidt`, `loop_dimension_sum`, `pairwise_orthogonalize`, `pivoted_gram_rank`, `full_band_meyer` | one point, level or (j, k) pair at a time; pivoted elimination of the Gram matrix; the Meyer phase on every entry |
| seeded inputs, not references | `random_rational_pi`, `random_point_in`, `random_interval_set`, `random_wavelet_candidate`, `two_interval_wavelet_set`, `near_zero_wavelet_set`, `deep_piece_wavelet_set` | |
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from fractions import Fraction
from operator import itemgetter
from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np

from wavemult.dimension import StepFunction, dimension_function, dimension_step_function
from wavemult.exact import ZERO, Interval, IntervalSet, PreconditionError, RationalPi, ceil_log2, floor_log2
from wavemult.sigma import SigmaMap
from wavemult.wavelet_sets import PiecewiseTranslation


# ---------------------------------------------------------------------------
# Exact overlays, recounted: the tagged sweep every other reference overlays with, and the
# midpoint recounts that check cells one at a time.


class Ratio:
    """An exact value n / d, d > 0, of an int or `Fraction`, that sorts by one cross-multiplication
    of ints: `Fraction`'s own comparison checks the other operand's numeric type first."""

    __slots__ = ("n", "d")

    def __init__(self, x) -> None:
        self.n, self.d = x.numerator, x.denominator

    def __lt__(self, other: "Ratio") -> bool:
        return self.n * other.d < other.n * self.d

    def __eq__(self, other: "Ratio") -> bool:
        return self.n == other.n and self.d == other.d


def tagged_sweep(
    items: Iterable[tuple[Fraction, Fraction, Hashable]],
) -> Iterator[tuple[Fraction, Fraction, int, tuple]]:
    """Overlay tagged half-open intervals [lo, hi), given as coefficient triples.

    Sorts the 2n endpoints once, by their exact values (`Ratio`), and walks them, keeping the
    number of open intervals and their distinct tags.  Yields (lo, hi, count, tags) for each
    covered cell between consecutive endpoints, in increasing order."""
    events = []
    for lo, hi, tag in items:
        events.append((Ratio(lo), 1, tag, lo))
        events.append((Ratio(hi), -1, tag, hi))
    events.sort(key=itemgetter(0))
    count = 0
    open_tags: dict = {}
    for (at, step, tag, x), following in zip(events, events[1:]):
        count += step
        left = open_tags.get(tag, 0) + step
        if left:
            open_tags[tag] = left
        else:
            del open_tags[tag]
        if count and following[0] != at:
            yield x, following[3], count, tuple(open_tags)


def sort_merge_intervals(intervals) -> IntervalSet:
    """Canonical union of any intervals: sorted by left end, each merged into the
    last run it overlaps or touches."""
    merged: list[Interval] = []
    for iv in sorted(intervals, key=lambda iv: iv.lo.coef):
        if merged and iv.lo <= merged[-1].hi:
            if iv.hi > merged[-1].hi:
                merged[-1] = Interval(merged[-1].lo, iv.hi)
        else:
            merged.append(iv)
    return IntervalSet(tuple(merged))


def midpoint_cover(items) -> list[tuple]:
    """The runs (lo, hi, total) of weighted intervals (lo, hi, weight) from the first endpoint
    to the last: each cell between consecutive distinct endpoints sums the weights of the
    intervals holding its midpoint, and touching cells of one total merge."""
    items = list(items)
    points = sorted({x for lo, hi, _ in items for x in (lo, hi)})
    runs: list[tuple] = []
    for lo, hi in zip(points, points[1:]):
        mid = (Fraction(lo) + hi) / 2
        total = sum(w for a, b, w in items if a <= mid < b)
        if runs and runs[-1][2] == total:
            runs[-1] = (runs[-1][0], hi, total)
        else:
            runs.append((lo, hi, total))
    return runs


def _inside(S: IntervalSet, x: RationalPi) -> bool:
    """Whether x lies in S, read off its coefficient pairs."""
    return any(lo <= x.coef < hi for lo, hi in S.coefs)


def _cells(coefs) -> list[tuple[Fraction, Fraction, RationalPi]]:
    """(lo, hi, midpoint) of the cells between consecutive distinct coefficients."""
    points = sorted(set(coefs))
    return [(lo, hi, RationalPi((lo + hi) / 2)) for lo, hi in zip(points, points[1:])]


def _set_of(cells) -> IntervalSet:
    return sort_merge_intervals(Interval(RationalPi(lo), RationalPi(hi)) for lo, hi in cells)


def midpoint_tiling_failure(fragments: Sequence[Interval], target: IntervalSet) -> IntervalSet:
    """Where the fragments fail to tile the target: covered other than once inside it, or
    covered at all outside it."""
    coefs = [e.coef for iv in list(fragments) + list(target) for e in (iv.lo, iv.hi)]
    return _set_of(
        (lo, hi)
        for lo, hi, mid in _cells(coefs)
        if sum(1 for iv in fragments if iv.lo <= mid < iv.hi) != (1 if _inside(target, mid) else 0)
    )


def midpoint_step_from_covers(window: IntervalSet, covers: Sequence[IntervalSet]) -> StepFunction:
    """Sum of the indicator functions of `covers`, as a step function on `window`."""
    cut_coefs = {e.coef for s in covers for iv in s for e in (iv.lo, iv.hi)}
    cells = []
    for piece in window:
        cuts = [piece.lo.coef]
        cuts += sorted(c for c in cut_coefs if piece.lo.coef < c < piece.hi.coef)
        cuts.append(piece.hi.coef)
        for lo_c, hi_c in zip(cuts, cuts[1:]):
            mid = RationalPi((lo_c + hi_c) / 2)
            value = sum(1 for s in covers if _inside(s, mid))
            cells.append((lo_c, hi_c, value))
    return StepFunction.from_triples(cells)


def midpoint_differing_regions(fa: StepFunction, fb: StepFunction, query: IntervalSet) -> IntervalSet:
    """Subregion of the query where two step functions on it differ."""
    cut_coefs = {e.coef for f in (fa, fb) for iv, _ in f.rows() for e in (iv.lo, iv.hi)}
    out = []
    for piece in query:
        cuts = [piece.lo.coef]
        cuts += sorted(c for c in cut_coefs if piece.lo.coef < c < piece.hi.coef)
        cuts.append(piece.hi.coef)
        for lo_c, hi_c in zip(cuts, cuts[1:]):
            mid = RationalPi((lo_c + hi_c) / 2)
            if fa.value_at(mid) != fb.value_at(mid):
                out.append((lo_c, hi_c))
    return _set_of(out)


def midpoint_set_algebra(A: IntervalSet, B: IntervalSet) -> tuple[IntervalSet, IntervalSet]:
    """(A & B, A - B) by membership at the midpoint of every cell."""
    cells = _cells(e.coef for iv in list(A) + list(B) for e in (iv.lo, iv.hi))
    both = _set_of((lo, hi) for lo, hi, mid in cells if _inside(A, mid) and _inside(B, mid))
    only_a = _set_of((lo, hi) for lo, hi, mid in cells if _inside(A, mid) and not _inside(B, mid))
    return both, only_a


def loop_floor_log2(q: Fraction) -> int:
    """Largest m with 2**m <= q, by repeated halving or doubling (q > 0)."""
    m = 0
    while q < 1:
        q *= 2
        m -= 1
    while q >= 2:
        q /= 2
        m += 1
    return m


def loop_ceil_log2(q: Fraction) -> int:
    m = loop_floor_log2(q)
    return m if Fraction(2) ** m == q else m + 1


# ---------------------------------------------------------------------------
# The wavelet-set check on Interval objects, and the full splits the midpoint recount tiles.


def object_tiling_failure(fragments: Sequence[Interval], target: IntervalSet) -> IntervalSet:
    """Where Interval fragments fail to tile the target, from one sweep."""
    items = [(iv.lo.coef, iv.hi.coef, 0) for iv in target]
    items += [(iv.lo.coef, iv.hi.coef, 1) for iv in fragments]
    return sort_merge_intervals(
        Interval(RationalPi(lo), RationalPi(hi))
        for lo, hi, count, tags in tagged_sweep(items)
        if count != 2 or len(tags) != 2
    )


def object_principal_fragments(W: IntervalSet) -> list[tuple[Interval, RationalPi]]:
    """W cut at odd multiples of pi, at most three fragments per piece, each with the
    shift -2*pi*m that moves it into [-pi, pi)."""
    fragments = []
    for piece in W:
        start = piece.lo
        first = m = math.floor((start.coef + 1) / 2)
        while start < piece.hi and m < first + 3:
            frag_hi = min(piece.hi, RationalPi(2 * m + 1))
            fragments.append((Interval(start, frag_hi), RationalPi(-2 * m)))
            start = frag_hi
            m += 1
    return fragments


def object_annulus_fragments(W: IntervalSet) -> tuple[list[Interval], list[Interval]]:
    """W cut at dyadic points, at most three fragments per piece, each scaled into
    [pi, 2*pi) or [-2*pi, -pi)."""
    positive, negative = [], []
    for piece in W:
        start = piece.lo
        for _ in range(3):
            if start >= piece.hi:
                break
            if start >= RationalPi(0):
                m = floor_log2(start.coef)
                frag_hi = min(piece.hi, RationalPi(Fraction(2) ** (m + 1)))
                positive.append(Interval(start * Fraction(2) ** -m, frag_hi * Fraction(2) ** -m))
            else:
                m = ceil_log2(-start.coef) - 1
                frag_hi = min(piece.hi, RationalPi(-(Fraction(2) ** m)))
                negative.append(Interval(start * Fraction(2) ** -m, frag_hi * Fraction(2) ** -m))
            start = frag_hi
    return positive, negative


def object_wavelet_report(W: IntervalSet) -> tuple:
    """(translation congruent, dilation congruent, witness pairs or None, failure region)."""
    fragments = object_principal_fragments(W)
    trans_failure = object_tiling_failure(
        [Interval(iv.lo + shift, iv.hi + shift) for iv, shift in fragments],
        IntervalSet([Interval(RationalPi(-1), RationalPi(1))])
    )
    witness = None
    if trans_failure.is_empty:
        witness = object_piecewise(((iv.lo.coef, iv.hi.coef, s.coef) for iv, s in fragments), RationalPi)[0]
    if W.zero_in_closure():
        raise PreconditionError("dilation congruence is undecidable with 0 in the closure of the set")
    positive, negative = object_annulus_fragments(W)
    dil_failure = object_tiling_failure(positive, IntervalSet([Interval(RationalPi(1), RationalPi(2))]))
    negative_failure = object_tiling_failure(negative, IntervalSet([Interval(RationalPi(-2), RationalPi(-1))]))
    dil_failure = sort_merge_intervals([*dil_failure, *negative_failure])
    return (trans_failure.is_empty, dil_failure.is_empty, witness,
            sort_merge_intervals([*trans_failure, *dil_failure]))


def principal_images(W: IntervalSet) -> list[Interval]:
    """Every piece of W cut at all odd multiples of pi inside it, each cut
    shifted by a multiple of 2*pi into [-pi, pi)."""
    images = []
    for iv in W:
        lo_c, hi_c = iv.lo.coef, iv.hi.coef
        odd = [Fraction(c) for c in range(math.ceil(lo_c), math.floor(hi_c) + 1) if c % 2]
        cuts = [lo_c] + [c for c in odd if lo_c < c < hi_c] + [hi_c]
        for lo, hi in zip(cuts, cuts[1:]):
            shift = 2 * math.floor((lo + 1) / 2)
            images.append(Interval(RationalPi(lo - shift), RationalPi(hi - shift)))
    return images


def annulus_images(W: IntervalSet) -> tuple[list[Interval], list[Interval]]:
    """Every piece of W (0 outside its closure) cut at all points +-2**m * pi
    inside it, each cut scaled by a power of two into [pi, 2*pi) or [-2*pi, -pi)."""
    positive, negative = [], []
    for iv in W:
        sign = 1 if iv.lo.coef > 0 else -1
        lo_c, hi_c = sorted((sign * iv.lo.coef, sign * iv.hi.coef))  # as a positive piece
        m = loop_floor_log2(lo_c)
        cuts = [lo_c]
        while Fraction(2) ** (m + 1) < hi_c:
            m += 1
            cuts.append(Fraction(2) ** m)
        cuts.append(hi_c)
        for lo, hi in zip(cuts, cuts[1:]):
            scale = Fraction(2) ** -loop_floor_log2(lo)
            if sign > 0:
                positive.append(Interval(RationalPi(lo * scale), RationalPi(hi * scale)))
            else:
                negative.append(Interval(RationalPi(-hi * scale), RationalPi(-lo * scale)))
    return positive, negative


# ---------------------------------------------------------------------------
# The dimension function built on a window alone, counted pointwise, and read by bisection.


def brute_dimension_count(W: IntervalSet, xi: RationalPi, j_cap: int = 16, k_cap: int = 8) -> int:
    """Direct double-loop lattice count with fixed generous caps.

    The caps dominate every case exercised here: catalog sets have
    max |endpoint| <= 32*pi/7 < 2**3 * pi, and probes keep |xi| >= pi/2**11,
    so contributing j never exceed 15 and |k| never exceeds 2.
    """
    # Integers in units of pi / den, with den a common denominator of every endpoint.
    den = math.lcm(xi.den, *(e.den for iv in W for e in (iv.lo, iv.hi)))
    pieces = [(iv.lo.num * (den // iv.lo.den), iv.hi.num * (den // iv.hi.den)) for iv in W]
    count = 0
    for k in range(-k_cap, k_cap + 1):
        base = xi.num * (den // xi.den) + 2 * k * den
        if base == 0:
            continue
        for j in range(1, j_cap + 1):
            y = base * 2**j
            count += sum(1 for lo, hi in pieces if lo <= y < hi)
    return count


def hit_sets(W: IntervalSet, query: IntervalSet) -> list[tuple]:
    """Pieces (lo, hi) of the translates 2**-j * W - 2*pi*k, j >= 1, that can meet the query,
    uncut (`step_from_covers` keeps only the cells inside the query)."""
    eps = min(abs(x) for pair in query.coefs for x in pair)
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


def step_from_covers(window: IntervalSet, covers) -> StepFunction:
    """Sum of the indicators of the covers, coefficient pairs (lo, hi), as a step function
    on `window`: one sweep over the window pieces (tagged True) and the covers (tagged
    False); inside the window the value is the count less one."""
    items = [(iv.lo.coef, iv.hi.coef, True) for iv in window]
    items += [(lo, hi, False) for lo, hi in covers]
    return StepFunction.from_triples(
        (lo, hi, count - 1) for lo, hi, count, tags in tagged_sweep(items) if True in tags)


def windowed_step_function(W: IntervalSet, query: IntervalSet) -> StepFunction:
    """The dimension function of W on a nonempty query away from 0, built on the query
    alone from every translate deep enough to reach it: the cost grows with the depth."""
    return step_from_covers(query, hit_sets(W, query))


def bisect_dimension_values(W: IntervalSet, points) -> list[int]:
    """Counts read one point at a time by `Piecewise.value_at`, a bisection of the
    `Fraction` coefs of `dimension_function(W)`, not by the int floor lookup on its
    coordinate rows."""
    D = dimension_function(W)
    return [D.value_at(xi) for xi in points]


def loop_midpoint_grid(W: IntervalSet, window: IntervalSet, count: int) -> list[RationalPi]:
    """Midpoints of `per_row` even cells of every row of W's dimension function on the
    window, each point formed by `RationalPi` arithmetic on the row's interval."""
    rows = dimension_step_function(W, window).rows()
    per_row = -(-count // len(rows)) if rows else 0
    points = []
    for iv, _ in rows:
        width = (iv.hi - iv.lo) * Fraction(1, per_row)
        for i in range(per_row):
            points.append(iv.lo + width * i + width * Fraction(1, 2))
    return points


# ---------------------------------------------------------------------------
# Sigma: the extension pointwise, on every level of the hull and by octaves, one composition
# on Interval sets, and the powers one composition at a time.


def extension_at(base: PiecewiseTranslation, x: RationalPi) -> RationalPi:
    """Pointwise value of the dilation-commuting extension at x (x != 0): the first dilate
    2**n * x inside the hull of the base rows that a row holds, moved by that row's shift and
    scaled back by 2**-n."""
    if x.coef == 0:
        raise PreconditionError("the extension is not defined at 0")
    ends = [abs(e) for lo, hi, _ in base.coefs for e in (lo, hi)]
    for n in range(ceil_log2(min(ends) / abs(x.coef)), floor_log2(max(ends) / abs(x.coef)) + 1):
        y = x.coef * Fraction(2) ** n
        for lo, hi, shift in base.coefs:
            if lo <= y < hi:
                return RationalPi((y + shift) / Fraction(2) ** n)
    raise PreconditionError(f"no dyadic dilate of {x} lands in the map domain")


def object_dyadic_extension(base: PiecewiseTranslation, region: IntervalSet) -> PiecewiseTranslation:
    """The extension of `base` on a region, from one sweep of the region's useful
    dilates (tagged n) and the base pieces (tagged by their RationalPi shift)."""
    if region.zero_in_closure():
        raise PreconditionError("region must stay away from 0")
    ends = [abs(e) for lo, hi, _ in base.coefs for e in (lo, hi)]
    w_min, w_max = min(ends), max(ends)
    items = [(iv.lo.coef, iv.hi.coef, shift) for piece, shift in base.pairs for iv in piece]
    for iv in region:
        near, far = sorted((abs(iv.lo.coef), abs(iv.hi.coef)))
        for n in range(ceil_log2(w_min / far), floor_log2(w_max / near) + 1):
            items.append((iv.lo.coef * Fraction(2) ** n, iv.hi.coef * Fraction(2) ** n, n))
    fragments = []
    for lo, hi, _, tags in tagged_sweep(items):
        shift = next((t for t in tags if isinstance(t, RationalPi)), None)
        if shift is not None:
            fragments += [(lo * scale, hi * scale, shift.coef * scale)
                          for n in tags if n is not shift for scale in (Fraction(2) ** -n,)]
    result = PiecewiseTranslation.from_triples(fragments)
    if result.domain != region:
        raise PreconditionError(
            "region is not exactly covered by dyadic dilates of the map domain"
        )
    return result


def fraction_dyadic_extension(base: PiecewiseTranslation, region: IntervalSet) -> PiecewiseTranslation:
    """`dyadic_extension` on Fraction coefficients: each region piece dilated by 2**n
    (a Fraction power of two) into the octaves of the base domain, one sweep with the base
    rows, each cell scaled back by 2**-n, and the domain compared with the region."""
    if region.zero_in_closure():
        raise PreconditionError("region must stay away from 0")

    def octaves(lo, hi):
        near, far = sorted((abs(lo), abs(hi)))
        return range(floor_log2(near), ceil_log2(far))

    domain = {(lo > 0, m) for lo, hi in base.domain.coefs for m in octaves(lo, hi)}
    items = [(lo, hi, i) for i, (lo, hi, _) in enumerate(base.coefs)]
    scales = []
    for lo, hi in region.coefs:
        for n in {m - k for k in octaves(lo, hi) for sign, m in domain if sign == (lo > 0)}:
            up = Fraction(2) ** n
            items.append((lo * up, hi * up, ~len(scales)))
            scales.append(1 / up)
    fragments = []
    for lo, hi, _, tags in tagged_sweep(items):
        row = max(tags)
        if row >= 0:
            fragments += [(lo * scale, hi * scale, base.coefs[row][2] * scale)
                          for t in tags if t < 0 for scale in (scales[~t],)]
    result = PiecewiseTranslation.from_triples(fragments)
    if result.domain != region:
        raise PreconditionError("region is not exactly covered by dyadic dilates of the map domain")
    return result


def object_compose(first: PiecewiseTranslation, then: PiecewiseTranslation) -> PiecewiseTranslation:
    """then(first(x)) from one sweep over the image pieces of `first` and the domain
    pieces of `then`, each tagged by the index of its (Interval, shift) row."""
    rows, cut = first.rows() + then.rows(), len(first.coefs)
    shifts = [shift.coef for _, shift in rows]
    items = [(iv.lo.coef + shifts[i], iv.hi.coef + shifts[i], i) for i, (iv, _) in enumerate(rows[:cut])]
    items += [(iv.lo.coef, iv.hi.coef, i) for i, (iv, _) in enumerate(rows[cut:], cut)]
    fragments = []
    for lo, hi, count, tags in tagged_sweep(items):
        if count == 2:
            back, forth = shifts[min(tags)], shifts[max(tags)]
            fragments.append((lo - back, hi - back, back + forth))
    result = PiecewiseTranslation.from_triples(fragments)
    if result.domain != first.domain:
        raise PreconditionError("image of the first map escapes the second map's domain")
    return result


def loop_compose_powers(sigma: SigmaMap) -> Iterator[PiecewiseTranslation]:
    """sigma, sigma**2, sigma**3, ... on w1, each the last one composed (`object_compose`)
    with the extension of sigma on its image (`fraction_dyadic_extension`)."""
    current = sigma.mapping
    while True:
        yield current
        current = object_compose(current, fraction_dyadic_extension(sigma.mapping, current.image))


def object_commutant_witness(composed: PiecewiseTranslation):
    """The first (Interval, shift) row whose shift leaves the 2*pi*Z lattice, or None."""
    return next(((iv, shift) for iv, shift in composed.rows() if shift.coef % 2), None)


# ---------------------------------------------------------------------------
# Piecewise functions and set operations on Interval and RationalPi objects.


def object_piecewise(triples, value=lambda tag: tag) -> tuple[tuple, IntervalSet, tuple]:
    """(pairs, domain, rows) of (lo, hi, tag) triples, built from Interval objects: rows
    from the merged sweep cells, a row touching the last one reusing its end, and the
    domain joined from each run of touching rows; ValueError when two tags overlap."""
    index: dict = {}
    cells = list(tagged_sweep((lo, hi, index.setdefault(tag, len(index))) for lo, hi, tag in triples))
    if any(len(tags) > 1 for *_, tags in cells):
        raise ValueError("pieces overlap")
    values = [value(tag) for tag in index]
    by_value: list[list[Interval]] = [[] for _ in values]
    merged: list[list] = []  # touching cells of one tag as one
    for lo, hi, _, (t,) in cells:
        if merged and merged[-1][1:] == [lo, t]:
            merged[-1][1:] = [hi, t]
        else:
            merged.append([lo, hi, t])
    rows, runs = [], []  # runs: [first, last] row of each domain interval
    for lo, hi, t in merged:
        touching = bool(rows) and rows[-1][0].hi.coef == lo
        iv = Interval(rows[-1][0].hi if touching else RationalPi(lo), RationalPi(hi))
        by_value[t].append(iv)
        rows.append((iv, values[t]))
        if touching:
            runs[-1][1] = iv
        else:
            runs.append([iv, iv])
    order = sorted(range(len(values)), key=lambda t: values[t])
    pairs = tuple((IntervalSet(tuple(by_value[t])), values[t]) for t in order if by_value[t])
    domain = IntervalSet(tuple(first if first is last else Interval(first.lo, last.hi)
                               for first, last in runs))
    return pairs, domain, tuple(rows)


def object_value_at(rows, x: RationalPi):
    """Value at x by bisection over (Interval, value) rows ordered by left endpoint."""
    i = bisect_right(rows, x.coef, key=lambda row: row[0].lo.coef) - 1
    if i >= 0 and x < rows[i][0].hi:
        return rows[i][1]
    raise PreconditionError(f"{x} lies outside the domain")


def scan_value_at(f, x: RationalPi):
    """Value of a piecewise-constant function at x by a scan over all its pairs."""
    for piece, value in f.pairs:
        if _inside(piece, x):
            return value
    raise PreconditionError(f"{x} lies outside the domain")


def object_set_ops(S: IntervalSet, n: int, t: RationalPi, points) -> dict:
    """negate, dilate(n), translate(t), measure, contains at each point, zero_in_closure,
    and for a nonempty S dist_zero and max_abs, each computed on the Interval pieces."""
    pieces = S.pieces
    ops = {
        "negate": IntervalSet(tuple(Interval(-iv.hi, -iv.lo) for iv in reversed(pieces))),
        "dilate": IntervalSet(tuple(Interval(iv.lo * Fraction(2) ** n, iv.hi * Fraction(2) ** n)
                                    for iv in pieces)),
        "translate": IntervalSet(tuple(Interval(iv.lo + t, iv.hi + t) for iv in pieces)),
        "measure": RationalPi(sum(((iv.hi - iv.lo).coef for iv in pieces), Fraction(0))),
        "contains": [any(iv.lo <= x < iv.hi for iv in pieces) for x in points],
        "zero_in_closure": any(iv.lo <= ZERO <= iv.hi for iv in pieces),
    }
    if pieces:
        ops["dist_zero"] = (ZERO if ops["zero_in_closure"]
                            else min(min(abs(iv.lo), abs(iv.hi)) for iv in pieces))
        ops["max_abs"] = max(max(abs(iv.lo), abs(iv.hi)) for iv in pieces)
    return ops


# ---------------------------------------------------------------------------
# Per-point numeric loops: the fibers, Gram-Schmidt and lattice sums one point or one
# (j, k) pair at a time, and the rank by pivoted elimination.


TWO_PI_F = 2.0 * math.pi


def loop_fiber(profile, xi: float, level: int, k_max: int) -> tuple[np.ndarray, bool]:
    """Entries 2**(level/2) * profile(2**level * (xi + 2*pi*k)), k = -k_max..k_max,
    and whether every dropped |k| > k_max is outside the support."""
    ks = np.arange(-k_max, k_max + 1)
    points = (2.0**level) * (float(xi) + TWO_PI_F * ks)
    entries = (2.0 ** (level / 2)) * profile.evaluate_array(points)
    exact = (2.0**level) * (TWO_PI_F * (k_max + 1) - math.pi) > profile.support_radius
    return entries, exact


def loop_gram_schmidt(profile, xi: float, j_max: int, k_max: int, tol: float = 1e-9) -> dict:
    """Fibers, residuals, h, eta, max_scale, rank and truncation flag at one point."""
    vectors = []
    exact = True
    for level in range(1, j_max + 1):
        entries, level_exact = loop_fiber(profile, xi, level, k_max)
        vectors.append(entries)
        exact = exact and level_exact
    fibers = np.array(vectors)
    norms_sq = np.sum(np.abs(fibers) ** 2, axis=1)
    max_scale = max(1.0, float(norms_sq.max()))
    threshold = tol * max_scale
    residuals = np.zeros_like(fibers)
    h_values = np.zeros(j_max)
    eta = np.zeros((j_max, j_max), dtype=complex)
    for j in range(j_max):
        g = fibers[j].copy()
        for k in range(j):
            if h_values[k] > threshold:
                gk = residuals[k]
                coeff = np.vdot(gk, fibers[j]) / (h_values[k] / TWO_PI_F)
                eta[j, k] = coeff
                g = g - coeff * gk
        residuals[j] = g
        h_values[j] = TWO_PI_F * float(np.vdot(g, g).real)
    return {
        "fibers": fibers,
        "residuals": residuals,
        "h_values": h_values,
        "eta": eta,
        "max_scale": max_scale,
        "rank": int((h_values > threshold).sum()),
        "truncation_exact": exact,
    }


def loop_dimension_sum(profile, xi: float, j_max: int, k_max: int) -> tuple[float, bool]:
    """Level-by-level lattice sum of |profile(2**j (xi + 2 pi k))|**2 and its
    truncation flag."""
    xi = float(xi)
    ks = np.arange(-k_max, k_max + 1)
    total = 0.0
    for level in range(1, j_max + 1):
        values = profile.evaluate_array((2.0**level) * (xi + TWO_PI_F * ks))
        total += float(np.sum(np.abs(values) ** 2))
    support = profile.support_radius
    k_exact = 2.0 * (TWO_PI_F * (k_max + 1) - math.pi) > support
    nearest = abs(xi - TWO_PI_F * round(xi / TWO_PI_F))
    j_exact = (2.0 ** (j_max + 1)) * nearest > support
    return total, k_exact and j_exact


def pairwise_orthogonalize(fibers: np.ndarray, tol: float) -> tuple[np.ndarray, ...]:
    """The batched recurrence one (j, k) pair at a time: residuals, h, eta and scales
    of a (points, J, 2K+1) stack, each <psi_j, g_k> one row-wise product."""
    def dots(a, b):
        return (a.conj()[:, None, :] @ b[:, :, None])[:, 0, 0]

    count, levels, _ = fibers.shape
    max_scale = np.fmax(1.0, np.sum(np.abs(fibers) ** 2, axis=2).max(axis=1))
    threshold = tol * max_scale
    residuals = np.empty_like(fibers)
    h_values = np.zeros((count, levels))
    eta = np.zeros((count, levels, levels), dtype=complex)
    for j in range(levels):
        psi = g = fibers[:, j]
        for k in range(j):
            used = h_values[:, k] > threshold
            if used.any():
                gk = residuals[:, k]
                coeff = dots(gk, psi) / np.where(used, h_values[:, k] / TWO_PI_F, 1.0)
                eta[:, j, k] = coeff = np.where(used, coeff, 0.0)
                g = np.where(used[:, None], g - coeff[:, None] * gk, g)
        residuals[:, j] = g
        h_values[:, j] = TWO_PI_F * dots(g, g).real
    return residuals, h_values, eta, max_scale


def pivoted_gram_rank(vectors: np.ndarray, tol: float) -> int:
    """Rank of a vector family via complete-pivoting elimination on its Gram matrix."""
    vs = np.asarray(vectors, dtype=complex)
    n = vs.shape[0]
    G = np.array([[np.vdot(w, v) for w in vs] for v in vs], dtype=complex)
    scale = max(1.0, float(np.max(G.diagonal().real)) if n else 1.0)
    active = list(range(n))
    rank = 0
    for _ in range(n):
        d, p = max((float(G[i, i].real), i) for i in active)
        if d <= tol * scale:
            break
        rank += 1
        active.remove(p)
        col = G[:, p].copy()
        for i in active:
            for j in active:
                G[i, j] -= col[i] * np.conj(col[j]) / d
    return rank


def full_band_meyer(x: np.ndarray) -> np.ndarray:
    """The Meyer profile with its phase exp(i x / 2) taken at every entry, not only
    on the bands 2*pi/3 <= |x| <= 8*pi/3."""
    def bell(t):
        return t**4 * (35 - 84 * t + 70 * t**2 - 20 * t**3)

    ax = np.abs(x)
    amp = np.zeros_like(ax)
    inner = (ax >= 2 * np.pi / 3) & (ax < 4 * np.pi / 3)
    outer = (ax >= 4 * np.pi / 3) & (ax <= 8 * np.pi / 3)
    amp[inner] = np.sin(np.pi / 2 * bell(3 * ax[inner] / (2 * np.pi) - 1))
    amp[outer] = np.cos(np.pi / 2 * bell(3 * ax[outer] / (4 * np.pi) - 1))
    return amp * np.exp(0.5j * x)


# ---------------------------------------------------------------------------
# Seeded inputs.


def random_rational_pi(rng: random.Random, lo: int = -8, hi: int = 8, max_den: int = 64) -> RationalPi:
    den = rng.randint(1, max_den)
    num = rng.randint(lo * den, hi * den)
    return RationalPi(Fraction(num, den))


def random_point_in(rng: random.Random, S: IntervalSet, max_den: int = 512) -> RationalPi:
    """An exact point strictly inside a randomly chosen piece of S."""
    piece = rng.choice(S.pieces)
    den = rng.randint(2, max_den)
    num = rng.randint(0, den - 1)
    return piece.lo + (piece.hi - piece.lo) * Fraction(num, den)


def random_interval_set(rng: random.Random, max_pieces: int = 5) -> IntervalSet:
    ivs = []
    for _ in range(rng.randint(0, max_pieces)):
        a = random_rational_pi(rng)
        b = random_rational_pi(rng)
        if a == b:
            continue
        ivs.append(Interval(min(a, b), max(a, b)))
    return IntervalSet.from_intervals(ivs)


def random_wavelet_candidate(rng: random.Random, pieces: int) -> IntervalSet:
    """A set of up to `pieces` pieces away from 0: [-pi, pi) cut at seeded points and
    each cut moved by a seeded 2*pi*k (translation congruent when no two cuts land
    on touching or overlapping spots), sometimes with one end nudged so it is not."""
    cuts = sorted(set(Fraction(rng.randrange(1, 2**12), 2**11) - 1 for _ in range(pieces - 1)))
    ends = [Fraction(-1)] + cuts + [Fraction(1)]
    ivs = []
    for lo, hi in zip(ends, ends[1:]):
        ks = [k for k in range(-4, 5) if k or not lo <= 0 <= hi]
        k = rng.choice(ks)
        ivs.append(Interval(RationalPi(lo + 2 * k), RationalPi(hi + 2 * k)))
    if rng.random() < 0.3:
        i = rng.randrange(len(ivs))
        iv = ivs[i]
        nudged = iv.hi.coef + Fraction(rng.choice([-1, 1]), 2**rng.randint(12, 20))
        if iv.lo.coef < nudged and not iv.lo.coef <= 0 <= nudged:
            ivs[i] = Interval(iv.lo, RationalPi(nudged))
    return IntervalSet.from_intervals(ivs)


def two_interval_wavelet_set(rng: random.Random) -> IntervalSet:
    """[-(4pi - 2c), -(2pi - c)) u [c, 2c) for a seeded c in (pi/2, 3pi/2): each piece is a
    whole dyadic annulus and modulo 2pi they are the arcs [c, 2c) and [2c, c + 2pi)."""
    c = Fraction(rng.randrange(513, 1536, 2), 1024)
    return IntervalSet.from_intervals([Interval(RationalPi(-(4 - 2 * c)), RationalPi(-(2 - c))),
                                       Interval(RationalPi(c), RationalPi(2 * c))])


def near_zero_wavelet_set(n: int) -> IntervalSet:
    """[-2**-n pi, -2**(-n-1) pi) u [(2 - 2**(-n-1)) pi, (4 - 2**-n) pi) for n >= 0: the
    negative piece is one dyadic annulus 2**(-n-1) pi from 0, the positive piece the next
    octave, and modulo 2pi they are the arcs [-2**-n pi, -2**(-n-1) pi) and the rest of
    [-pi, pi).  paper_w1 is n = 2."""
    a = Fraction(1, 2**n)
    return IntervalSet.from_intervals([Interval(RationalPi(-a), RationalPi(-a / 2)),
                                       Interval(RationalPi(2 - a / 2), RationalPi(4 - a))])


def deep_piece_wavelet_set(n: int, t: int) -> IntervalSet:
    """Q(n) u -Q(t) for n, t >= 2, with Q(n) = [x, y) u [2 + y, 3) u [6, 6 + x) in units of
    pi, y = 2/(2**n - 1), z = 3/2**n and x = z/(2 - 2**(-n-1)).  Modulo 2pi the three
    pieces are [x, y), [y, 1) and [0, x); the two far ones dilate by 2**-n and 2**(-n-1)
    onto [y, z) and [z, 2x), so the octave [x, 2x) is tiled.  [x, y) is shorter than an
    octave and about 2**-n from 0, so its dilates reach pi only after n steps."""
    def positive(n: int) -> list[tuple[Fraction, Fraction]]:
        y = Fraction(2, 2**n - 1)
        x = Fraction(3, 2**n) / (2 - Fraction(1, 2**(n + 1)))
        return [(x, y), (2 + y, Fraction(3)), (Fraction(6), 6 + x)]

    return IntervalSet.from_intervals(
        [Interval(RationalPi(lo), RationalPi(hi)) for lo, hi in positive(n)]
        + [Interval(RationalPi(-hi), RationalPi(-lo)) for lo, hi in positive(t)])
