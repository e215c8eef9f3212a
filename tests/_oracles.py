"""Independent oracles for the tests, kept apart from the library code paths."""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from wavemult.dimension import StepFunction, dimension_function, dimension_step_function
from wavemult.exact import (
    ZERO,
    Interval,
    IntervalSet,
    PreconditionError,
    RationalPi,
    _coordinates,
    _disjoint_rows,
    _order_key,
    _times_pow2,
    ceil_log2,
    floor_log2,
    merge_cells,
    sweep,
)
from wavemult.sigma import SigmaMap, compose
from wavemult.wavelet_sets import PiecewiseTranslation, WaveletSetReport, _fold, _require_wavelet_set


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


# ---------------------------------------------------------------------------
# Reference implementations the library replaced with faster code.  Each
# recounts coverage at the midpoint of every cell cut by all endpoints
# (O(cells x intervals)), merges sorted intervals one at a time, or halves a
# rational one step at a time.


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
        if sum(1 for iv in fragments if iv.lo <= mid < iv.hi) != (1 if target.contains(mid) else 0)
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
            value = sum(1 for s in covers if s.contains(mid))
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
    both = _set_of((lo, hi) for lo, hi, mid in cells if A.contains(mid) and B.contains(mid))
    only_a = _set_of((lo, hi) for lo, hi, mid in cells if A.contains(mid) and not B.contains(mid))
    return both, only_a


# ---------------------------------------------------------------------------
# Per-point numeric reference: the fiber, Gram-Schmidt and lattice-sum loops
# the batched fiber tensor replaced, one profile evaluation per (point, level).

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
# The wavelet-set check on Fraction coefficients, as the library ran it before
# its coordinates became ints over one common unit: the same fold, scaling into
# the annulus and one tiling sweep of [-2pi, 2pi).


def fraction_tiling_check(fragments, target: IntervalSet) -> IntervalSet:
    """Where the fragments, coefficient pairs (lo, hi), fail to tile the target.

    One sweep over the target (tag 0) and the fragments (tag 1): a cell tiles
    when it lies under the target and exactly one fragment.  The failure
    region is where the fragments miss the target, leave it or overlap.
    """
    items = [(lo, hi, 0) for lo, hi in target.coefs]
    items += [(lo, hi, 1) for lo, hi in fragments]
    return IntervalSet.from_cells((lo, hi) for lo, hi, count, tags in sweep(items)
                                  if count != 2 or len(tags) != 2)


def fraction_principal_fragments(pairs) -> list[tuple[Fraction, Fraction, Fraction]]:
    """Split each piece, a pair (lo, hi), at odd multiples of pi into triples (lo, hi, -2m)
    moving it into [-pi, pi).

    At most three per piece: if a piece reaches a fourth 2*pi cell, its second
    and third fragments cover [-pi, pi) twice, and the rest change no result."""
    fragments = []
    for start, end in pairs:
        first = m = math.floor((start + 1) / 2)
        while start < end and m < first + 3:
            odd = Fraction(2 * m + 1)
            frag_hi = min(end, odd)
            fragments.append((start, frag_hi, 1 - odd))
            start = frag_hi
            m += 1
    return fragments


def fraction_annulus_fragments(pairs) -> list[tuple]:
    """Scale each piece, a pair (lo, hi), into the annulus [-2*pi, -pi) u [pi, 2*pi) as
    pairs (lo, hi), split at dyadic points.

    At most three per piece: if a piece reaches a fourth octave, its second
    and third fragments cover the annulus twice, and the rest change no result."""
    fragments = []
    for start, end in pairs:
        for _ in range(3):
            if start >= end:
                break
            if start >= 0:
                m = floor_log2(start)  # start in [2**m * pi, 2**(m+1) * pi)
                frag_hi = min(end, Fraction(2) ** (m + 1))
            else:
                m = ceil_log2(-start) - 1  # start in [-2**(m+1) * pi, -2**m * pi)
                frag_hi = min(end, -(Fraction(2) ** m))
            scale = Fraction(2) ** -m
            fragments.append((start * scale, frag_hi * scale))
            start = frag_hi
    return fragments


def fraction_wavelet_report(W: IntervalSet) -> WaveletSetReport:
    """`is_wavelet_set` on Fraction coefficients: one sweep of [-2pi, 2pi) against the
    folded translates and the annulus dilates, the witness from the fold."""
    if W.zero_in_closure():
        raise PreconditionError("dilation congruence is undecidable with 0 in the closure of the set")
    fragments = fraction_principal_fragments(W.coefs)
    failure = fraction_tiling_check(
        [(lo + s, hi + s) for lo, hi, s in fragments] + fraction_annulus_fragments(W.coefs),
        IntervalSet.single(RationalPi(-2), RationalPi(2)))
    translation_ok = not any(lo < 1 and hi > -1 for lo, hi in failure.coefs)
    return WaveletSetReport(
        is_translation_congruent=translation_ok,
        is_dilation_congruent=not any(lo < -1 or hi > 1 for lo, hi in failure.coefs),
        tau_witness=PiecewiseTranslation.from_triples(fragments) if translation_ok else None,
        failure_regions=failure,
    )


# ---------------------------------------------------------------------------
# The eager map back, as every builder on integer coordinates ran it before its
# result kept (unit, int rows) and built its Fractions when first read: the
# coordinates with a map back that reuses the rows' own Fractions through a dict,
# every row and image run mapped back at construction, and a chain of powers
# mapping its rows back over the unit it started from.


def coordinates_with_back(rows: list, shift: int = 0) -> tuple:
    """(unit, coordinates, the map back) of coefficient rows: `_coordinates`, and the map back
    that reuses the rows' own Fractions, built once each; past the budget, a Fraction of c."""
    unit, coords = _coordinates(rows, shift)
    if coords is rows:
        return 1, rows, lambda c: Fraction(c) if type(c) is int else c
    own = dict(zip(chain.from_iterable(coords), chain.from_iterable(rows)))

    def coefficient(c: int) -> Fraction:
        x = own.get(c)
        if x is None:
            x = own[c] = Fraction(c, unit)
        return x

    return unit, coords, coefficient


def chain_coefficient(unit: int, start: int, coef):
    """`sigma._chain`'s map back of a power whose rows run over `unit`, a chain started over
    `start` with the map back `coef`: over `start` if 2**k divides c, k the bits the unit grew
    by; else with the power of two c shares with the unit shifted out first."""
    k, low = unit.bit_length() - start.bit_length(), unit & -unit

    def coefficient(c: int) -> Fraction:
        t = min(c & -c or low, low).bit_length() - 1
        return coef(c >> k) if t >= k else Fraction(c >> t, unit >> t)

    return coef if unit == start else coefficient


def eager_mapped(rows: list, image: list, back) -> PiecewiseTranslation:
    """The translation of canonical coordinate rows and image runs with every coordinate mapped
    to a Fraction by `back` at construction: no rows carried, so every reader takes the coefs."""
    self = PiecewiseTranslation.__new__(PiecewiseTranslation)
    object.__setattr__(self, "coefs", tuple([(back(lo), back(hi), back(s)) for lo, hi, s in rows]))
    object.__setattr__(self, "image", IntervalSet._of(tuple([(back(a), back(b)) for a, b, *_ in image])))
    return self


def eager_translation(triples, back) -> PiecewiseTranslation:
    """`PiecewiseTranslation.from_triples` of coordinate triples with their map back `back`."""
    return eager_mapped(*PiecewiseTranslation._canonical(triples), back)


def eager_set(rows, back) -> IntervalSet:
    """The set of canonical coordinate runs, mapped back by `back` at once."""
    return IntervalSet._of(tuple([(back(row[0]), back(row[1])) for row in rows]))


# ---------------------------------------------------------------------------
# The dilation-commuting extension and the powers of sigma as the library
# first computed them: pointwise, over every level of the region's hull, and
# by one composition per power; then compose and the extension as they ran on
# Fraction coefficients, before int coordinates, and on int coordinates, each
# with its own sweep and coverage check, before they shared one pull-back sweep;
# then that pull-back as a lookup with a length rule, one call per step, each
# scaling its own `_coordinates` and mapping back, before powers ran one chain.


def extension_at(base: PiecewiseTranslation, x: RationalPi) -> RationalPi:
    """Pointwise value of the dilation-commuting extension at x (x != 0)."""
    if x.is_zero:
        raise PreconditionError("the extension is not defined at 0")
    w_min = base.domain.dist_zero()
    w_max = base.domain.max_abs()
    n_lo = ceil_log2(w_min.coef / abs(x.coef))
    n_hi = floor_log2(w_max.coef / abs(x.coef))
    for n in range(n_lo, n_hi + 1):
        y = x * Fraction(2) ** n
        if base.domain.contains(y):
            return base.apply(y) * Fraction(2) ** -n
    raise PreconditionError(f"no dyadic dilate of {x} lands in the map domain")


def hull_dyadic_extension(base: PiecewiseTranslation, region: IntervalSet) -> PiecewiseTranslation:
    """The extension on a region, from one sweep of the region (tagged -1) with the
    base pieces dilated to every level that meets the region's hull."""
    if region.is_empty:
        return PiecewiseTranslation.from_triples(())
    if region.zero_in_closure():
        raise PreconditionError("region must stay away from 0")
    w_min = base.domain.dist_zero()
    w_max = base.domain.max_abs()
    n_lo = ceil_log2(w_min.coef / region.max_abs().coef)
    n_hi = floor_log2(w_max.coef / region.dist_zero().coef)
    items = [(iv.lo.coef, iv.hi.coef, -1) for iv in region]
    shifts = []
    for n in range(n_lo, n_hi + 1):
        scale = Fraction(2) ** -n
        for piece, shift in base.pairs:
            items += [(iv.lo.coef * scale, iv.hi.coef * scale, len(shifts)) for iv in piece]
            shifts.append(shift.coef * scale)
    result = PiecewiseTranslation.from_triples(
        (lo, hi, shifts[i]) for lo, hi, _, tags in sweep(items) if -1 in tags for i in tags if i >= 0)
    if result.domain != region:
        raise PreconditionError(
            "region is not exactly covered by dyadic dilates of the map domain"
        )
    return result


def loop_compose_powers(sigma: SigmaMap) -> Iterator[PiecewiseTranslation]:
    """sigma, sigma**2, sigma**3, ... on w1, each the last one composed with the
    hull-wide extension of sigma on its image."""
    current = sigma.mapping
    while True:
        yield current
        current = compose(current, hull_dyadic_extension(sigma.mapping, current.image))


def fraction_translation(triples) -> tuple[tuple, IntervalSet]:
    """(coefs, image) of the translation with (lo, hi, shift) coefficient triples, built on
    the Fractions themselves as `PiecewiseTranslation` built a map given as coefficients
    before every map went through `_coordinates`: one rule for the rows, one for the image."""
    rows = _disjoint_rows(triples)
    if rows is None:
        raise ValueError(PiecewiseTranslation.OVERLAP_ERROR)
    image = _disjoint_rows((lo + shift, hi + shift, None) for lo, hi, shift in rows)
    if image is None:
        raise ValueError("piecewise translation is not injective")
    return tuple(map(tuple, rows)), IntervalSet._of(tuple((lo, hi) for lo, hi, _ in image))


def fraction_compose(first: PiecewiseTranslation, then: PiecewiseTranslation) -> PiecewiseTranslation:
    """`compose` on Fraction coefficients: one sweep of the image rows of `first` (each
    tagged by its index in `shifts`) with the domain rows of `then`, and the domain
    compared with the first map's."""
    shifts = [shift for *_, shift in first.coefs + then.coefs]
    items = [(lo + s, hi + s, i) for i, (lo, hi, s) in enumerate(first.coefs)]
    items += [(lo, hi, i) for i, (lo, hi, _) in enumerate(then.coefs, len(first.coefs))]
    fragments = []
    for lo, hi, count, tags in sweep(items):
        if count == 2:
            back, forth = shifts[min(tags)], shifts[max(tags)]
            fragments.append((lo - back, hi - back, back + forth))
    result = PiecewiseTranslation.from_triples(fragments)
    if result.domain != first.domain:
        raise PreconditionError("image of the first map escapes the second map's domain")
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
    for lo, hi, _, tags in sweep(items):
        row = max(tags)
        if row >= 0:
            fragments += [(lo * scale, hi * scale, base.coefs[row][2] * scale)
                          for t in tags if t < 0 for scale in (scales[~t],)]
    result = PiecewiseTranslation.from_triples(fragments)
    if result.domain != region:
        raise PreconditionError("region is not exactly covered by dyadic dilates of the map domain")
    return result


def int_compose(first: PiecewiseTranslation, then: PiecewiseTranslation) -> PiecewiseTranslation:
    """`compose` with its own sweep over the `_coordinates` of both maps: image rows of `first`
    and domain rows of `then`, each tagged by its index in `shifts`.  Both families are
    disjoint, so a cell covered twice carries one tag of each, the first's the smaller, and a
    cell covered once by an image row lies outside `then`'s domain."""
    n = len(first.coefs)
    _, rows, coef = coordinates_with_back(first.coefs + then.coefs)
    shifts = [shift for *_, shift in rows]
    items = [(lo + s, hi + s, i) for i, (lo, hi, s) in enumerate(rows[:n])]
    items += [(lo, hi, i) for i, (lo, hi, _) in enumerate(rows[n:], n)]
    fragments = []
    for lo, hi, count, tags in sweep(items):
        if count == 2:
            back, forth = shifts[min(tags)], shifts[max(tags)]
            fragments.append((lo - back, hi - back, back + forth))
        elif tags[0] < n:
            raise PreconditionError("image of the first map escapes the second map's domain")
    return eager_translation(fragments, coef)


def int_dyadic_extension(base: PiecewiseTranslation, region: IntervalSet) -> PiecewiseTranslation:
    """`dyadic_extension` on a set with its own sweep over int `_coordinates`: each region
    piece dilated by the 2**n that carry its octaves onto the domain's (the unit holds 2**N,
    N the largest |n|), the dilates (the j-th tagged ~j) overlaid with the base rows, each
    cell scaled back by 2**-n, and the result's domain compared with the region."""
    if region.zero_in_closure():
        raise PreconditionError("region must stay away from 0")

    def octaves_of(lo, hi):
        near, far = sorted((abs(lo), abs(hi)))
        return range(floor_log2(near), ceil_log2(far))

    octaves = {(lo > 0, m) for lo, hi in base.domain.coefs for m in octaves_of(lo, hi)}
    dilations = [{m - k for k in octaves_of(lo, hi) for sign, m in octaves if sign == (lo > 0)}
                 for lo, hi in region.coefs]
    top = max((abs(n) for ns in dilations for n in ns), default=0)
    _, rows, coef = coordinates_with_back(base.coefs + region.coefs, top)
    pieces = rows[len(base.coefs):]
    items = [(lo, hi, i) for i, (lo, hi, _) in enumerate(rows[:len(base.coefs)])]
    scales = []
    for (lo, hi), ns in zip(pieces, dilations):
        for n in ns:
            items.append((_times_pow2(lo, n), _times_pow2(hi, n), ~len(scales)))
            scales.append(-n)
    fragments = []
    for lo, hi, _, tags in sweep(items):
        row = max(tags)
        if row >= 0:
            fragments += [(_times_pow2(lo, m), _times_pow2(hi, m), _times_pow2(rows[row][2], m))
                          for t in tags if t < 0 for m in (scales[~t],)]
    result = eager_translation(fragments, coef)
    if result.domain != region:
        raise PreconditionError("region is not exactly covered by dyadic dilates of the map domain")
    return result


def sweep_pull_back(rows, cut: int, coef, error: str, dilations=lambda lo, hi: (0,)) -> PiecewiseTranslation:
    """`sigma._pull_back` as one sweep of coordinate rows: the image piece of each `first` row
    (the rows before `cut`), dilated by each 2**n in `dilations(lo, hi)` (the j-th dilate
    tagged ~j), overlaid with the `then` rows (tagged by index); each cell covered by both is
    scaled back by 2**-n and moved back by its first row's shift.  A cell end from another
    dilate may not scale back exactly on ints, but it lies inside a run of cells of one dilate
    and one `then` row, so the floored fragments still touch, merge into one exact row and
    their lengths telescope.  Coverage is the same length rule."""
    first, then = rows[:cut], rows[cut:]
    items = [(lo, hi, j) for j, (lo, hi, _) in enumerate(then)]
    pulls, total = [], 0
    for lo, hi, s in first:
        total += hi - lo
        lo, hi = lo + s, hi + s
        for n in dilations(lo, hi):
            items.append((_times_pow2(lo, n), _times_pow2(hi, n), ~len(pulls)))
            pulls.append((-n, s))
    fragments, covered = [], 0
    for lo, hi, _, tags in sweep(items):
        row = max(tags)
        for tag in tags:
            if tag < 0 <= row:
                (m, s), t = pulls[~tag], then[row][2]
                a, b = _times_pow2(lo, m), _times_pow2(hi, m)
                fragments.append((a - s, b - s, s + _times_pow2(t, m)))
                covered += b - a
    result = eager_translation(fragments, coef)
    if covered != total:
        raise PreconditionError(error)
    return result


COMPOSE_ERROR = "image of the first map escapes the second map's domain"
EXTENSION_ERROR = "region is not exactly covered by dyadic dilates of the map domain"


def lookup_pull_back(rows, cut: int, coef, error: str, dilations=lambda lo, hi: (0,)) -> PiecewiseTranslation:
    """The pull-back of one call on coordinate rows: the image piece of each `first` row (the
    rows before `cut`), dilated by each 2**n in `dilations(lo, hi)` to [a, b), finds the `then`
    rows it meets by bisection on their starts; each common part is scaled back by 2**-n and
    moved back by the first row's shift.  The result is built and mapped back by `coef` at once;
    the fragments cover the first rows exactly when their lengths, summed, equal the rows'."""
    first, then = rows[:cut], rows[cut:]
    starts = [lo for lo, _, _ in then]
    fragments, total, covered = [], 0, 0
    for lo, hi, s in first:
        total += hi - lo
        lo, hi = lo + s, hi + s
        for n in dilations(lo, hi):
            a, b = (_times_pow2(lo, n), _times_pow2(hi, n)) if n else (lo, hi)
            for c, d, t in then[max(bisect_right(starts, a) - 1, 0):bisect_left(starts, b)]:
                if a < d:
                    c, d = max(a, c), min(b, d)
                    c, d, t = (_times_pow2(c, -n), _times_pow2(d, -n), _times_pow2(t, -n)) if n else (c, d, t)
                    fragments.append((c - s, d - s, s + t))
                    covered += d - c
    result = eager_translation(fragments, coef)
    if covered != total:
        raise PreconditionError(error)
    return result


def per_call_compose(first: PiecewiseTranslation, then: PiecewiseTranslation) -> PiecewiseTranslation:
    """`compose` as one `lookup_pull_back` with n = 0 on the `_coordinates` of both maps."""
    _, rows, coef = coordinates_with_back(first.coefs + then.coefs)
    return lookup_pull_back(rows, len(first.coefs), coef, COMPOSE_ERROR)


def per_call_dyadic_extension(base: PiecewiseTranslation, region) -> PiecewiseTranslation:
    """`dyadic_extension` in both forms as one `lookup_pull_back`: the dilation sets are found on
    the region's image pieces for the largest |n|, N, then again on the coordinates, whose unit
    `_coordinates` makes hold 2**N; the zero check runs on the image as a set."""
    rows, image = ((tuple((lo, hi, Fraction(0)) for lo, hi in region.coefs), region)
                   if isinstance(region, IntervalSet) else (region.coefs, region.image))
    if image.zero_in_closure():
        raise PreconditionError("region must stay away from 0")

    def octaves_of(lo, hi, unit=1):
        near, far = sorted((abs(lo), abs(hi)))
        return range(floor_log2(near, unit), ceil_log2(far, unit))

    octaves = {(lo > 0, m) for lo, hi in base.domain.coefs for m in octaves_of(lo, hi)}

    def dilations(lo, hi, unit=1) -> set:
        return {m - k for k in octaves_of(lo, hi, unit) for sign, m in octaves if sign == (lo > 0)}

    top = max((abs(n) for lo, hi in image.coefs for n in dilations(lo, hi)), default=0)
    unit, coords, coef = coordinates_with_back(rows + base.coefs, top)
    return lookup_pull_back(coords, len(rows), coef, EXTENSION_ERROR, lambda lo, hi: dilations(lo, hi, unit))


def per_call_compose_power(sigma: SigmaMap, power: int) -> PiecewiseTranslation:
    """`compose_power` by binary powering with one `per_call_dyadic_extension` per squaring and
    per set bit, each step a finished map of Fractions."""
    current = sigma.mapping
    for bit in bin(power)[3:]:
        current = per_call_dyadic_extension(current, current)
        if bit == "1":
            current = per_call_dyadic_extension(sigma.mapping, current)
    return current


# ---------------------------------------------------------------------------
# The object-level exact paths that coefficient triples replaced: fragments,
# translates and covers built as Interval/IntervalSet objects, and a
# piecewise-constant function canonicalized by grouping its pairs by value.


def grouped_piecewise(pairs) -> tuple[tuple, IntervalSet]:
    """(canonical pairs, domain) of (IntervalSet, value) pairs: one merged set per value,
    pairs in value order; ValueError when pieces of two values overlap."""
    grouped: dict = {}
    for piece, value in pairs:
        if not piece.is_empty:
            grouped.setdefault(value, []).extend(piece.pieces)
    canonical = tuple((IntervalSet.from_intervals(ivs), v) for v, ivs in sorted(grouped.items()))
    ivs = sorted((iv for piece, _ in canonical for iv in piece), key=lambda iv: iv.lo.coef)
    if any(a.hi > b.lo for a, b in zip(ivs, ivs[1:])):
        raise ValueError("pieces overlap")
    return canonical, IntervalSet.from_intervals(ivs)


def object_tiling_failure(fragments: Sequence[Interval], target: IntervalSet) -> IntervalSet:
    """Where Interval fragments fail to tile the target, from one sweep."""
    items = [(iv.lo.coef, iv.hi.coef, 0) for iv in target]
    items += [(iv.lo.coef, iv.hi.coef, 1) for iv in fragments]
    return IntervalSet.from_intervals(
        Interval(RationalPi(lo), RationalPi(hi))
        for lo, hi, count, tags in sweep(items)
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
        IntervalSet.single(RationalPi(-1), RationalPi(1))
    )
    witness = None
    if trans_failure.is_empty:
        witness, _ = grouped_piecewise((IntervalSet((iv,)), shift) for iv, shift in fragments)
    if W.zero_in_closure():
        raise PreconditionError("dilation congruence is undecidable with 0 in the closure of the set")
    positive, negative = object_annulus_fragments(W)
    dil_failure = object_tiling_failure(positive, IntervalSet.single(RationalPi(1), RationalPi(2)))
    dil_failure = dil_failure.union(
        object_tiling_failure(negative, IntervalSet.single(RationalPi(-2), RationalPi(-1))))
    return (trans_failure.is_empty, dil_failure.is_empty, witness,
            trans_failure.union(dil_failure))


def step_from_covers(window: IntervalSet, covers) -> StepFunction:
    """Sum of the indicators of the covers, coefficient pairs (lo, hi), as a step function
    on `window`: one sweep over the window pieces (tagged True) and the covers (tagged
    False); inside the window the value is the count less one."""
    items = [(iv.lo.coef, iv.hi.coef, True) for iv in window]
    items += [(lo, hi, False) for lo, hi in covers]
    return StepFunction.from_triples(merge_cells(
        (lo, hi, count - 1) for lo, hi, count, tags in sweep(items) if True in tags))


def loop_midpoint_grid(W: IntervalSet, window: IntervalSet, count: int) -> list[RationalPi]:
    """Midpoints of `per_row` even cells of every row of W's dimension function on the
    window, each point formed by `RationalPi` arithmetic on the row's interval."""
    rows = dimension_step_function(W, window).rows()
    per_row = -(-count // len(rows)) if rows else 0
    points = []
    for iv, _ in rows:
        width = (iv.hi - iv.lo) / per_row
        for i in range(per_row):
            points.append(iv.lo + width * i + width / 2)
    return points


def hit_sets(W: IntervalSet, query: IntervalSet) -> list[tuple]:
    """Pieces (lo, hi) of the translates 2**-j * W - 2*pi*k, j >= 1, that can meet the query,
    uncut (`step_from_covers` keeps only the cells inside the query)."""
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


def windowed_step_function(W: IntervalSet, query: IntervalSet) -> StepFunction:
    """The dimension function of W on a nonempty query away from 0, built on the query
    alone from every translate deep enough to reach it: the cost grows with the depth."""
    return step_from_covers(query, hit_sets(W, query))


def fraction_dimension_function(W: IntervalSet) -> StepFunction:
    """`dimension_function` on Fraction coefficients, as it ran before the integer
    coordinates: a Fraction window, each shorter piece dilated by doubling scales while
    it starts below pi, the levels 2**-j * W divided by 2**j and folded with a Fraction
    unit, and one sweep whose cells are already coefficients."""
    _require_wavelet_set(W)
    items = [(Fraction(-1), Fraction(1), 0)]
    for lo, hi in W.coefs:
        near = lo if lo > 0 else -hi
        if hi - lo == near and near < 1:
            items.append((lo, Fraction(1), 1) if lo > 0 else (Fraction(-1), hi, 1))
            continue
        scale = 1
        while near * scale < 1:
            items.append((lo * scale, hi * scale, 1))
            scale *= 2
    pieces = [(lo / 2**j, hi / 2**j) for j in range(1, ceil_log2(W.max_abs().coef)) for lo, hi in W.coefs]
    items += [(lo + s, hi + s, 2) for lo, hi, s in _fold(pieces, Fraction(1)) if s]
    return StepFunction.from_triples(
        ((lo, hi, count - 2 * (1 in tags)) for lo, hi, count, tags in sweep(items) if 0 in tags))


def object_hit_sets(W: IntervalSet, query: IntervalSet) -> list[IntervalSet]:
    """The translates 2**-j * W - 2*pi*k, j >= 1, that can meet the query, as sets."""
    eps = query.dist_zero()
    hits = []
    j = 1
    while True:
        scaled = W.dilate(-j)
        radius = scaled.max_abs()
        if radius < eps:
            break
        k_max = math.floor((radius.coef + 1) / 2)
        hits += [scaled.translate(RationalPi(-2 * k)) for k in range(-k_max, k_max + 1)]
        j += 1
    return hits


def object_step_pairs(W: IntervalSet, query: IntervalSet) -> tuple[tuple, IntervalSet]:
    """(canonical pairs, domain) of the dimension function of W on the query: one
    one-interval set per sweep cell over the query and the translates, grouped by value."""
    items = [(iv.lo.coef, iv.hi.coef, True) for iv in query]
    items += [(iv.lo.coef, iv.hi.coef, False) for s in object_hit_sets(W, query) for iv in s]
    return grouped_piecewise(
        (IntervalSet((Interval(RationalPi(lo), RationalPi(hi)),)), count - 1)
        for lo, hi, count, tags in sweep(items) if True in tags)


def object_core_regions(Wa: IntervalSet, Wb: IntervalSet, query: IntervalSet) -> IntervalSet:
    """Where the object-level dimension functions of Wa and Wb differ on the query."""
    rows = [(iv.lo.coef, iv.hi.coef, value)
            for W in (Wa, Wb) for piece, value in object_step_pairs(W, query)[0] for iv in piece]
    return IntervalSet.from_intervals(Interval(RationalPi(lo), RationalPi(hi))
                                      for lo, hi, _, values in sweep(rows) if len(values) == 2)


# ---------------------------------------------------------------------------
# Interval sets, piecewise-constant functions and the sigma sweeps as they were
# written on Interval and RationalPi objects, before coefficient pairs became
# the stored data.


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


def object_piecewise(triples, value=lambda tag: tag) -> tuple[tuple, IntervalSet, tuple]:
    """(pairs, domain, rows) of (lo, hi, tag) triples, built from Interval objects: rows
    from the merged sweep cells, a row touching the last one reusing its end, and the
    domain joined from each run of touching rows; ValueError when two tags overlap."""
    index: dict = {}
    cells = list(sweep((lo, hi, index.setdefault(tag, len(index))) for lo, hi, tag in triples))
    if any(len(tags) > 1 for *_, tags in cells):
        raise ValueError("pieces overlap")
    values = [value(tag) for tag in index]
    by_value: list[list[Interval]] = [[] for _ in values]
    rows, runs = [], []  # runs: [first, last] row of each domain interval
    for lo, hi, t in merge_cells((lo, hi, tags[0]) for lo, hi, _, tags in cells):
        touching = bool(rows) and rows[-1][0].hi.coef == lo
        iv = Interval(rows[-1][0].hi if touching else RationalPi(lo), RationalPi(hi))
        by_value[t].append(iv)
        rows.append((iv, values[t]))
        if touching:
            runs[-1][1] = iv
        else:
            runs.append([iv, iv])
    order = sorted(range(len(values)), key=values.__getitem__)
    pairs = tuple((IntervalSet(tuple(by_value[t])), values[t]) for t in order if by_value[t])
    domain = IntervalSet(tuple(first if first is last else Interval(first.lo, last.hi)
                               for first, last in runs))
    return pairs, domain, tuple(rows)


def two_path_rows(triples) -> list[list]:
    """Canonical (lo, hi, tag) rows as `Piecewise` built them with two paths: triples
    already sorted, non-empty and pairwise disjoint merged in one pass, any others
    overlaid by one sweep over small-int tags, which merges overlaps of one tag;
    ValueError when two tags overlap."""
    triples = list(triples)
    if all(a[1] <= b[0] for a, b in zip(triples, triples[1:])) and all(lo < hi for lo, hi, _ in triples):
        return merge_cells(triples)
    index: dict = {}
    cells = list(sweep((lo, hi, index.setdefault(tag, len(index))) for lo, hi, tag in triples))
    if any(len(tags) > 1 for *_, tags in cells):
        raise ValueError("pieces overlap")
    tags = list(index)
    return [[lo, hi, tags[t]] for lo, hi, t in merge_cells(
        (lo, hi, cell_tags[0]) for lo, hi, _, cell_tags in cells)]


def sorted_disjoint_union(pairs):
    """Union of pairwise disjoint coefficient pairs (lo, hi) by one sort, or None when two
    overlap: the image check of `PiecewiseTranslation` before it shared `Piecewise`'s rule."""
    items = sorted(pairs, key=lambda pair: _order_key(pair[0]))
    if any(a[1] > b[0] for a, b in zip(items, items[1:])):
        return None
    return IntervalSet.from_cells(items)


def object_value_at(rows, x: RationalPi):
    """Value at x by bisection over (Interval, value) rows ordered by left endpoint."""
    i = bisect_right(rows, x.coef, key=lambda row: row[0].lo.coef) - 1
    if i >= 0 and x < rows[i][0].hi:
        return rows[i][1]
    raise PreconditionError(f"{x} lies outside the domain")


def object_compose(first: PiecewiseTranslation, then: PiecewiseTranslation) -> PiecewiseTranslation:
    """then(first(x)) from one sweep over the image pieces of `first` and the domain
    pieces of `then`, each tagged by the index of its (piece, shift) pair."""
    shifts = [shift.coef for _, shift in first.pairs + then.pairs]
    items = [(iv.lo.coef + shifts[i], iv.hi.coef + shifts[i], i)
             for i, (piece, _) in enumerate(first.pairs) for iv in piece]
    items += [(iv.lo.coef, iv.hi.coef, i)
              for i, (piece, _) in enumerate(then.pairs, len(first.pairs)) for iv in piece]
    fragments = []
    for lo, hi, count, tags in sweep(items):
        if count == 2:
            back, forth = shifts[min(tags)], shifts[max(tags)]
            fragments.append((lo - back, hi - back, back + forth))
    result = PiecewiseTranslation.from_triples(fragments)
    if result.domain != first.domain:
        raise PreconditionError("image of the first map escapes the second map's domain")
    return result


def object_dyadic_extension(base: PiecewiseTranslation, region: IntervalSet) -> PiecewiseTranslation:
    """The extension of `base` on a region, from one sweep of the region's useful
    dilates (tagged n) and the base pieces (tagged by their RationalPi shift)."""
    if region.zero_in_closure():
        raise PreconditionError("region must stay away from 0")
    w_min, w_max = base.domain.dist_zero().coef, base.domain.max_abs().coef
    items = [(iv.lo.coef, iv.hi.coef, shift) for piece, shift in base.pairs for iv in piece]
    for iv in region:
        near, far = sorted((abs(iv.lo.coef), abs(iv.hi.coef)))
        for n in range(ceil_log2(w_min / far), floor_log2(w_max / near) + 1):
            items.append((iv.lo.coef * Fraction(2) ** n, iv.hi.coef * Fraction(2) ** n, n))
    fragments = []
    for lo, hi, _, tags in sweep(items):
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


def object_commutant_witness(composed: PiecewiseTranslation):
    """The first (Interval, shift) row whose shift leaves the 2*pi*Z lattice, or None."""
    return next(((iv, shift) for iv, shift in composed.cases() if not shift.is_two_pi_multiple),
                None)


def bisect_dimension_values(W: IntervalSet, points) -> list[int]:
    """Counts read one point at a time by `Piecewise.value_at`, a bisection of the rows
    of `dimension_function(W)`, after the same range checks on `RationalPi` comparisons."""
    points = list(points)
    bad = next((xi for xi in points if xi.is_zero or not RationalPi(-1) <= xi < RationalPi(1)), None)
    if bad is not None:
        _require_wavelet_set(W)
        raise PreconditionError("the dimension function is not evaluated at 0" if bad.is_zero
                                else "xi must lie in [-pi, pi)")
    return [dimension_function(W).value_at(xi) for xi in points]


def scan_value_at(f, x: RationalPi):
    """Value of a piecewise-constant function at x by a scan over all its pairs."""
    for piece, value in f.pairs:
        if piece.contains(x):
            return value
    raise PreconditionError(f"{x} lies outside the domain")


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
