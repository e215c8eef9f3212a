"""The weighted cover walk and its callers against the midpoint-recount oracles."""

import itertools
import random
from fractions import Fraction

import pytest

from wavemult.dimension import core_equivalence_regions, dimension_step_function
from wavemult.exact import Interval, IntervalSet, RationalPi, cover
from wavemult.parsing import parse_set
from wavemult.sigma import build_sigma, compose_power, dyadic_extension
from wavemult.wavelet_sets import CATALOG_NAMES, catalog

from _oracles import (
    extension_at,
    fraction_tiling_check,
    hull_dyadic_extension,
    midpoint_cover,
    midpoint_differing_regions,
    midpoint_set_algebra,
    midpoint_step_from_covers,
    midpoint_tiling_failure,
    random_interval_set,
    random_point_in,
    random_rational_pi,
    sort_merge_intervals,
    step_from_covers,
)

F = Fraction
AWAY_FROM_ZERO = parse_set("[-1pi,-1/64pi),[1/64pi,1pi)")
NEAR_ZERO = parse_set("[-1/16pi,1/16pi)")


def random_intervals(rng, max_count=8):
    """A list of intervals that may overlap, touch or repeat."""
    out = []
    for _ in range(rng.randint(0, max_count)):
        a, b = random_rational_pi(rng, -4, 4, 8), random_rational_pi(rng, -4, 4, 8)
        if a != b:
            out.append(Interval(min(a, b), max(a, b)))
    if out and rng.random() < 0.3:
        out.append(rng.choice(out))
    return out


def coefs(intervals):
    """Coefficient pairs (lo, hi) of intervals, the form the tiling oracles take."""
    return [(iv.lo.coef, iv.hi.coef) for iv in intervals]


def cell_starts(pt):
    """Left endpoints of the atomic rows of a piecewise translation."""
    return [iv.lo for iv, _ in pt.cases()]


class TestSweep:
    """`cover`, the one weighted walk, against hand counts and the midpoint oracle: the weights
    of the old tags give each run its total, gaps included."""

    def test_counts_and_tags(self):
        items = [(F(0), F(2), 1), (F(1), F(3), 2), (F(1), F(2), 1)]
        assert cover(items) == [(F(0), F(1), 1), (F(1), F(2), 4), (F(2), F(3), 2)]
        assert cover([(int(lo), int(hi), w) for lo, hi, w in items]) == [(0, 1, 1), (1, 2, 4), (2, 3, 2)]

    def test_gaps_and_touching_intervals(self):
        items = [(F(0), F(1), 1), (F(1), F(2), 1), (F(3), F(4), 1)]
        assert cover(items) == [(F(0), F(2), 1), (F(2), F(3), 0), (F(3), F(4), 1)]
        assert cover([]) == []

    def test_close_endpoints_stay_ordered(self):
        # both endpoints fall in the same 2**-64 bucket of the sort key
        a, b = F(1, 3), F(1, 3) + F(1, 2**80)
        items = [(b, F(1), 2), (a, F(1), 1)]
        assert cover(items) == [(a, b, 1), (b, F(1), 3)]

    @pytest.mark.parametrize("seed", range(100))
    def test_counts_match_membership(self, seed):
        rng = random.Random(seed)
        ivs = random_intervals(rng)
        runs = cover([(iv.lo.coef, iv.hi.coef, 1) for iv in ivs])
        for lo, hi, count in runs:
            assert lo < hi
            mid = RationalPi((lo + hi) / 2)
            assert count == sum(1 for iv in ivs if iv.lo <= mid < iv.hi)
        assert all(a[1] == b[0] and a[2] != b[2] for a, b in zip(runs, runs[1:]))
        covered = IntervalSet.from_intervals(
            Interval(RationalPi(lo), RationalPi(hi)) for lo, hi, count in runs if count
        )
        assert covered == IntervalSet.from_intervals(ivs)

    @pytest.mark.parametrize("seed", range(100))
    def test_weighted_totals_match_midpoint_sums(self, seed):
        """Weights that are negative, zero or cancel, on int coordinates and on the same items as
        Fractions past the 3072-bit budget, some of them in one 2**-64 bucket."""
        rng = random.Random(seed)
        ints = []
        for _ in range(rng.randint(0, 10)):
            lo, hi = sorted(rng.sample(range(-24, 25), 2))
            w = rng.choice((-3, -1, 0, 1, 2))
            ints.append((lo, hi, w))
            if rng.random() < 0.3:  # the same interval, cancelled
                ints.append((lo, hi, -w))
        deep = F(1, 3**2000)
        assert deep.denominator.bit_length() > 3072
        fractions = [(lo + deep * rng.randint(0, 2), hi + deep * rng.randint(0, 2), w) for lo, hi, w in ints]
        for items in (ints, fractions):
            runs = cover(rng.sample(items, len(items)))
            assert runs == midpoint_cover(items), seed
            assert all(a[1] == b[0] and a[2] != b[2] for a, b in zip(runs, runs[1:]))


class TestAgainstMidpointOracles:
    @pytest.mark.parametrize("seed", range(100))
    def test_from_intervals(self, seed):
        ivs = random_intervals(random.Random(seed))
        assert IntervalSet.from_intervals(ivs) == sort_merge_intervals(ivs)

    @pytest.mark.parametrize("seed", range(100))
    def test_intersect_and_difference(self, seed):
        rng = random.Random(seed)
        A, B = random_interval_set(rng), random_interval_set(rng)
        assert (A.intersect(B), A.difference(B)) == midpoint_set_algebra(A, B)

    @pytest.mark.parametrize("seed", range(100))
    def test_tiling_check(self, seed):
        rng = random.Random(seed)
        fragments = random_intervals(rng)
        target = random_interval_set(rng, max_pieces=3)
        assert fraction_tiling_check(coefs(fragments), target) == midpoint_tiling_failure(fragments, target)

    def test_tiling_check_on_exact_tilings(self):
        target = parse_set("[-1pi,1pi)")
        halves = [Interval(RationalPi(-1), RationalPi(0)), Interval(RationalPi(0), RationalPi(1))]
        assert fraction_tiling_check(coefs(halves), target) == IntervalSet.empty()
        assert fraction_tiling_check(coefs(halves + halves[:1]), target) == parse_set("[-1pi,0pi)")

    @pytest.mark.parametrize("seed", range(100))
    def test_step_from_covers(self, seed):
        rng = random.Random(seed)
        window = random_interval_set(rng)
        covers = [random_interval_set(rng) for _ in range(rng.randint(0, 6))]
        cover_pieces = coefs(iv for s in covers for iv in s)
        assert step_from_covers(window, cover_pieces) == midpoint_step_from_covers(window, covers)

    @pytest.mark.parametrize("seed", range(30))
    def test_core_equivalence_regions(self, seed):
        rng = random.Random(seed)
        query = random_interval_set(rng).dilate(-3).intersect(AWAY_FROM_ZERO)
        a, b = rng.sample(CATALOG_NAMES, 2)
        Wa, Wb = catalog(a), catalog(b)
        expected = midpoint_differing_regions(
            dimension_step_function(Wa, query), dimension_step_function(Wb, query), query
        )
        assert core_equivalence_regions(Wa, Wb, query) == expected


class TestSigmaAgainstPointwiseExtension:
    @pytest.mark.parametrize("a,b", list(itertools.permutations(CATALOG_NAMES, 2)))
    def test_powers_iterate_the_extension(self, a, b):
        sigma = build_sigma(catalog(a), catalog(b))
        rng = random.Random(f"{a}->{b}")
        for p in (1, 2, 3, 4):
            composed = compose_power(sigma, p)
            points = cell_starts(composed) + [random_point_in(rng, sigma.w1) for _ in range(20)]
            for x in points:
                y = x
                for _ in range(p):
                    y = extension_at(sigma.mapping, y)
                assert composed.apply(x) == y

    @pytest.mark.parametrize("seed", range(12))
    def test_dyadic_extension_on_random_regions(self, seed):
        rng = random.Random(seed)
        a, b = rng.sample(CATALOG_NAMES, 2)
        base = build_sigma(catalog(a), catalog(b)).mapping
        region = random_interval_set(rng).difference(NEAR_ZERO)
        ext = dyadic_extension(base, region)
        assert ext.domain == region
        assert ext == hull_dyadic_extension(base, region)
        points = cell_starts(ext)
        if not region.is_empty:
            points += [random_point_in(rng, region) for _ in range(20)]
        for x in points:
            assert ext.apply(x) == extension_at(base, x)
