import random
from fractions import Fraction

import pytest

from wavemult.dimension import (
    StepFunction,
    core_equivalence_regions,
    core_equivalent_exact,
    dimension_integral,
    dimension_step_function,
    dimension_values,
    midpoint_grid,
    mra_consistent,
)
from wavemult.exact import (
    MINUS_PI,
    PI,
    Interval,
    IntervalSet,
    PreconditionError,
    RationalPi,
    TWO_PI,
    ZERO,
)
from wavemult.parsing import parse_set
from wavemult.wavelet_sets import CATALOG_NAMES, catalog

from _oracles import brute_dimension_count, random_point_in


def rp(num, den=1):
    return RationalPi.of(num, den)


POS_WINDOW = parse_set("[1/64pi,1pi)")
FULL_WINDOW = parse_set("[-1pi,-1/64pi),[1/64pi,1pi)")


class TestDimensionAt:
    def test_shannon_midpoint(self, shannon):
        assert dimension_values(shannon, [rp(1, 2)]) == [1]

    def test_w1_midpoint(self, w1):
        assert dimension_values(w1, [rp(1, 2)]) == [1]

    def test_journe_frozen_values(self, journe):
        # hand-enumerated lattice hits
        assert dimension_values(journe, [rp(1, 8), rp(3, 4), rp(5, 7), rp(1, 2)]) == [2, 0, 0, 1]
        assert dimension_values(journe, []) == []

    def test_brute_force_agreement(self):
        rng = random.Random(42)
        for name in CATALOG_NAMES:
            W = catalog(name)
            points = [random_point_in(rng, FULL_WINDOW) for _ in range(50)]
            points += [rp(-1), rp(-1, 8), rp(1, 8), rp(-1, 2**11)]  # at powers of two
            want = [brute_dimension_count(W, xi) for xi in points]
            assert dimension_values(W, points) == want, name

    def test_preconditions(self, shannon):
        with pytest.raises(PreconditionError, match="not evaluated at 0"):
            dimension_values(shannon, [rp(1, 2), ZERO])
        with pytest.raises(PreconditionError, match=r"xi must lie in \[-pi, pi\)"):
            dimension_values(shannon, [rp(3, 2)])
        with pytest.raises(PreconditionError, match=r"xi must lie in \[-pi, pi\)"):
            dimension_values(shannon, [rp(1)])
        with pytest.raises(PreconditionError, match="not a wavelet set"):
            dimension_values(parse_set("[1pi,3pi)"), [rp(1, 2)])


class TestStepFunction:
    def test_shannon_constant_one(self, shannon):
        sf = dimension_step_function(shannon, parse_set("[1/8pi,1pi)"))
        assert sf.constant_value() == 1

    def test_w1_constant_one_both_sides(self, w1):
        sf = dimension_step_function(w1, FULL_WINDOW)
        assert sf.constant_value() == 1

    def test_journe_non_constant(self, journe):
        sf = dimension_step_function(journe, parse_set("[1/8pi,1pi)"))
        assert sf.constant_value() is None
        assert sf.max_value >= 2
        # frozen breakpoint structure on [pi/8, pi)
        assert [(iv.to_text(), v) for iv, v in sf.rows()] == [
            ("[1/8pi,2/7pi)", 2),
            ("[2/7pi,4/7pi)", 1),
            ("[4/7pi,6/7pi)", 0),
            ("[6/7pi,pi)", 1),
        ]

    def test_pointwise_consistency(self):
        rng = random.Random(7)
        for name in CATALOG_NAMES:
            W = catalog(name)
            sf = dimension_step_function(W, FULL_WINDOW)
            for _ in range(200):
                xi = random_point_in(rng, FULL_WINDOW)
                assert sf.value_at(xi) == brute_dimension_count(W, xi)

    @pytest.mark.parametrize("depth", [12, 40])
    def test_deep_windows_match_lattice_count(self, depth):
        # [-pi, -pi/2**depth) u [pi/2**depth, pi); no contributing j exceeds depth + 3
        edge = RationalPi(Fraction(1, 2**depth))
        window = IntervalSet.from_intervals([Interval(MINUS_PI, -edge), Interval(edge, PI)])
        rng = random.Random(depth)
        for name in CATALOG_NAMES:
            W = catalog(name)
            sf = dimension_step_function(W, window)
            points = [iv.lo for iv, _ in sf.rows()]
            points += [random_point_in(rng, window, 2**20) for _ in range(40)]
            for xi in points:
                assert sf.value_at(xi) == brute_dimension_count(W, xi, j_cap=depth + 4), (name, xi)

    def test_window_monotonicity(self, journe):
        small = parse_set("[1/8pi,1/2pi)")
        big = parse_set("[1/16pi,1pi)")
        sf_small = dimension_step_function(journe, small)
        sf_big = dimension_step_function(journe, big)
        assert sf_big.restrict(small) == sf_small

    def test_preconditions(self, shannon):
        with pytest.raises(PreconditionError):
            dimension_step_function(shannon, parse_set("[1/2pi,3/2pi)"))
        with pytest.raises(PreconditionError):
            dimension_step_function(shannon, parse_set("[-1/4pi,1/4pi)"))
        with pytest.raises(PreconditionError):
            dimension_step_function(parse_set("[1pi,2pi)"), POS_WINDOW)

    def test_empty_query(self, shannon):
        sf = dimension_step_function(shannon, IntervalSet.empty())
        assert sf.pairs == ()

    def test_values_are_nonnegative_ints(self, journe):
        sf = dimension_step_function(journe, FULL_WINDOW)
        for _, value in sf.pairs:
            assert isinstance(value, int) and value >= 0

    def test_restrict_requires_subwindow(self, shannon):
        sf = dimension_step_function(shannon, POS_WINDOW)
        with pytest.raises(PreconditionError):
            sf.restrict(parse_set("[-1/2pi,-1/4pi)"))

    def test_partition_validation(self):
        window = parse_set("[0pi,2pi)")
        with pytest.raises(ValueError):
            StepFunction(window, ((parse_set("[0pi,1pi)"), 1),))
        with pytest.raises(ValueError):
            StepFunction(window, ((window, -1),))


class TestMraDetection:
    def test_catalog_flags(self, shannon, journe, w1, w2):
        assert mra_consistent(shannon)
        assert mra_consistent(w1)
        assert mra_consistent(w2)
        assert not mra_consistent(journe)

    @pytest.mark.parametrize("depth", [0, -1, -7])
    def test_depth_below_one_is_a_precondition_error(self, shannon, depth):
        with pytest.raises(PreconditionError, match=f"depth must be at least 1, got {depth}"):
            mra_consistent(shannon, depth)

    def test_depth_one_is_the_smallest_window(self, shannon, journe):
        assert mra_consistent(shannon, 1)
        assert not mra_consistent(journe, 1)


class TestDimensionIntegral:
    def test_exact_limit_and_tail(self):
        for name in CATALOG_NAMES:
            report = dimension_integral(catalog(name))
            assert report.limit == TWO_PI
            sums = report.partial_sums
            assert len(sums) == 30
            assert all(a < b for a, b in zip(sums, sums[1:]))
            assert all(s < report.limit for s in sums)
            gap = report.limit - sums[-1]
            assert gap == TWO_PI.times_pow2(-30)
            assert gap.coef <= (TWO_PI.times_pow2(-29)).coef


class TestCoreEquivalence:
    def test_mirror_pair_equivalent(self, w1, w2):
        assert core_equivalent_exact(w1, w2, FULL_WINDOW)
        assert core_equivalence_regions(w1, w2, FULL_WINDOW).is_empty

    def test_reflexive(self, journe):
        assert core_equivalent_exact(journe, journe, FULL_WINDOW)

    def test_shannon_vs_journe(self, shannon, journe):
        window = parse_set("[1/8pi,1pi)")
        assert not core_equivalent_exact(shannon, journe, window)
        differing = core_equivalence_regions(shannon, journe, window)
        assert not differing.is_empty
        # shannon is constant 1 there, so the difference region is where journe != 1
        assert differing == parse_set("[1/8pi,2/7pi),[4/7pi,6/7pi)")


class TestMidpointGrid:
    def test_avoids_breakpoints_and_covers(self, journe):
        grid = midpoint_grid(journe, POS_WINDOW, 64)
        assert len(grid) >= 64
        sf = dimension_step_function(journe, POS_WINDOW)
        breakpoints = {iv.lo for iv, _ in sf.rows()} | {iv.hi for iv, _ in sf.rows()}
        for xi in grid:
            assert xi not in breakpoints
            assert POS_WINDOW.contains(xi)

    def test_empty_window_gives_empty_grid(self, journe):
        assert midpoint_grid(journe, IntervalSet.empty(), 16) == []
