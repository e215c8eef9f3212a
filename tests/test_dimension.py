import random
from fractions import Fraction

import pytest

from wavemult import dimension
from wavemult.dimension import (
    StepFunction,
    core_equivalence_regions,
    dimension_function,
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
from wavemult.wavelet_sets import CATALOG_NAMES, catalog, is_wavelet_set

from _oracles import (
    bisect_dimension_values,
    brute_dimension_count,
    deep_piece_wavelet_set,
    loop_midpoint_grid,
    near_zero_wavelet_set,
    random_point_in,
    two_interval_wavelet_set,
)


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

    def test_any_iterable_of_points(self, monkeypatch, journe):
        """The points are read once, before the check that they are not empty."""
        points = [rp(1, 3), rp(-5, 7)]
        assert dimension_values(journe, points) == [1, 0]
        for form in (tuple, iter, lambda xs: (x for x in xs)):
            assert dimension_values(journe, form(points)) == [1, 0], form
        builds = []
        monkeypatch.setattr(dimension, "dimension_function", builds.append)
        assert dimension_values(journe, iter(())) == [] and builds == []

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

    def test_the_set_is_checked_once_and_before_the_points(self, monkeypatch, shannon):
        with pytest.raises(PreconditionError, match="not a wavelet set"):
            dimension_values(parse_set("[1pi,3pi)"), [ZERO])
        assert dimension_values(parse_set("[1pi,3pi)"), []) == []
        checks = []
        check = dimension._require_wavelet_set
        monkeypatch.setattr(dimension, "_require_wavelet_set", lambda W: checks.append(W) or check(W))
        dimension.dimension_function.cache_clear()
        assert dimension_values(shannon, [rp(1, 2), rp(-1, 3)]) == [1, 1]
        assert checks == [shannon]

    def test_a_bad_query_or_point_builds_no_dimension_function(self):
        """On a deep-piece set, checked already, whose D takes a while to build, each invalid
        window or point raises its message before D is built: the cache records no miss."""
        W = deep_piece_wavelet_set(400, 400)
        assert is_wavelet_set(W).accepted
        dimension.dimension_function.cache_clear()
        for window, message in (("[-2pi,0pi)", r"must lie inside \[-pi, pi\)"),
                                ("[-1pi,-1/2pi),[1/2pi,3/2pi)", r"must lie inside \[-pi, pi\)"),
                                ("[-1/4pi,0pi)", "must stay away from 0"),
                                ("[-1pi,-1/2pi),[0pi,1pi)", "must stay away from 0")):
            with pytest.raises(PreconditionError, match=message):
                dimension_step_function(W, parse_set(window))
        for points, message in (([rp(1, 2), rp(3, 2)], r"xi must lie in \[-pi, pi\)"),
                                ([rp(-1, 2), rp(1)], r"xi must lie in \[-pi, pi\)"),
                                ([rp(-1, 2), ZERO], "not evaluated at 0")):
            with pytest.raises(PreconditionError, match=message):
                dimension_values(W, points)
        assert dimension.dimension_function.cache_info().misses == 0
        assert dimension_step_function(W, parse_set("[-1pi,-1/2pi),[1/2pi,1pi)")).pairs
        assert dimension_values(W, [MINUS_PI, rp(1, 2)]) and dimension.dimension_function.cache_info().misses == 1


def below_row_ends(W):
    """D = `dimension_function(W)` and one point just below the end of each of its rows,
    which falls in that row: a third of the narrowest row over the unit of D's coordinates
    below it, less than one coordinate step, so a ceiling in place of the floor reads the
    next row."""
    D = dimension_function(W)
    unit, _ = D._on_unit()
    gap = min(hi - lo for lo, hi, _ in D.coefs) / (3 * unit)
    return D, [RationalPi(hi - gap) for _, hi, _ in D.coefs]


class TestOrderedWalk:
    """`dimension_values` reads each point by one bisection of D's row starts, on points in
    any order, at and just below the row boundaries; the reference bisects D's `Fraction`
    rows by `value_at`."""

    def test_unsorted_and_repeated_points(self, journe):
        rng = random.Random(25)
        points = [random_point_in(rng, FULL_WINDOW) for _ in range(40)]
        points += points[:7] + [points[3]] * 3
        rng.shuffle(points)
        want = [brute_dimension_count(journe, xi) for xi in points]
        assert bisect_dimension_values(journe, points) == want
        assert dimension_values(journe, points) == want
        assert dimension_values(journe, sorted(points)) == [want[points.index(xi)] for xi in sorted(points)]

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_points_at_row_starts(self, name):
        W = catalog(name)
        starts = [RationalPi(lo) for lo, _, _ in dimension_function(W).coefs if lo]
        values = [value for lo, _, value in dimension_function(W).coefs if lo]
        assert dimension_values(W, starts) == values == bisect_dimension_values(W, starts)
        assert dimension_values(W, starts[::-1]) == values[::-1]

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_points_just_below_row_boundaries(self, name):
        W = catalog(name)
        D, points = below_row_ends(W)
        want = [brute_dimension_count(W, xi) for xi in points]
        assert dimension_values(W, points) == want == [D.value_at(xi) for xi in points]
        assert want == [value for *_, value in D.coefs]

    def test_deep_rows(self):
        """2n + 9 rows whose endpoints carry about 400 bits; every row start and
        midpoint, backwards; a point just below each row end, every 40th also against
        the lattice count, whose levels reach 2**-400 pi."""
        W = deep_piece_wavelet_set(400, 400)
        D, below = below_row_ends(W)
        rows = D.coefs
        points = [RationalPi(lo) for lo, _, _ in rows if lo] + [RationalPi((lo + hi) / 2) for lo, hi, _ in rows]
        points = [xi for xi in points if xi.coef != 0][::-1]
        assert dimension_values(W, points) == bisect_dimension_values(W, points)
        values = dimension_values(W, below)
        assert values == [D.value_at(xi) for xi in below] == [value for *_, value in rows]
        assert values[::40] == [brute_dimension_count(W, xi, j_cap=410, k_cap=3) for xi in below[::40]]

    def test_past_the_coordinate_budget(self):
        """The 2**-10000 pi set of the stdlib-only CI step: points 2**-10000 pi apart."""
        W = near_zero_wavelet_set(10000)
        a = Fraction(1, 2**10000)
        points = [RationalPi(c) for c in (Fraction(1, 2), -a, -a / 2, -3 * a / 4, a / 3, -1, -a / 2, a)]
        assert dimension_values(W, points) == bisect_dimension_values(W, points)
        D, below = below_row_ends(W)  # D is 1, one int row over unit 1: only pi is an end
        assert dimension_values(W, below) == [D.value_at(xi) for xi in below] == [1]

    def test_fraction_rows_past_the_coordinate_budget(self):
        """Denominators 2**1536 - 1 and 2**1538 - 1 take D past the budget: its first start
        is the int -1 and the rest are Fractions, read by the points' own coefficients."""
        W = deep_piece_wavelet_set(1536, 2)
        D, points = below_row_ends(W)
        unit, rows = D._on_unit()
        assert unit == 1 and rows[0][0] == -1 and {type(lo) for lo, _, _ in rows[1:]} == {Fraction}
        values = dimension_values(W, points[::-1])[::-1]
        assert values == [D.value_at(xi) for xi in points] == [value for *_, value in rows]
        assert values[::600] == [brute_dimension_count(W, xi, j_cap=1545, k_cap=3) for xi in points[::600]]


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
        assert max(value for _, value in sf.pairs) >= 2
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
        restricted = ((piece.intersect(small), v) for piece, v in sf_big.pairs)
        assert tuple((piece, v) for piece, v in restricted if not piece.is_empty) == sf_small.pairs

    def test_preconditions(self, shannon):
        with pytest.raises(PreconditionError):
            dimension_step_function(shannon, parse_set("[1/2pi,3/2pi)"))
        with pytest.raises(PreconditionError):
            dimension_step_function(shannon, parse_set("[-1/4pi,1/4pi)"))
        with pytest.raises(PreconditionError):
            dimension_step_function(parse_set("[1pi,2pi)"), POS_WINDOW)

    def test_precondition_order(self, shannon):
        """Not a wavelet set, then a window leaving [-pi, pi), then a window touching 0."""
        with pytest.raises(PreconditionError, match="not a wavelet set"):
            dimension_step_function(parse_set("[1pi,2pi)"), parse_set("[-2pi,0pi)"))
        with pytest.raises(PreconditionError, match=r"must lie inside \[-pi, pi\)"):
            dimension_step_function(shannon, parse_set("[-2pi,0pi)"))
        with pytest.raises(PreconditionError, match="must stay away from 0"):
            dimension_step_function(shannon, parse_set("[-1/4pi,0pi)"))

    def test_empty_query(self, shannon):
        sf = dimension_step_function(shannon, IntervalSet.empty())
        assert sf.pairs == ()

    def test_values_are_nonnegative_ints(self, journe):
        sf = dimension_step_function(journe, FULL_WINDOW)
        for _, value in sf.pairs:
            assert isinstance(value, int) and value >= 0

    def test_piece_validation(self):
        with pytest.raises(ValueError, match="pieces overlap"):
            StepFunction.from_triples([(Fraction(0), Fraction(2), 1), (Fraction(1), Fraction(3), 2)])
        with pytest.raises(ValueError, match="nonnegative"):
            StepFunction.from_triples([(Fraction(0), Fraction(2), -1)])


class TestMraDetection:
    def test_catalog_flags(self, shannon, journe, w1, w2):
        assert mra_consistent(shannon)
        assert mra_consistent(w1)
        assert mra_consistent(w2)
        assert not mra_consistent(journe)

    def test_the_outer_octave_decides(self):
        """By the consistency equation D(xi) + D(xi + pi) = D(2 xi) + 1 (Bownik, Rzeszotnik
        & Speegle 2001), D = 1 on [-pi, -pi/2) u [pi/2, pi) forces D = 1 octave by octave
        towards 0, so no wavelet set tells the exact test from that window's constant."""
        sets = [catalog(name) for name in CATALOG_NAMES]
        sets += [near_zero_wavelet_set(n) for n in range(40)]
        sets += [deep_piece_wavelet_set(n, t) for n in (2, 3, 5, 12) for t in (2, 4, 12)]
        rng = random.Random(13)
        sets += [two_interval_wavelet_set(rng) for _ in range(300)]
        outer = parse_set("[-1pi,-1/2pi),[1/2pi,1pi)")
        verdicts = [mra_consistent(W) for W in sets]
        for W, verdict in zip(sets, verdicts):
            assert verdict == (dimension_step_function(W, outer).constant_value() == 1), W
        assert 0 < verdicts.count(False) < verdicts.count(True), verdicts.count(True)


NEAR_ZERO_N = [*range(65), 1000]


class TestNearZeroWaveletSets:
    """near_zero_wavelet_set(n) has a piece 2**(-n-1) pi from 0, and D = 1 off 0."""

    def test_paper_w1_is_n_2(self, w1):
        assert near_zero_wavelet_set(2) == w1

    @pytest.mark.parametrize("n", NEAR_ZERO_N)
    def test_accepted(self, n):
        assert is_wavelet_set(near_zero_wavelet_set(n)).accepted

    @pytest.mark.parametrize("n", NEAR_ZERO_N)
    def test_constant_one_past_the_near_piece(self, n):
        W = near_zero_wavelet_set(n)
        edge = PI * Fraction(2) ** (-n - 2)
        window = IntervalSet.from_intervals([Interval(MINUS_PI, -edge), Interval(edge, PI)])
        sf = dimension_step_function(W, window)
        assert sf.constant_value() == 1
        rng = random.Random(n)
        points = [MINUS_PI, -edge * Fraction(3, 2), edge, edge * Fraction(3, 2), edge * 2]
        points += [random_point_in(rng, window, 2**20) for _ in range(8)]
        for xi in points:
            assert sf.value_at(xi) == brute_dimension_count(W, xi, j_cap=n + 5, k_cap=2) == 1, (n, xi)

    @pytest.mark.parametrize("n", NEAR_ZERO_N)
    def test_mra_consistent(self, n):
        assert mra_consistent(near_zero_wavelet_set(n))


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
            assert gap == TWO_PI * Fraction(2) ** -30
            assert gap.coef <= TWO_PI.coef * Fraction(2) ** -29

    def test_limit_integrates_the_dimension_function(self, monkeypatch, journe):
        rows = dimension_function(journe).rows()
        raised = StepFunction.from_triples(
            (iv.lo.coef, iv.hi.coef, value + (i == 0)) for i, (iv, value) in enumerate(rows))
        monkeypatch.setattr(dimension, "dimension_function", lambda W: raised)
        report = dimension_integral(journe)
        assert report.limit == TWO_PI + (rows[0][0].hi - rows[0][0].lo)
        assert report.partial_sums[-1] == TWO_PI - TWO_PI * Fraction(2) ** -30

    def test_rejects_a_non_wavelet_set(self):
        with pytest.raises(PreconditionError, match="not a wavelet set"):
            dimension_integral(parse_set("[1pi,2pi)"))

    @pytest.mark.parametrize("terms", [1, 1024])
    def test_terms_at_both_edges(self, journe, terms):
        sums = dimension_integral(journe, terms).partial_sums
        assert len(sums) == terms and sums[-1] == TWO_PI - TWO_PI * Fraction(2) ** -terms

    @pytest.mark.parametrize("terms", [0, -1, 1025])
    def test_terms_outside_fail_fast(self, monkeypatch, terms):
        """Outside 1..1024 the count of partial sums raises before W is checked or D built: the
        sums' denominators grow to `terms` bits, so their cost grows as its square."""
        monkeypatch.setattr(dimension, "dimension_function", lambda W: pytest.fail("D built"))
        with pytest.raises(PreconditionError, match=rf"terms must lie in 1\.\.1024, got {terms}$"):
            dimension_integral(parse_set("[1pi,2pi)"), terms)


class TestCoreEquivalence:
    def test_mirror_pair_equivalent(self, w1, w2):
        assert core_equivalence_regions(w1, w2, FULL_WINDOW).is_empty

    def test_reflexive(self, journe):
        assert core_equivalence_regions(journe, journe, FULL_WINDOW).is_empty

    def test_shannon_vs_journe(self, shannon, journe):
        window = parse_set("[1/8pi,1pi)")
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

    @pytest.mark.parametrize("depth", [1, 6, 12, 100])
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_matches_the_loop_reference(self, name, depth):
        W, edge = catalog(name), PI * Fraction(2) ** -depth
        windows = (
            IntervalSet.from_intervals([Interval(MINUS_PI, -edge), Interval(edge, PI)]),
            IntervalSet([Interval(edge, PI)]),
            IntervalSet([Interval(MINUS_PI, -edge)]),
        )
        for window in windows:
            for count in (1, 7, 64, 513):
                assert midpoint_grid(W, window, count) == loop_midpoint_grid(W, window, count)
