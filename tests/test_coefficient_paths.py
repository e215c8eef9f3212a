"""The coefficient-level exact paths against the object-level code they replaced.

`tests/_oracles.py` keeps the replaced paths: fragments, translates and
covers built as Interval/IntervalSet objects, and step functions and
witnesses canonicalized by grouping their pairs by value.  The library must
give the same reports, step functions and regions; lookups must agree with a
scan over all pairs; and the number of Interval objects an operation builds
must stay proportional to the size of its answer.
"""

import itertools
import random
from fractions import Fraction

import pytest

from wavemult import exact, wavelet_sets
from wavemult.dimension import core_equivalence_regions, dimension_step_function
from wavemult.exact import Interval, IntervalSet, PreconditionError, RationalPi
from wavemult.parsing import parse_set
from wavemult.sigma import build_sigma, compose_power
from wavemult.wavelet_sets import CATALOG_NAMES, PRINCIPAL_WINDOW, catalog, is_wavelet_set

from _oracles import (
    object_core_regions,
    object_step_pairs,
    object_wavelet_report,
    random_wavelet_candidate,
    scan_value_at,
    two_interval_wavelet_set,
)

DEPTHS = (1, 3, 12, 40, 100)


def window(depth: int, symmetric: bool = True) -> IntervalSet:
    """[-pi, -pi/2**depth) u [pi/2**depth, pi), or its positive half."""
    edge = Fraction(1, 2**depth)
    ivs = [Interval(RationalPi(edge), RationalPi(1))]
    if symmetric:
        ivs.append(Interval(RationalPi(-1), RationalPi(-edge)))
    return IntervalSet.from_intervals(ivs)


def report_tuple(report):
    witness = report.tau_witness
    return (report.is_translation_congruent, report.is_dilation_congruent,
            None if witness is None else witness.pairs, report.failure_regions)


def seeded_sets():
    """1000 seeded candidates: small cut-and-shift sets, 400-piece ones, two-interval
    wavelet sets, catalog sets and hostile [2**-e pi, pi) and [pi, n pi)."""
    rng = random.Random(20261018)
    sets = [random_wavelet_candidate(rng, rng.randint(1, 16)) for _ in range(900)]
    sets += [random_wavelet_candidate(rng, 400) for _ in range(12)]
    sets += [two_interval_wavelet_set(rng) for _ in range(60)]
    sets += [catalog(name) for name in CATALOG_NAMES]
    sets += [IntervalSet.single(RationalPi(Fraction(1, 2**e)), RationalPi(1))
             for e in (1, 2, 3, 7, 50, 100, 200, 1000, 5000)]
    sets += [IntervalSet.single(RationalPi(Fraction(1, 2**e)), RationalPi(1) - RationalPi(Fraction(1, 2**(e + 3))))
             for e in (2, 9, 64, 300)]
    sets += [IntervalSet.single(RationalPi(1), RationalPi(n)) for n in (2, 3, 4, 5, 9, 1000, 10**6)]
    sets += [IntervalSet.single(RationalPi(-n), RationalPi(-1)) for n in (3, 8)]
    sets += [s.negate() for s in sets[900:914]]
    return sets


class TestWaveletReports:
    def test_reports_match_the_object_level_checks(self):
        sets = seeded_sets()
        assert len(sets) >= 1000
        seen = {"accepted": 0, "translation only": 0, "rejected": 0, "400 pieces": 0}
        for W in sets:
            report = is_wavelet_set.__wrapped__(W)
            assert report_tuple(report) == object_wavelet_report(W), W.to_text()
            if report.tau_witness is not None:
                assert report.tau_witness.domain == W
                assert report.tau_witness.image == PRINCIPAL_WINDOW
            key = ("accepted" if report.accepted else
                   "translation only" if report.is_translation_congruent else "rejected")
            seen[key] += 1
            seen["400 pieces"] += len(W) >= 300
        assert min(seen.values()) >= 10, seen

    def test_zero_in_the_closure_still_raises(self):
        W = IntervalSet.single(RationalPi(0), RationalPi(2))
        with pytest.raises(PreconditionError, match="undecidable"):
            is_wavelet_set.__wrapped__(W)
        with pytest.raises(PreconditionError, match="undecidable"):
            object_wavelet_report(W)


_RNG = random.Random(8)
STEP_SETS = [(name, catalog(name)) for name in CATALOG_NAMES]
STEP_SETS += [(f"two-interval {i}", two_interval_wavelet_set(_RNG)) for i in range(4)]


class TestDimensionStepFunction:
    @pytest.mark.parametrize("name,W", STEP_SETS, ids=[name for name, _ in STEP_SETS])
    def test_matches_the_object_level_covers(self, name, W):
        for depth, symmetric in itertools.product(DEPTHS, (True, False)):
            query = window(depth, symmetric)
            f = dimension_step_function(W, query)
            pairs, domain = object_step_pairs(W, query)
            assert f.pairs == pairs, (name, depth)
            assert f.domain == domain == query
            assert f.rows() == sorted(((iv, v) for piece, v in pairs for iv in piece),
                                      key=lambda row: row[0].lo.coef)


class TestCoreEquivalenceRegions:
    @pytest.mark.parametrize("a,b", list(itertools.permutations(CATALOG_NAMES, 2)))
    def test_matches_the_object_level_regions(self, a, b):
        for depth in (3, 12, 100):
            query = window(depth)
            want = object_core_regions(catalog(a), catalog(b), query)
            assert core_equivalence_regions(catalog(a), catalog(b), query) == want


def probes(f):
    """Row starts, midpoints and ends, and points below, above and between the rows."""
    rows = f.rows()
    points = [p for iv, _ in rows for p in (iv.lo, (iv.lo + iv.hi) / 2, iv.hi)]
    lo, hi = rows[0][0].lo, rows[-1][0].hi
    points += [lo - RationalPi(1), lo - RationalPi(Fraction(1, 2**300)), hi, hi + RationalPi(1)]
    points += [a.hi + (b.lo - a.hi) / 2 for a, b in zip(f.domain.pieces, f.domain.pieces[1:])]
    return points


def first_witness(seed: int, pieces: int):
    rng = random.Random(seed)
    reports = (is_wavelet_set(random_wavelet_candidate(rng, pieces)) for _ in itertools.count())
    return next(r.tau_witness for r in reports if r.tau_witness is not None)


LOOKUPS = {
    "sigma^64 journe->paper_w2":
        lambda: compose_power(build_sigma(catalog("journe"), catalog("paper_w2")), 64),
    "sigma^12 paper": lambda: compose_power(build_sigma(catalog("paper_w1"), catalog("paper_w2")), 12),
    "witness": lambda: first_witness(3, 40),
    **{f"step {name}": lambda name=name: dimension_step_function(catalog(name), window(100))
       for name in CATALOG_NAMES},
}


class TestLookup:
    @pytest.mark.parametrize("name", list(LOOKUPS))
    def test_bisection_matches_a_scan(self, name):
        f = LOOKUPS[name]()
        outside = 0
        for x in probes(f):
            try:
                want = scan_value_at(f, x)
            except PreconditionError:
                outside += 1
                with pytest.raises(PreconditionError, match="lies outside the domain"):
                    f.value_at(x)
            else:
                assert f.value_at(x) == want, (name, x)
        assert outside >= 3

    def test_rows_are_stored_in_order(self):
        f = compose_power(build_sigma(catalog("journe"), catalog("paper_w2")), 16)
        rows = f.rows()
        assert [iv.lo.coef for iv, _ in rows] == sorted(iv.lo.coef for iv, _ in rows)
        assert rows == f.cases()
        rows.clear()  # a caller's list, not the stored rows
        assert f.rows() == f.cases() != []


class TestIntervalBudget:
    """Interval objects an operation builds, counted at construction, against the
    rows or pieces of its result."""

    @pytest.fixture
    def built(self, monkeypatch):
        count = [0]
        post_init = Interval.__post_init__

        def counting(self):
            count[0] += 1
            post_init(self)

        monkeypatch.setattr(exact.Interval, "__post_init__", counting)
        return count

    def test_dimension_step_function(self, journe, built):
        query = window(100)
        dimension_step_function(journe, query)  # the wavelet-set check, cached from here on
        built[0] = 0
        f = dimension_step_function(journe, query)
        assert len(f.rows()) == 8
        assert built[0] <= 2 * len(f.rows()) + 4, built[0]

    def test_is_wavelet_set(self, built):
        W = random_wavelet_candidate(random.Random(400), 400)
        built[0] = 0
        report = is_wavelet_set.__wrapped__(W)
        size = len(report.tau_witness.rows()) + len(report.failure_regions)
        assert len(report.tau_witness.rows()) >= 300
        assert built[0] <= 2 * size + 8, (built[0], size)

    def test_compose_power(self, paper_sigma, built):
        built[0] = 0
        f = compose_power(paper_sigma, 12)
        assert built[0] <= 9 * len(f.rows()), (built[0], len(f.rows()))


SWEEP_BUDGET = {
    "journe": (lambda: catalog("journe"), 2),
    "400 pieces": (lambda: random_wavelet_candidate(random.Random(400), 400), 2),
    "translation fails": (lambda: parse_set("[-15/4pi,-15/8pi),[1/2pi,pi)"), 1),
}


class TestSweepBudget:
    """`is_wavelet_set` decides both tilings in one sweep of [-2pi, 2pi) and builds the
    witness, when the translates tile [-pi, pi), in one more."""

    @pytest.mark.parametrize("name", list(SWEEP_BUDGET))
    def test_is_wavelet_set(self, name, monkeypatch):
        make, budget = SWEEP_BUDGET[name]
        W = make()
        calls = [0]
        sweep = exact.sweep

        def counting(items):
            calls[0] += 1
            return sweep(items)

        monkeypatch.setattr(exact, "sweep", counting)
        monkeypatch.setattr(wavelet_sets, "sweep", counting)
        is_wavelet_set.__wrapped__(W)
        assert 1 <= calls[0] <= budget, calls[0]
