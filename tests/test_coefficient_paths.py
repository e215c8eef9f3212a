"""The coefficient-level exact paths against the object-level references.

`tests/_oracles.py` keeps the replaced paths: fragments and tilings built as
Interval/IntervalSet objects, step functions and witnesses from the rows of a
tagged sweep, and the set operations and sigma sweeps as written on Interval
and RationalPi objects; the dimension function on a window comes from the
windowed reference, built from every translate that reaches the window.  The
library must give the same reports, step functions, regions, sets and maps;
lookups must agree with a scan over all pairs; every stored coefficient must
be a Fraction; and the exact operations must build no Interval objects at all.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from wavemult import exact, wavelet_sets
from wavemult.dimension import (
    StepFunction,
    core_equivalence_regions,
    dimension_function,
    dimension_step_function,
)
from wavemult.exact import ZERO, Interval, IntervalSet, PreconditionError, RationalPi, _coordinates
from wavemult.parsing import parse_set
from wavemult.sigma import (
    build_sigma,
    compose,
    compose_power,
    dyadic_extension,
    power_in_local_commutant,
)
from wavemult.wavelet_sets import (
    CATALOG_NAMES,
    PiecewiseTranslation,
    catalog,
    is_wavelet_set,
)

from _oracles import (
    midpoint_differing_regions,
    near_zero_wavelet_set,
    object_commutant_witness,
    object_compose,
    object_dyadic_extension,
    object_piecewise,
    object_set_ops,
    object_value_at,
    object_wavelet_report,
    random_wavelet_candidate,
    scan_value_at,
    two_interval_wavelet_set,
    windowed_step_function,
)

PRINCIPAL_WINDOW = parse_set("[-1pi,1pi)")
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
    wavelet sets, catalog sets, hostile [2**-e pi, pi) and [pi, n pi), and a wavelet
    set 2**-10000 pi from 0."""
    rng = random.Random(20261018)
    sets = [random_wavelet_candidate(rng, rng.randint(1, 16)) for _ in range(900)]
    sets += [random_wavelet_candidate(rng, 400) for _ in range(12)]
    sets += [two_interval_wavelet_set(rng) for _ in range(60)]
    sets += [catalog(name) for name in CATALOG_NAMES]
    sets += [IntervalSet([Interval(RationalPi(Fraction(1, 2**e)), RationalPi(1))])
             for e in (1, 2, 3, 7, 50, 100, 200, 1000, 5000, 10000)]
    sets += [IntervalSet([Interval(RationalPi(Fraction(1, 2**e)), RationalPi(1 - Fraction(1, 2**(e + 3))))])
             for e in (2, 9, 64, 300)]
    sets += [IntervalSet([Interval(RationalPi(1), RationalPi(n))]) for n in (2, 3, 4, 5, 9, 1000, 10**6)]
    sets += [IntervalSet([Interval(RationalPi(-n), RationalPi(-1))]) for n in (3, 8)]
    sets += [s.negate() for s in sets[900:914]]
    sets.append(near_zero_wavelet_set(10000))
    return sets


DEEP = Fraction(1, 2**10000)


def deep_sets():
    """Sets with endpoints 2**-10000 pi from 0 or from each other."""
    tiny = [Interval(RationalPi(k * DEEP), RationalPi((k + 1) * DEEP)) for k in (-3, 1, 2, 5)]
    return [IntervalSet([Interval(RationalPi(DEEP), RationalPi(1))]),
            near_zero_wavelet_set(10000),
            IntervalSet.from_intervals(tiny + [Interval(RationalPi(1 - DEEP), RationalPi(2))])]


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
        W = IntervalSet([Interval(RationalPi(0), RationalPi(2))])
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
            want = windowed_step_function(W, query)
            pairs, domain = want.pairs, want.domain
            assert f.pairs == pairs, (name, depth)
            assert f.domain == domain == query
            assert f.rows() == sorted(((iv, v) for piece, v in pairs for iv in piece),
                                      key=lambda row: row[0].lo.coef)


class TestCoreEquivalenceRegions:
    @pytest.mark.parametrize("a,b", list(itertools.permutations(CATALOG_NAMES, 2)))
    def test_matches_the_object_level_regions(self, a, b):
        for depth in (3, 12, 100):
            query = window(depth)
            want = midpoint_differing_regions(windowed_step_function(catalog(a), query),
                                              windowed_step_function(catalog(b), query), query)
            assert core_equivalence_regions(catalog(a), catalog(b), query) == want


def probes(f):
    """Row starts, midpoints and ends, and points below, above and between the rows."""
    rows = f.rows()
    points = [p for iv, _ in rows for p in (iv.lo, (iv.lo + iv.hi) * Fraction(1, 2), iv.hi)]
    lo, hi = rows[0][0].lo, rows[-1][0].hi
    points += [lo - RationalPi(1), lo - RationalPi(Fraction(1, 2**300)), hi, hi + RationalPi(1)]
    points += [a.hi + (b.lo - a.hi) * Fraction(1, 2) for a, b in zip(f.domain.pieces, f.domain.pieces[1:])]
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
        assert built[0] == 0
        assert len(f.rows()) == 8

    def test_is_wavelet_set(self, built):
        W = random_wavelet_candidate(random.Random(400), 400)
        built[0] = 0
        report = is_wavelet_set.__wrapped__(W)
        assert built[0] == 0
        assert len(report.tau_witness.rows()) >= 300

    def test_compose_power(self, paper_sigma, built):
        built[0] = 0
        f = compose_power(paper_sigma, 12)
        assert built[0] == 0
        assert len(f.rows()) > 12


SWEEP_BUDGET = {
    "journe": lambda: catalog("journe"),
    "400 pieces": lambda: random_wavelet_candidate(random.Random(400), 400),
    "translation fails": lambda: parse_set("[-15/4pi,-15/8pi),[1/2pi,pi)"),
}


class TestSweepBudget:
    """`is_wavelet_set` decides both tilings in one `cover` of [-2pi, 2pi), called from the check
    itself and from no set operation; the witness, when the translates tile [-pi, pi), comes out
    in domain order and takes none."""

    @pytest.mark.parametrize("name", list(SWEEP_BUDGET))
    def test_is_wavelet_set(self, name, monkeypatch):
        W = SWEEP_BUDGET[name]()
        calls = Counter()

        def count(module):
            run = module.cover

            def counting(*args):
                calls[module.__name__] += 1
                return run(*args)

            monkeypatch.setattr(module, "cover", counting)

        count(exact)
        count(wavelet_sets)
        is_wavelet_set.__wrapped__(W)
        assert calls == {"wavemult.wavelet_sets": 1}, calls


def coefficient_types(f) -> set:
    """Types of the values in an IntervalSet's coefs, or of the endpoints in a Piecewise's
    coefs and of the coefficients of its pairs and domain, and for a translation its shifts."""
    if isinstance(f, IntervalSet):
        return {type(c) for pair in f.coefs for c in pair}
    types = {type(c) for lo, hi, _ in f.coefs for c in (lo, hi)} | coefficient_types(f.domain)
    types = types.union(*(coefficient_types(piece) for piece, _ in f.pairs))
    if isinstance(f, PiecewiseTranslation):
        types |= {type(shift) for *_, shift in f.coefs} | coefficient_types(f.image)
    return types


def three_ways(W: IntervalSet) -> list[IntervalSet]:
    """W from fresh Interval objects by the constructor and by `from_intervals`, and from
    its pieces split in two touching halves by `from_cells`."""
    ivs = [Interval(RationalPi(lo), RationalPi(hi)) for lo, hi in W.coefs]
    halves = [cell for lo, hi in W.coefs for mid in ((lo + hi) / 2,) for cell in ((lo, mid), (mid, hi))]
    return [IntervalSet(ivs), IntervalSet.from_intervals(reversed(ivs)), IntervalSet.from_cells(halves)]


class TestCoefficientData:
    def test_every_stored_coefficient_is_a_fraction(self):
        results = []
        for W in seeded_sets() + deep_sets() + [parse_set("[-15/4pi,-15/8pi),[1/2pi,pi)")]:
            report = is_wavelet_set(W)
            results += [W, report.failure_regions]
            if report.tau_witness is not None:
                results += [report.tau_witness, report.tau_witness.inverse()]
        for a, b in itertools.permutations(CATALOG_NAMES, 2):
            sigma = build_sigma(catalog(a), catalog(b))
            results += [compose_power(sigma, p) for p in (1, 2, 3, 12)]
            results.append(core_equivalence_regions(catalog(a), catalog(b), window(12)))
        for name, W in STEP_SETS:
            results.append(dimension_function(W))
            results += [dimension_step_function(W, window(depth, symmetric))
                        for depth in DEPTHS for symmetric in (True, False)]
        kinds = Counter(type(f).__name__ for f in results)
        assert min(kinds.values()) >= 50, kinds
        for f in results:
            assert coefficient_types(f) <= {Fraction}, f

    def test_three_constructions_are_one_set(self):
        for W in seeded_sets()[::7] + deep_sets():
            built = three_ways(W)
            assert all(S == W for S in built), W.to_text()
            assert {hash(S) for S in built} == {hash(W)}
            assert all(coefficient_types(S) <= {Fraction} for S in built)

    def test_a_second_check_is_a_cache_hit(self):
        W = random_wavelet_candidate(random.Random(16), 40)
        unit, pairs = _coordinates(W.coefs)
        carried = IntervalSet._on(unit, [(lo, hi, None) for lo, hi in pairs])  # coefs built on first read
        first, *others = three_ways(W)
        is_wavelet_set(first)
        hits = is_wavelet_set.cache_info().hits
        assert "coefs" not in carried.__dict__
        reports = [is_wavelet_set(S) for S in others + [carried]]
        assert is_wavelet_set.cache_info().hits == hits + 3
        assert all(report is is_wavelet_set(first) for report in reports)
        assert hash(carried) == hash(first) and carried.coefs == first.coefs


def sample_points(S: IntervalSet) -> list[RationalPi]:
    """0, the ends and midpoint of the first and last pieces, and a point past the last."""
    points = [ZERO]
    for iv in S.pieces[:1] + S.pieces[-1:]:
        points += [iv.lo, (iv.lo + iv.hi) * Fraction(1, 2), iv.hi]
    return points + [points[-1] + RationalPi(DEEP)]


def random_triples(rng: random.Random, scale: Fraction) -> list[tuple]:
    """Up to six (lo, hi, value) triples with values 0..2, shuffled: each starts where the
    last ends, or 1/4 pi or `scale` past it, or 1/4 pi before it, so that overlaps of one
    value, of two values and touching rows occur."""
    triples = []
    lo = Fraction(rng.randint(-6, 4), 4)
    for _ in range(rng.randint(0, 6)):
        hi = lo + Fraction(rng.randint(1, 3), 4) + rng.choice((0, scale))
        triples.append((lo, hi, rng.randint(0, 2)))
        lo = hi + rng.choice((0, 0, Fraction(1, 4), Fraction(-1, 4), scale))
    rng.shuffle(triples)
    return triples


def same_piecewise(f, want) -> None:
    """f matches the object-level (pairs, domain, rows), and value_at matches bisection
    over those rows at each row's ends."""
    pairs, domain, rows = want
    assert f.pairs == pairs
    assert f.domain == domain
    assert tuple(f.rows()) == rows
    for iv, _ in rows:
        for x in (iv.lo, iv.hi):
            try:
                value = object_value_at(rows, x)
            except PreconditionError:
                with pytest.raises(PreconditionError, match="lies outside the domain"):
                    f.value_at(x)
            else:
                assert f.value_at(x) == value


class TestObjectLevelReferences:
    """The coefficient-pair bodies against the object-level ones they replaced, on seeded
    inputs that include 2**-10000 pi endpoints."""

    def test_set_operations(self):
        sets = seeded_sets()[::10] + deep_sets() + [IntervalSet.empty()]
        shifts = ((-3, RationalPi(-2)), (7, RationalPi(DEEP)), (0, RationalPi(Fraction(5, 3))))
        for S, (n, t) in itertools.product(sets, shifts):
            points = sample_points(S)
            got = {"negate": S.negate(), "dilate": S.dilate(n), "translate": S.translate(t),
                   "measure": S.measure(), "contains": [S.contains(x) for x in points],
                   "zero_in_closure": S.zero_in_closure()}
            if not S.is_empty:
                got.update(dist_zero=S.dist_zero(), max_abs=S.max_abs())
            assert got == object_set_ops(S, n, t, points), (S.to_text(), n, t)

    @pytest.mark.parametrize("scale", [Fraction(1, 8), DEEP], ids=["1/8", "2^-10000"])
    def test_step_functions(self, scale):
        seen = Counter()
        for seed in range(300):
            triples = random_triples(random.Random(seed), scale)
            try:
                want = object_piecewise(triples)
            except ValueError:
                seen["rejected"] += 1
                with pytest.raises(ValueError, match="overlap"):
                    StepFunction.from_triples(triples)
                continue
            if any(max(a[0], b[0]) < min(a[1], b[1]) for a, b in itertools.combinations(triples, 2)):
                seen["merged by the reference"] += 1  # an overlap of one value: rejected too
                with pytest.raises(ValueError, match=StepFunction.OVERLAP_ERROR):
                    StepFunction.from_triples(triples)
                continue
            seen["touching" if any(a[0].hi == b[0].lo for a, b in zip(want[2], want[2][1:]))
                 else "apart"] += 1
            same_piecewise(StepFunction.from_triples(triples), want)
        assert min(seen[k] for k in ("rejected", "merged by the reference", "touching", "apart")) >= 20, seen

    def test_witnesses(self):
        for W in seeded_sets()[::5] + deep_sets():
            witness = is_wavelet_set(W).tau_witness
            if witness is not None:
                want = object_piecewise(((lo, hi, s) for lo, hi, s in witness.coefs), RationalPi)
                same_piecewise(witness, want)
                same_piecewise(witness.inverse(), object_piecewise(
                    ((iv.lo.coef + s.coef, iv.hi.coef + s.coef, -s.coef) for iv, s in want[2]),
                    RationalPi))

    @pytest.mark.parametrize("a,b", [("paper_w1", "paper_w2"), ("journe", "paper_w2"),
                                     ("shannon", "journe"), ("paper_w1", "shannon")])
    def test_sigma_sweeps(self, a, b):
        sigma = build_sigma(catalog(a), catalog(b))
        for p in range(1, 9):
            current = compose_power(sigma, p)
            for base in (current, sigma.mapping):
                ext = dyadic_extension(base, current.image)
                assert ext == object_dyadic_extension(base, current.image), p
                assert compose(current, ext) == object_compose(current, ext), p
            assert power_in_local_commutant(sigma, p).witness == object_commutant_witness(current)
