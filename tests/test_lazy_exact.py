"""Exact results stay on their integer unit.

A builder on integer coordinates returns its result carrying (unit, int rows), and the
result builds its `coefs` (an image's, a failure region's, the dimension function's) by one
map back when they are first read.  Against an eager counterpart, each carried coordinate c
mapped to c / unit at once and built again by the public constructor: the same values and
types, read in every order, within the `COORD_BITS` budget and past it; `==` and `hash` agree
between a lazy result and an eager one; and the readers that stay on the ints build no `coefs`
that they do not return.  `from_triples` builds the same carried form over unit 1, and `pairs`
groups on the carried tags as a grouping of the `coefs` by their Fraction tags does.
"""

import itertools
import random
from fractions import Fraction

import pytest

from wavemult.dimension import (
    StepFunction,
    dimension_function,
    dimension_integral,
    dimension_step_function,
    dimension_values,
    mra_consistent,
)
from wavemult.exact import COORD_BITS, IntervalSet, Piecewise, RationalPi
from wavemult.parsing import parse_set
from wavemult.sigma import build_sigma, compose, compose_power, power_in_local_commutant
from wavemult.wavelet_sets import CATALOG_NAMES, PiecewiseTranslation, catalog, is_wavelet_set

from _oracles import (
    deep_piece_wavelet_set,
    near_zero_wavelet_set,
    object_commutant_witness,
    random_wavelet_candidate,
    two_interval_wavelet_set,
)


def eager(result):
    """The eager counterpart of an unread result, from the rows it carries: every coordinate
    mapped back at once, c / unit with the power of two they share divided out first (a
    Fraction coordinate, past the budget, as it is), and the result built again from those
    by its public constructor."""
    assert "coefs" not in result.__dict__, "read before its reference was taken"
    unit, rows = result._carried

    def back(c):
        if type(c) is not int:
            return c
        twos = min((c & -c).bit_length(), (unit & -unit).bit_length()) - 1 if c else 0
        return Fraction(c >> twos, unit >> twos)

    if isinstance(result, PiecewiseTranslation):
        return PiecewiseTranslation.from_triples([tuple(map(back, row)) for row in rows])
    if isinstance(result, IntervalSet):
        return IntervalSet.from_cells((back(row[0]), back(row[1])) for row in rows)
    return StepFunction.from_triples((back(lo), back(hi), value) for lo, hi, value in rows)


def types(coefs) -> list:
    return [tuple(map(type, row)) for row in coefs]


def check_every_order(make):
    """Build the eager counterparts once and the parts afresh for each order of reading them;
    each part read, its image with it for a translation, equals its eager counterpart in values
    and types, and in `==` and `hash`.  Returns the units the parts carried: 1 for each past the
    budget, whose rows hold Fractions (and ints, such as shifts and the window's ends)."""
    wants = {name: eager(part) for name, part in make().items()}
    units = set()
    for order in itertools.permutations(wants):
        parts = make()
        assert not any("coefs" in part.__dict__ for part in parts.values()), order
        for name in order:
            part, want = parts[name], wants[name]
            unit, rows = part._carried
            units.add(unit)
            assert unit == 1 or all(type(x) is int for row in rows for x in row if x is not None), unit
            assert hash(part) == hash(want), name  # before the coefs are read
            assert part.coefs == want.coefs and types(part.coefs) == types(want.coefs), name
            if isinstance(part, PiecewiseTranslation):
                assert part.image == want.image and types(part.image.coefs) == types(want.image.coefs)
            assert part == want, name
    return units


def report_parts(W):
    report = is_wavelet_set.__wrapped__(W)
    parts = {"failure_regions": report.failure_regions}
    if report.tau_witness is not None:
        parts.update(witness=report.tau_witness, witness_image=report.tau_witness.image)
    return parts


def sigma_of(pair):
    if isinstance(pair, tuple):
        return build_sigma(catalog(pair[0]), catalog(pair[1]))
    return build_sigma(pair, pair.negate())


def power_parts(pair, p):
    """sigma**p and its image."""
    power = compose_power(sigma_of(pair), p)
    return {"power": power, "power_image": power.image}


MIRROR = near_zero_wavelet_set(10000)


class TestLazyAgainstEager:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_catalog_reports_and_dimension_functions(self, name):
        units = check_every_order(lambda: report_parts(catalog(name)))
        units |= check_every_order(lambda: {"D": dimension_function.__wrapped__(catalog(name))})
        assert max(units).bit_length() <= COORD_BITS, units

    def test_the_twelve_catalog_sigmas_their_inverses_and_round_trips(self):
        for a, b in itertools.permutations(CATALOG_NAMES, 2):
            check_every_order(lambda: {"sigma": (s := sigma_of((a, b)).mapping), "image": s.image})
            check_every_order(lambda: {"inverse": sigma_of((a, b)).mapping.inverse()})
            check_every_order(lambda: {"round trip": compose(sigma_of((a, b)).mapping, sigma_of((b, a)).mapping)})

    @pytest.mark.parametrize("pieces", [48, 180, 400])
    def test_generated_sets(self, pieces):
        rng, seen = random.Random(pieces), set()
        for _ in range(4):
            W = random_wavelet_candidate(rng, pieces)
            check_every_order(lambda: report_parts(W))
            seen.add(is_wavelet_set(W).is_translation_congruent)
        assert seen == {True, False}, seen

    @pytest.mark.parametrize("p", list(range(1, 33)) + [1024])
    def test_powers_of_a_catalog_sigma(self, p):
        assert 1 not in check_every_order(lambda: power_parts(("journe", "paper_w2"), p))

    def test_a_power_that_passes_the_budget(self):
        """sigma**16 of the near-zero pair at n = 1000 stays on ints, over a unit past the budget."""
        units = check_every_order(lambda: power_parts(near_zero_wavelet_set(1000), 16))
        assert len(units) == 1 and min(units).bit_length() > COORD_BITS, units

    def test_the_mirror_pair_past_the_budget(self):
        units = check_every_order(lambda: report_parts(MIRROR))
        units |= check_every_order(lambda: {"sigma": (s := sigma_of(MIRROR).mapping), "image": s.image})
        for p in (2, 3):
            units |= check_every_order(lambda: power_parts(MIRROR, p))
        units |= check_every_order(lambda: {"D": dimension_function.__wrapped__(MIRROR)})
        assert units == {1}, units

    def test_a_deep_piece_set(self):
        W = deep_piece_wavelet_set(800, 800)
        units = check_every_order(lambda: {"D": dimension_function.__wrapped__(W)})
        units |= check_every_order(lambda: report_parts(W))
        assert all(1600 < unit.bit_length() <= COORD_BITS for unit in units), units
        assert len(dimension_function(W).coefs) > 3000


class TestReadersStayOnInts:
    """The readers that compare or add the carried ints build no `coefs`: not D's, not the
    witness's, not sigma's and not the power's; the commutant witness maps back its row only."""

    def test_the_dimension_readers(self):
        for W in (two_interval_wavelet_set(random.Random(2627)), deep_piece_wavelet_set(60, 61)):
            points = [RationalPi(Fraction(k, 17)) for k in range(-17, 17) if k]
            D = dimension_function(W)
            values = dimension_values(W, points)
            limit = dimension_integral(W).limit
            consistent = mra_consistent(W)
            assert "coefs" not in D.__dict__ and "coefs" not in is_wavelet_set(W).tau_witness.__dict__
            assert values == [D.value_at(x) for x in points]
            assert limit == RationalPi(sum((hi - lo) * value for lo, hi, value in D.coefs))
            assert consistent == (D.constant_value() == 1) == (len(D.pairs) == 1 and D.pairs[0][1] == 1)

    @pytest.mark.parametrize("pair,p", [(("paper_w1", "paper_w2"), 2), (("journe", "paper_w2"), 1024),
                                        (("journe", "journe"), 3), (near_zero_wavelet_set(1000), 16)])
    def test_the_commutant_verdict(self, pair, p):
        sigma = sigma_of(pair)
        verdict = power_in_local_commutant(sigma, p)
        assert "coefs" not in verdict.composed.__dict__ and "coefs" not in sigma.mapping.__dict__
        assert verdict.in_commutant == verdict.composed.is_two_pi_integral == (verdict.witness is None)
        assert verdict.witness == object_commutant_witness(verdict.composed)


class TestFromTriplesCarriesItsRows:
    """`from_triples` gives the carried form over unit 1, as every builder on coordinates does."""

    @pytest.mark.parametrize("cls", [Piecewise, StepFunction])
    def test_the_rows_over_unit_one_and_coefs_on_first_read(self, cls):
        f = cls.from_triples([(2, 3, 1), (0, 1, 2), (1, 2, 2), (Fraction(7, 2), 4, 0)])
        unit, rows = f._carried
        assert (unit, [tuple(row) for row in rows]) == (1, [(0, 2, 2), (2, 3, 1), (Fraction(7, 2), 4, 0)])
        assert "coefs" not in f.__dict__
        want = cls.from_triples([(Fraction(0), Fraction(2), Fraction(2)), (Fraction(2), Fraction(3), Fraction(1)),
                                 (Fraction(7, 2), Fraction(4), Fraction(0))])
        assert f.coefs == ((0, 2, 2), (2, 3, 1), (Fraction(7, 2), 4, 0)) and "coefs" in f.__dict__
        assert f == want and hash(f) == hash(want)

    def test_a_unit_one_inverse_reads_no_coefs(self):
        f = PiecewiseTranslation.from_triples([(1, 2, 2), (5, 6, -4)])
        assert f._carried[0] == 1
        inverse = f.inverse()
        assert "coefs" not in f.__dict__
        assert inverse == PiecewiseTranslation.from_triples([(3, 4, -2), (1, 2, 4)])


def fraction_pairs(f) -> tuple:
    """The (set, value) pairs of f from its `coefs`: the rows grouped by their Fraction tag, the
    tags sorted, each value the tag's as f reads it."""
    by_tag: dict = {}
    for lo, hi, tag in f.coefs:
        by_tag.setdefault(tag, []).append((lo, hi))
    value = RationalPi if isinstance(f, PiecewiseTranslation) else (lambda tag: tag)
    return tuple((IntervalSet.from_cells(by_tag[tag]), value(tag)) for tag in sorted(by_tag))


class TestPairsGroupOnTheCarriedTags:
    """`pairs` groups the rows on the tags they carry and sorts those: the same pairs, in the
    same order, as the `coefs` grouped by their Fraction tags."""

    @pytest.mark.parametrize("p", [1, 2, 64, 1024])
    def test_powers_of_a_catalog_sigma(self, p):
        power = compose_power(sigma_of(("journe", "paper_w2")), p)
        assert power._carried[0] > 1
        assert power.pairs == fraction_pairs(power), p

    def test_a_restricted_dimension_function(self):
        f = dimension_step_function(catalog("journe"), parse_set("[-1pi,-1/8pi),[1/8pi,1pi)"))
        assert len(f.pairs) > 1 and f.pairs == fraction_pairs(f)

    def test_a_power_past_the_budget(self):
        squared = compose_power(sigma_of(MIRROR), 2)
        unit, rows = squared._carried
        assert unit == 1 and any(type(s) is Fraction for *_, s in rows)
        assert squared.pairs == fraction_pairs(squared)

    @pytest.mark.parametrize("cls", [Piecewise, PiecewiseTranslation])
    def test_int_coefficients_over_unit_one(self, cls):
        f = cls.from_triples([(5, 6, -4), (1, 2, 2), (3, 4, 2), (-3, -2, 0)])
        assert f._carried[0] == 1
        assert f.pairs == fraction_pairs(f)
