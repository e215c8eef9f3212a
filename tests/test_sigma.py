import itertools
import random
import re
import time
from dataclasses import fields

import pytest

from fractions import Fraction

from wavemult.exact import (
    COORD_BITS,
    Interval,
    IntervalSet,
    PreconditionError,
    RationalPi,
    TWO_PI,
    ZERO,
    _times_pow2,
    ceil_log2,
    floor_log2,
    merge_cells,
)
from wavemult.parsing import parse_set
from wavemult.sigma import (
    MAX_POWER,
    SigmaMap,
    build_sigma,
    compose,
    compose_power,
    dyadic_extension,
    power_in_local_commutant,
)
from wavemult.wavelet_sets import CATALOG_NAMES, PiecewiseTranslation, catalog

from wavemult import exact as exact_module
from wavemult import sigma as sigma_module

from _oracles import (
    extension_at,
    fraction_dyadic_extension,
    loop_compose_powers,
    near_zero_wavelet_set,
    object_compose,
    object_dyadic_extension,
    random_point_in,
    two_interval_wavelet_set,
)


def rp(num, den=1):
    return RationalPi.of(num, den)


def cases_text(pt):
    return [(iv.to_text(), shift.shift_text()) for iv, shift in pt.cases()]


# The canonical map for the counterexample pair, as atomic rows sorted by lo.
SIGMA_TABLE = [
    ("[-1/4pi,-1/8pi)", "-2 pi"),
    ("[15/8pi,17/8pi)", "-4 pi"),
    ("[17/8pi,9/4pi)", "-2 pi"),
    ("[9/4pi,15/4pi)", "-6 pi"),
]

# Its square on w1; derived by hand from the dyadic extension, frozen here.
SIGMA_SQUARED_TABLE = [
    ("[-1/4pi,-1/8pi)", "-34 pi"),
    ("[15/8pi,2pi)", "-36 pi"),
    ("[2pi,17/8pi)", "-20 pi"),
    ("[17/8pi,273/128pi)", "-9/4 pi"),
    ("[273/128pi,137/64pi)", "-17/8 pi"),
    ("[137/64pi,143/64pi)", "-19/8 pi"),
    ("[143/64pi,9/4pi)", "-5/2 pi"),
    ("[9/4pi,15/4pi)", "-38 pi"),
]


class TestBuildSigma:
    def test_counterexample_pair_table(self, paper_sigma):
        assert cases_text(paper_sigma.mapping) == SIGMA_TABLE
        assert paper_sigma.mapping.domain == paper_sigma.w1
        assert paper_sigma.mapping.image == paper_sigma.w2

    def test_identity_on_same_set(self):
        for name in CATALOG_NAMES:
            W = catalog(name)
            sigma = build_sigma(W, W)
            assert sigma.mapping.pairs == ((W, ZERO),)

    def test_shannon_to_its_mirror(self, shannon):
        sigma = build_sigma(shannon, shannon.negate())
        assert sigma.mapping.image == shannon.negate()
        assert sigma.mapping.is_two_pi_integral

    def test_rejects_non_wavelet_sets(self, w1):
        with pytest.raises(PreconditionError):
            build_sigma(parse_set("[1pi,2pi)"), w1)
        with pytest.raises(PreconditionError):
            build_sigma(w1, parse_set("[1pi,3pi)"))

    def test_sigma_map_validates_invariants(self, paper_sigma):
        """Its one invariant: every shift lies on the 2*pi*Z lattice."""
        skew = PiecewiseTranslation.from_triples([(Fraction(1), Fraction(2), Fraction(-1))])
        with pytest.raises(ValueError, match=r"integer multiples of 2\*pi"):
            SigmaMap(skew)
        assert SigmaMap(paper_sigma.mapping) == paper_sigma

    def test_sets_are_read_off_the_mapping(self):
        assert [field.name for field in fields(SigmaMap)] == ["mapping"]
        for a, b in itertools.product(CATALOG_NAMES, repeat=2):
            sigma = build_sigma(catalog(a), catalog(b))
            assert (sigma.w1, sigma.w2) == (catalog(a), catalog(b)), (a, b)


class TestExtendAt:
    """The pointwise extension, `extension_at`."""

    def test_table_point(self, paper_sigma):
        assert extension_at(paper_sigma.mapping, TWO_PI) == rp(-2)

    def test_dyadically_scaled_point(self, paper_sigma):
        # 2**3 * (17 pi / 64) = 17 pi / 8, mapped by -2 pi, scaled back by 1/8
        assert extension_at(paper_sigma.mapping, rp(17, 64)) == rp(1, 64)

    def test_identity_extension(self, shannon):
        sigma = build_sigma(shannon, shannon)
        rng = random.Random(7)
        span = parse_set("[-6pi,-1/32pi),[1/32pi,6pi)")
        for _ in range(50):
            x = random_point_in(rng, span)
            assert extension_at(sigma.mapping, x) == x

    def test_zero_rejected(self, paper_sigma):
        with pytest.raises(PreconditionError):
            extension_at(paper_sigma.mapping, ZERO)

    def test_agrees_with_region_restriction(self, paper_sigma):
        rng = random.Random(123)
        region = parse_set("[-15/4pi,-15/8pi),[1/8pi,1/4pi),[1/3pi,1/2pi),[5pi,6pi)")
        ext = dyadic_extension(paper_sigma.mapping, region)
        for _ in range(500):
            x = random_point_in(rng, region)
            assert x + ext.value_at(x) == extension_at(paper_sigma.mapping, x)


class TestRestrictExtended:
    """The extension restricted to a region, `dyadic_extension`."""

    def test_on_w1_is_sigma_itself(self, paper_sigma):
        assert dyadic_extension(paper_sigma.mapping, paper_sigma.w1) == paper_sigma.mapping

    def test_single_piece_inside_w1(self, paper_sigma):
        got = dyadic_extension(paper_sigma.mapping, parse_set("[2pi,17/8pi)"))
        assert cases_text(got) == [("[2pi,17/8pi)", "-4 pi")]

    def test_dyadic_shifts_on_mirror_piece(self, paper_sigma):
        got = dyadic_extension(paper_sigma.mapping, parse_set("[1/8pi,1/4pi)"))
        assert cases_text(got) == [
            ("[1/8pi,17/128pi)", "-1/4 pi"),
            ("[17/128pi,9/64pi)", "-1/8 pi"),
            ("[9/64pi,15/64pi)", "-3/8 pi"),
            ("[15/64pi,1/4pi)", "-1/2 pi"),
        ]

    def test_negative_side_scaling(self, paper_sigma):
        got = dyadic_extension(paper_sigma.mapping, parse_set("[-15/4pi,-15/8pi)"))
        assert cases_text(got) == [
            ("[-15/4pi,-2pi)", "-32 pi"),
            ("[-2pi,-15/8pi)", "-16 pi"),
        ]

    def test_region_touching_zero_rejected(self, paper_sigma):
        with pytest.raises(PreconditionError):
            dyadic_extension(paper_sigma.mapping, parse_set("[0pi,1pi)"))

    def test_empty_region(self, paper_sigma):
        assert dyadic_extension(paper_sigma.mapping, IntervalSet.empty()).pairs == ()


EDGE = Fraction(1, 2**60)
WINDOWS = [parse_set("[-1pi,-1/1024pi),[1/1024pi,1pi)"), parse_set(f"[-3pi,-{EDGE}pi),[{EDGE}pi,5pi)")]
# (set, powers, extra regions); the hull-wide reference takes seconds on the deep set.
OCTAVE_CASES = [pytest.param(catalog(name), (1, 2), WINDOWS, id=name) for name in CATALOG_NAMES]
OCTAVE_CASES += [pytest.param(near_zero_wavelet_set(n), (1, 2), WINDOWS, id=f"near_zero {n}") for n in (2, 50)]
OCTAVE_CASES += [pytest.param(near_zero_wavelet_set(1000), (1,), [], id="near_zero 1000")]


class TestOctaveExtension:
    """`dyadic_extension` dilates each region piece only by the 2**n that carry one of its
    octaves onto an octave of the map domain; it must give the extension that the
    object-level reference builds from every level of the domain's hull."""

    @pytest.mark.parametrize("W,powers,windows", OCTAVE_CASES)
    def test_matches_the_hull_references(self, W, powers, windows, shannon):
        for sigma in (build_sigma(W, W.negate()), build_sigma(W, shannon)):
            for p in powers:
                current = compose_power(sigma, p)
                for base, region in itertools.product((current, sigma.mapping), [current.image] + windows):
                    ext = dyadic_extension(base, region)
                    assert ext == object_dyadic_extension(base, region), (p, region)

    def test_a_piece_near_zero_adds_no_levels_elsewhere(self, monkeypatch):
        """sigma**2 for a wavelet set 2**-10000 pi from 0 has 8 rows; each extension looks up
        a few dilates per region piece, not one per octave between the set's two ends.  Per
        `_pull_back` step, [first rows, `then` rows, dilates looked up (one `bisect_right`
        each)]; every first row is looked up at least once."""
        sizes = []
        pull_back, bisect_right = sigma_module._pull_back, sigma_module.bisect_right

        def pulling(unit, first, then, *rest):
            sizes.append([len(first), len(then), 0])
            return pull_back(unit, first, then, *rest)

        def looking_up(starts, x):
            sizes[-1][2] += 1
            return bisect_right(starts, x)

        W = near_zero_wavelet_set(10000)
        sigma = build_sigma(W, W.negate())
        monkeypatch.setattr(sigma_module, "_pull_back", pulling)
        monkeypatch.setattr(sigma_module, "bisect_right", looking_up)
        squared = compose_power(sigma, 2)
        assert len(squared.coefs) == 8
        assert sizes and max(rows + dilates for _, rows, dilates in sizes) <= 32, sizes
        assert all(dilates >= first for first, _, dilates in sizes), sizes


class TestComposePower:
    def test_first_power_is_sigma(self, paper_sigma):
        assert compose_power(paper_sigma, 1) == paper_sigma.mapping

    def test_square_table(self, paper_sigma):
        assert cases_text(compose_power(paper_sigma, 2)) == SIGMA_SQUARED_TABLE

    def test_square_on_critical_piece(self, paper_sigma):
        # on [17pi/8, 273pi/128) the square shifts by -2 pi - pi/4
        squared = compose_power(paper_sigma, 2)
        a_lo, a_hi = rp(17, 8), rp(273, 128)
        iv, shift = next(
            (iv, s) for iv, s in squared.cases() if iv.lo <= a_lo and a_hi <= iv.hi
        )
        assert shift == rp(-9, 4)

    def test_identity_powers(self, shannon):
        identity = build_sigma(shannon, shannon)
        for p in (1, 2, 3, 5):
            assert compose_power(identity, p) == identity.mapping

    def test_invalid_power(self, paper_sigma):
        with pytest.raises(PreconditionError):
            compose_power(paper_sigma, 0)
        with pytest.raises(PreconditionError, match=f"power must lie in 1..{MAX_POWER}"):
            compose_power(paper_sigma, MAX_POWER + 1)

    @pytest.mark.parametrize("power", [1.5, Fraction(3, 2), 2.5, 3.0, "3"])
    def test_a_non_integer_power_raises_before_any_step(self, paper_sigma, monkeypatch, power):
        """A power is what `operator.index` takes: 1.5 must not give sigma**2, nor 2.5 a
        TypeError after it.  The error names the value before a pull-back step runs."""
        monkeypatch.setattr(sigma_module, "_pull_back", lambda *args: pytest.fail("a step ran"))
        message = f"power must be an integer in 1..{MAX_POWER}, got {power!r}"
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            compose_power(paper_sigma, power)

    @pytest.mark.parametrize("a,b", list(itertools.permutations(CATALOG_NAMES, 2)))
    def test_binary_powers_match_sequential_loop(self, a, b):
        sigma = build_sigma(catalog(a), catalog(b))
        for p, expected in zip(range(1, 33), loop_compose_powers(sigma)):
            assert compose_power(sigma, p) == expected, p

    @pytest.mark.parametrize("a,b", [("paper_w1", "paper_w2"), ("shannon", "journe"),
                                     ("journe", "paper_w2")])
    def test_power_64_is_fast(self, a, b):
        # Binary powering with a level-local extension takes 0.03-0.1 s on a 2-core
        # machine; one composition per power over hull-wide extensions took 0.7-3.1 s.
        sigma = build_sigma(catalog(a), catalog(b))
        start = time.perf_counter()
        compose_power(sigma, 64)
        assert time.perf_counter() - start < 0.5

    def test_pointwise_iteration_oracle(self, paper_sigma, shannon, journe):
        rng = random.Random(99)
        for sigma in (paper_sigma, build_sigma(shannon, journe)):
            for p in (2, 3):
                composed = compose_power(sigma, p)
                for _ in range(60):
                    x = random_point_in(rng, sigma.w1)
                    y = x
                    for _ in range(p):
                        y = extension_at(sigma.mapping, y)
                    assert x + composed.value_at(x) == y

    def test_measure_preserving_powers(self, paper_sigma, shannon, journe):
        for sigma in (paper_sigma, build_sigma(shannon, journe)):
            for p in range(1, 5):
                composed = compose_power(sigma, p)
                assert composed.domain == sigma.w1
                assert composed.domain.measure() == TWO_PI
                assert composed.image.measure() == TWO_PI

    def test_power_addition_consistency(self, paper_sigma, shannon, journe):
        for sigma in (paper_sigma, build_sigma(shannon, journe)):
            for p, q in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)):
                left = compose_power(sigma, p + q)
                head = compose_power(sigma, p)
                tail = dyadic_extension(compose_power(sigma, q), head.image)
                assert left == compose(head, tail)


def two_interval(c):
    """The two-interval wavelet set [-(4pi - 2c), -(2pi - c)) u [c, 2c)."""
    return IntervalSet.from_intervals([Interval(RationalPi(-(4 - 2 * c)), RationalPi(-(2 - c))),
                                       Interval(RationalPi(c), RationalPi(2 * c))])


def coprime_sigma(e):
    """sigma between the two-interval sets at c = 1 + 3**-e and c = 1 - 5**-(7e/10): coprime
    denominators, and sigma**2 is the identity, so sigma**3 = sigma.  At e = 1000 each set's unit
    is within the budget and their lcm, 3212 bits, is past it; at e = 2000 each set passes it."""
    return build_sigma(two_interval(1 + Fraction(1, 3**e)), two_interval(1 - Fraction(1, 5**(7 * e // 10))))


def integer_side_sigmas():
    """(sigma, powers): the 12 ordered catalog pairs, seeded two-interval pairs, and the coprime
    pair whose sets fit the budget, though sigma's unit does not: its powers stop at 3."""
    cases = [(build_sigma(catalog(a), catalog(b)), range(1, 17))
             for a, b in itertools.permutations(CATALOG_NAMES, 2)]
    rng = random.Random(1919)
    sets = [two_interval_wavelet_set(rng) for _ in range(6)]
    cases += [(build_sigma(a, b), range(1, 9)) for a, b in zip(sets, sets[1:])]
    cases += [(build_sigma(sets[0], catalog(name)), range(1, 9)) for name in CATALOG_NAMES]
    return cases + [(coprime_sigma(1000), range(1, 4))]


def fraction_side_sigmas():
    """(sigma, powers) whose own sets pass the budget: a set 2**-10000 pi from 0 and its
    mirror, and the coprime pair at 3**2000 and 5**1400, whose powers stop at 3."""
    W = near_zero_wavelet_set(10000)
    return [(build_sigma(W, W.negate()), range(1, 6)), (coprime_sigma(2000), range(1, 4))]


def fraction_extension_after(base, region):
    """The references in both forms of `dyadic_extension`: on a set, the octave extension
    there; after a map m, m composed on `Interval` pieces with the extension on m's image."""
    if isinstance(region, IntervalSet):
        return fraction_dyadic_extension(base, region)
    return object_compose(region, fraction_dyadic_extension(base, region.image))


def binary_power(sigma, power):
    """`compose_power` by binary powering over the references, one `fraction_extension_after`
    per squaring and per set bit, each step a finished map of Fractions."""
    current = sigma.mapping
    for bit in bin(power)[3:]:
        current = fraction_extension_after(current, current)
        if bit == "1":
            current = fraction_extension_after(sigma.mapping, current)
    return current


def fractions_of(rows, unit) -> list:
    """Coordinate rows over `unit` as rows of Fractions; Fraction coordinates are over unit 1."""
    return [tuple(Fraction(x, unit) if type(x) is int else x for x in row) for row in rows]


@pytest.fixture
def steps(monkeypatch):
    """Every pull-back step of the sigma module as (arguments, result), and the side of the
    budget each took, by the types of its coordinates (int, or Fraction ones over unit 1),
    recorded when the step starts."""
    calls, sides = [], []
    pull_back = sigma_module._pull_back

    def step(unit, first, then, error, octaves=None):
        types = {type(x) for row in itertools.chain(first, then) for x in row}
        sides.append("int" if types <= {int} else "Fraction" if types == {Fraction} else "mixed")
        result = pull_back(unit, first, then, error, octaves)
        calls.append(((unit, first, then, error, octaves), result))
        return result

    monkeypatch.setattr(sigma_module, "_pull_back", step)
    return calls, sides


def octaves_of(domain) -> set:
    """The octaves (sign, m) of a set's pieces, each m with 2**m <= |x| < 2**(m+1) on the piece."""
    def octaves(lo, hi):
        near, far = sorted((abs(lo), abs(hi)))
        return range(floor_log2(near), ceil_log2(far))

    return {(lo > 0, m) for lo, hi in domain.coefs for m in octaves(lo, hi)}


def reference_step(unit, first, then, error, octaves):
    """The reference on the Fraction maps of a step's coordinate rows: for a composition
    `object_compose`; for an extension after the map `first`, `fraction_extension_after`,
    whose domain octaves must be `octaves`."""
    m = PiecewiseTranslation.from_triples(fractions_of(first, unit))
    t = PiecewiseTranslation.from_triples(fractions_of(then, unit))
    if octaves is None:
        return object_compose(m, t)
    assert octaves == octaves_of(t.domain)
    return fraction_extension_after(t, m)


class TestIntegerCoordinates:
    """Every pull-back step, on int coordinates or past the budget on Fraction ones, against
    the references: each step of a chain of powers, mapped to Fractions, gives the rows and
    image that the tagged sweeps of `reference_step` give on the same arguments, and each
    input takes the side of the budget it should."""

    @pytest.mark.parametrize("side,cases", [("int", integer_side_sigmas), ("Fraction", fraction_side_sigmas)],
                             ids=["int", "Fraction"])
    def test_steps_match_the_fraction_bodies(self, side, cases, steps):
        calls, sides = steps
        checked = set()
        for sigma, powers in cases():
            for p in powers:
                compose_power(sigma, p)
            for (unit, first, then, error, octaves), (scaled, rows, image) in calls:
                key = (unit, tuple(map(tuple, first)), tuple(map(tuple, then)), error,
                       octaves and frozenset(octaves))
                if key not in checked:
                    checked.add(key)
                    got = (tuple(fractions_of(rows, scaled)), tuple(fractions_of(image, scaled)))
                    want = reference_step(unit, first, then, error, octaves)
                    assert got == (want.coefs, tuple((lo, hi, None) for lo, hi in want.image.coefs))
            calls.clear()
        assert len(checked) >= (100 if side == "int" else 8) and set(sides) == {side}, (len(checked), set(sides))

    def test_construction_errors_on_int_coordinates(self, paper_sigma, steps):
        _, units = steps
        with pytest.raises(ValueError, match=PiecewiseTranslation.OVERLAP_ERROR):
            PiecewiseTranslation.from_triples([(0, 8, 8), (4, 12, 16)])
        with pytest.raises(ValueError, match="not injective"):
            PiecewiseTranslation.from_triples([(0, 4, 8), (8, 12, 0)])
        half_octave = PiecewiseTranslation.from_triples([(Fraction(1), Fraction(3, 2), Fraction(0))])
        with pytest.raises(PreconditionError, match="not exactly covered"):
            dyadic_extension(half_octave, parse_set("[1pi,2pi)"))
        part = PiecewiseTranslation.from_triples([(lo, hi, Fraction(0)) for lo, hi in paper_sigma.w2.coefs[1:]])
        with pytest.raises(PreconditionError, match="escapes"):
            compose(paper_sigma.mapping, part)
        assert units == ["int", "int"]

    def test_an_extension_cell_may_end_off_its_scale(self, steps):
        """[1/3, 2/5) is dilated by 4 and [11, 12) by 1/8 into one base row: the step shifts
        the coordinates over 15 left by 3 bits, to unit 15 * 2**3, so the dilates are [160, 192)
        and [165, 180), which overlap inside that row.  Each dilate is clipped only to its own
        ends and the row's, never cut at 165, which 4 does not divide: scaled back, the two
        fragments are exactly [40, 48) and [1320, 1440)."""
        calls, units = steps
        base = PiecewiseTranslation.from_triples([(Fraction(1), Fraction(2), Fraction(2))])
        region = parse_set("[1/3pi,2/5pi),[11pi,12pi)")
        got = dyadic_extension(base, region)
        want = fraction_dyadic_extension(base, region)
        assert (got.coefs, got.image) == (want.coefs, want.image)
        assert got.coefs == ((Fraction(1, 3), Fraction(2, 5), Fraction(1, 2)), (11, 12, 16))
        assert units == ["int"] and (calls[0][0][0], calls[0][1][0]) == (15, 15 * 2**3)


U = 1 << 10  # the image pieces lie in [U, 2U); coordinates are multiples of 8
EXTENSION_ERROR = "region is not exactly covered by dyadic dilates of the map domain"
COMPOSE_ERROR = "image of the first map escapes the second map's domain"


def lookup_rows(rng, n):
    """(rows, cut): seeded `first` rows and the sorted, disjoint `then` rows that the dilates
    2**0 and 2**n of their image pieces meet, on int coordinates.  Each image piece [p, q)
    is split at r: [p, r) lies in `then` rows and its 2**n-dilate in a gap, and the other
    way round on [r, q); between the pieces `then` holds random parts at either scale.
    The union at each scale is cut into rows at random points, so a row may run across a
    piece's end; touching rows may share a shift, as may the first rows of touching pieces,
    and the shifts keep the result one-to-one."""
    points = sorted(rng.sample(range(U, 2 * U + 1, 8), 9))
    pieces = [(p, q) for p, q in zip(points, points[1:]) if rng.random() < 0.7] or [tuple(points[:2])]
    near, far = [], []
    for p, q in pieces:
        r = rng.choice([p, q, rng.randrange(p, q + 1, 8)])
        near.append((p, r))
        far.append((r, q))
    ends = [U] + [x for piece in pieces for x in piece] + [2 * U]
    for g0, g1 in zip(ends[::2], ends[1::2]):  # the gaps between the pieces
        for part in (near, far):
            lo, hi = sorted(rng.choice([g0, g1, rng.randrange(g0, g1 + 1, 8)]) for _ in range(2))
            part.append((lo, hi))
    then = []
    for part, m, offset in ((near, 0, 0), (far, n, 128 * U)):
        runs = merge_cells(sorted((lo, hi, None) for lo, hi in part if lo < hi))
        cuts = sorted({x for lo, hi, _ in runs for x in (lo, hi)} | set(rng.sample(range(U, 2 * U, 8), 6)))
        inside = [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if any(a <= lo and hi <= b for a, b, _ in runs)]
        k = 0
        for i, (lo, hi) in enumerate(inside):
            if not (i and inside[i - 1][1] == lo and rng.random() < 0.4):
                k += 1
            then.append((_times_pow2(lo, m), _times_pow2(hi, m), _times_pow2(256 * U * k + offset, m)))
    first, j = [], 0
    for i, (p, q) in enumerate(pieces):
        if not (i and pieces[i - 1][1] == p and rng.random() < 0.5):
            j += 1
        first.append((p + 4 * U * j, q + 4 * U * j, -4 * U * j))
    return first + sorted(then), len(first)


def lookup_edges(rows, cut, n) -> set:
    """The edges of the bisection that the dilates 2**0 and 2**n of the first rows meet."""
    then = rows[cut:]
    starts, ends = {row[0] for row in then}, {row[1] for row in then}
    seen = {"touching rows of equal shift"} if any(
        x[1] == y[0] and x[2] == y[2] for x, y in zip(then, then[1:])) else set()
    for lo, hi, s in rows[:cut]:
        for m in (0, n):
            a, b = _times_pow2(lo + s, m), _times_pow2(hi + s, m)
            met = [row for row in then if row[0] < b and a < row[1]]
            seen |= {edge for edge, hit in (("starts at a row's start", a in starts),
                                            ("starts at a row's end", a in ends),
                                            ("ends at a row's start", b in starts),
                                            ("spans several rows", len(met) > 1)) if hit}
            if not met:
                seen.add("before the first row" if b <= then[0][0] else
                         "after the last row" if a >= then[-1][1] else "in a gap")
    return seen


def on_fractions(rows):
    return [tuple(Fraction(x, 3) for x in row) for row in rows]


def pulled(pull_back, rows, cut, n, error=EXTENSION_ERROR):
    """(coefs, image) of the pull-back with the dilations 2**0 and 2**n, or the type and message
    of the ValueError it raises.  An int coordinate x stands for x / 24.  `_pull_back` finds
    the dilations as those from the image pieces' octave, 10 over its unit (1/3 for Fraction
    rows), onto the octaves 10 and 10 + n of a domain, and may shift int rows to a new unit.
    A reference takes the map of the `then` rows and that of the first rows, in Fractions: the
    image pieces lie in [U, 2U), the `then` rows in that octave or in its 2**n-dilate, so the
    other dilations that their octaves allow meet no row."""
    ints = type(rows[0][0]) is int
    try:
        if pull_back is not sigma_module._pull_back:
            coef = (lambda c: Fraction(c, 24)) if ints else (lambda c: c)
            first, then = (PiecewiseTranslation.from_triples([tuple(map(coef, row)) for row in part])
                           for part in (rows[:cut], rows[cut:]))
            return result_of(pull_back(then, first))
        octaves = {(True, 10), (True, 10 + n)}
        unit, coords, image = pull_back(1 if ints else Fraction(1, 3), rows[:cut], rows[cut:], error, octaves)
    except ValueError as e:
        return type(e), str(e)
    return result_of(PiecewiseTranslation._mapped(24 * unit if ints else 1, coords, image))


def result_of(translation):
    return translation.coefs, translation.image


class TestPullBackLookup:
    """`_pull_back` reads the `then` rows each dilate meets by bisection on their starts; on
    seeded rows that hit every edge of that lookup, on ints and on Fractions, it gives the
    rows and image of the tagged sweeps of `fraction_extension_after`, and both raise their
    coverage error, which the step decides by comparing merged domains."""

    @pytest.mark.parametrize("side", ["int", "Fraction"])
    def test_matches_the_sweep_on_every_edge(self, side):
        rng, seen = random.Random(2323), set()
        for case in range(120):
            n = (1, -1, 2, -2)[case % 4]
            rows, cut = lookup_rows(rng, n)
            seen |= lookup_edges(rows, cut, n)
            rows = rows if side == "int" else on_fractions(rows)
            got = pulled(sigma_module._pull_back, rows, cut, n)
            assert got == pulled(fraction_extension_after, rows, cut, n), (case, rows, cut, n)
            assert not isinstance(got[0], type), (case, got)
        assert seen == {"starts at a row's start", "starts at a row's end", "ends at a row's start",
                        "spans several rows", "before the first row", "after the last row",
                        "in a gap", "touching rows of equal shift"}, seen

    @pytest.mark.parametrize("side", ["int", "Fraction"])
    @pytest.mark.parametrize("error", [COMPOSE_ERROR, EXTENSION_ERROR])
    def test_both_raise_the_coverage_error(self, side, error):
        """Each case loses one `then` row that a dilate meets, so one fragment goes missing:
        the step raises the error it is given, the reference that of the extension."""
        rng = random.Random(2324)
        for case in range(40):
            n = (1, -1)[case % 2]
            rows, cut = lookup_rows(rng, n)
            dilates = [(_times_pow2(lo + s, m), _times_pow2(hi + s, m)) for lo, hi, s in rows[:cut] for m in (0, n)]
            del rows[rng.choice([i for i in range(cut, len(rows)) if any(
                rows[i][0] < b and a < rows[i][1] for a, b in dilates)])]
            rows = rows if side == "int" else on_fractions(rows)
            assert pulled(sigma_module._pull_back, rows, cut, n, error) == (PreconditionError, error), case
            assert pulled(fraction_extension_after, rows, cut, n) == (PreconditionError, EXTENSION_ERROR), case


def after_a_map_cases():
    """(sigma, k_max): the 12 ordered catalog pairs, six seeded two-interval pairs, and the
    mirror pair of a set 2**-10000 pi from 0, which runs on Fractions."""
    cases = [(build_sigma(catalog(a), catalog(b)), 12) for a, b in itertools.permutations(CATALOG_NAMES, 2)]
    rng = random.Random(1999)
    sets = [two_interval_wavelet_set(rng) for _ in range(7)]
    cases += [(build_sigma(a, b), 12) for a, b in zip(sets, sets[1:])]
    W = near_zero_wavelet_set(10000)
    return cases + [(build_sigma(W, W.negate()), 2)]


class TestExtensionAfterAMap:
    """`dyadic_extension(b, m)` is the extension of b after the map m in one sweep: the same
    rows and image as m composed with the extension of b on m's image, built by the set form
    and by the references, for both steps of binary powering."""

    def test_matches_the_composed_set_form(self, steps):
        _, units = steps
        for sigma, k_max in after_a_map_cases():
            for k in range(1, k_max + 1):
                m = compose_power(sigma, k)
                for b in (sigma.mapping, m):
                    got = dyadic_extension(b, m)
                    for want in (compose(m, dyadic_extension(b, m.image)), fraction_extension_after(b, m)):
                        assert (got.coefs, got.image) == (want.coefs, want.image), (k, b is m)
        assert {"int", "Fraction"} <= set(units), set(units)

    def test_preconditions_keep_their_messages(self, paper_sigma):
        """A region near 0 and one the dilates do not cover raise as they did on a set, in
        either form; dilates of one piece that overlap in the domain still raise the overlap."""
        half_octave = PiecewiseTranslation.from_triples([(Fraction(1), Fraction(3, 2), Fraction(0))])
        onto_an_octave = PiecewiseTranslation.from_triples([(Fraction(-3), Fraction(-2), Fraction(4))])
        onto_zero = PiecewiseTranslation.from_triples([(Fraction(2), Fraction(3), Fraction(-2))])
        for region in (parse_set("[1pi,2pi)"), onto_an_octave):
            with pytest.raises(PreconditionError, match="not exactly covered"):
                dyadic_extension(half_octave, region)
        for region in (parse_set("[0pi,1pi)"), onto_zero):
            with pytest.raises(PreconditionError, match="stay away from 0"):
                dyadic_extension(paper_sigma.mapping, region)
        for extension in (dyadic_extension, fraction_dyadic_extension):
            with pytest.raises(PreconditionError, match="not exactly covered"):
                extension(half_octave, onto_an_octave.image)
        doubled = PiecewiseTranslation.from_triples([(Fraction(1), Fraction(2), Fraction(0)),
                                                     (Fraction(5, 2), Fraction(7, 2), Fraction(0))])
        for region in (parse_set("[5/4pi,7/4pi)"), doubled):
            with pytest.raises(ValueError, match=PiecewiseTranslation.OVERLAP_ERROR):
                dyadic_extension(doubled, region)

    def test_one_extension_per_powering_step_and_no_compose(self, monkeypatch, paper_sigma):
        """One pull-back step per squaring and per set bit, each on int coordinate rows; no
        `compose` call, and a `dyadic_extension` call only for sigma**2; sigma's carried rows
        taken as they are, never scaled from its coefficients, and the result built once."""
        steps, extended, scaled, built = [], [], [], []
        pull_back, extension = sigma_module._pull_back, sigma_module.dyadic_extension
        coordinates, mapped = exact_module._coordinates, PiecewiseTranslation._mapped
        monkeypatch.setattr(sigma_module, "_pull_back", lambda *args: steps.append(args) or pull_back(*args))
        monkeypatch.setattr(sigma_module, "dyadic_extension", lambda b, m: extended.append(m) or extension(b, m))
        monkeypatch.setattr(exact_module, "_coordinates", lambda *args: scaled.append(args) or coordinates(*args))
        monkeypatch.setattr(PiecewiseTranslation, "_mapped", classmethod(lambda cls, *args: built.append(args)
                                                                          or mapped(*args)))
        monkeypatch.setattr(sigma_module, "compose", lambda *args: pytest.fail("compose_power called compose"))
        for p in (1, 2, 3, 7, 12, 64, 100):
            for log in (steps, extended, scaled, built):
                log.clear()
            assert compose_power(paper_sigma, p).domain == paper_sigma.w1
            assert len(steps) == p.bit_length() - 1 + bin(p).count("1") - 1, p
            assert all(type(first[0][0]) is int for _, first, *_ in steps), p
            assert (len(extended), len(scaled), len(built)) == (p == 2, 0, p > 1), p


def largest_dilation(unit, first, targets) -> int:
    """The largest |n| of a step: the octaves of its first rows' image pieces over `unit`
    against the `targets`, each octave m with 2**m <= |x| < 2**(m+1)."""
    def octaves(lo, hi):
        near, far = sorted((abs(lo), abs(hi)))
        return range(floor_log2(near, unit), ceil_log2(far, unit))

    return max(abs(m - k) for lo, hi, s in first for k in octaves(lo + s, hi + s)
               for sign, m in targets if sign == (lo + s > 0))


def least_trailing_zeros(*families) -> int:
    return min((x & -x).bit_length() - 1 for rows in families for row in rows for x in row if x)


MIRROR = near_zero_wavelet_set(10000)
CHAIN_CASES = [
    pytest.param(("journe", "paper_w2"), 1024, False, id="journe->paper_w2 1024"),
    pytest.param(near_zero_wavelet_set(1000), 2, True, id="near_zero 1000 p=2"),
    pytest.param(near_zero_wavelet_set(1000), 16, False, id="near_zero 1000 p=16"),
    pytest.param(MIRROR, 2, True, id="mirror p=2"),
    pytest.param(MIRROR, 3, True, id="mirror p=3"),
    pytest.param(("journe", "shannon"), 3, True, id="journe->shannon 3"),
]

# (first rows, then rows over unit 4, an extension or a composition, the error a step raises)
RAISING_STEPS = [
    ([(5, 7, 0)], [(4, 8, 0), (10, 14, 0)], True, ValueError(PiecewiseTranslation.OVERLAP_ERROR)),
    ([(6, 12, 0)], [(4, 6, 8), (6, 8, 18)], True, ValueError("piecewise translation is not injective")),
    ([(4, 8, -4)], [(4, 8, 0)], True, PreconditionError("region must stay away from 0")),
    ([(4, 8, 0)], [(4, 6, 0)], True, PreconditionError(EXTENSION_ERROR)),
    ([(4, 8, 0)], [(4, 6, 0)], False, PreconditionError(COMPOSE_ERROR)),
]


class TestChain:
    """Powers on one chain of coordinate rows against the sequential loop and against binary
    powering over finished Fraction maps, one reference extension per step (`binary_power`).
    The loop takes O(p**2) extensions (one run each on 2 cores: 2.9 s to p = 128 on a catalog
    pair, 0.62 s to p = 16 on the near-zero set, 0.05 s to p = 3 on the mirror pair past the
    budget), so it checks only the cases it reaches in well under a second."""

    @pytest.mark.parametrize("pair,p,by_loop", CHAIN_CASES)
    def test_matches_the_references(self, pair, p, by_loop):
        if isinstance(pair, tuple):
            sigma = build_sigma(catalog(pair[0]), catalog(pair[1]))
        else:
            sigma = build_sigma(pair, pair.negate())
        got = compose_power(sigma, p)
        wants = [binary_power(sigma, p)]
        if by_loop:
            wants.append(next(itertools.islice(loop_compose_powers(sigma), p - 1, None)))
        for want in wants:
            assert (got.coefs, got.image) == (want.coefs, want.image)

    def test_a_rescale_in_the_middle_of_the_chain(self, steps):
        """sigma**3 from journe to shannon: the set-bit step after the squaring meets coordinates
        with a trailing zero but fewer than its largest dilation needs, so both families are
        shifted left by exactly the bits missing."""
        calls, _ = steps
        sigma = build_sigma(catalog("journe"), catalog("shannon"))
        calls.clear()
        got = compose_power(sigma, 3)
        (unit, first, then, _, octaves), (scaled, _, _) = calls[1]
        assert octaves == octaves_of(sigma.w1)
        v, top = least_trailing_zeros(first, then), largest_dilation(unit, first, octaves)
        assert 0 < v < top and scaled == unit << (top - v), (v, top, unit, scaled)
        want = next(itertools.islice(loop_compose_powers(sigma), 2, None))
        assert got == want == binary_power(sigma, 3)

    def test_a_chain_stays_on_ints_past_the_budget(self, steps):
        """The near-zero sigma with n = 1000 has a unit of about 1000 bits, and each squaring
        doubles it: the step to sigma**4 starts within the budget and ends past it, and the two
        steps after it stay on ints over units past it."""
        calls, sides = steps
        W = near_zero_wavelet_set(1000)
        sigma = build_sigma(W, W.negate())
        calls.clear()
        sides.clear()
        compose_power(sigma, 16)
        units = [args[0] for args, _ in calls]
        assert sides == ["int"] * 4, sides
        assert units[1].bit_length() <= COORD_BITS < calls[1][1][0].bit_length(), units
        assert all(unit.bit_length() > COORD_BITS for unit in units[2:]), units

    def test_two_int_maps_join_on_ints_past_the_budget(self):
        """The coprime pair's sets fit the budget and sigma joins them over the lcm of their
        units, past it, on ints; so does its cube, which is sigma again."""
        sigma = coprime_sigma(1000)
        cube = compose_power(sigma, 3)
        for power in (sigma.mapping, cube):
            unit, rows = power._carried
            assert unit.bit_length() > COORD_BITS and all(type(x) is int for row in rows for x in row), unit
        assert cube == sigma.mapping

    @pytest.mark.parametrize("side", ["int", "Fraction"])
    def test_steps_raise_the_reference_messages(self, side):
        """A step raises what the references raise on the same maps: two fragments that
        overlap, two images that do, an image piece at 0, and the two coverage errors.  The rows
        are int coordinates over unit 4, or their Fractions over unit 1."""
        unit = 4 if side == "int" else 1
        for first, then, extension, error in RAISING_STEPS:
            if side == "Fraction":
                first, then = fractions_of(first, 4), fractions_of(then, 4)
            m = PiecewiseTranslation.from_triples(fractions_of(first, unit))
            t = PiecewiseTranslation.from_triples(fractions_of(then, unit))
            with pytest.raises(type(error)) as raised:
                sigma_module._pull_back(unit, first, then, EXTENSION_ERROR if extension else COMPOSE_ERROR,
                                        octaves_of(t.domain) if extension else None)
            assert type(raised.value) is type(error) and str(raised.value) == str(error)
            with pytest.raises(type(error)) as raised:
                fraction_extension_after(t, m) if extension else object_compose(m, t)
            assert type(raised.value) is type(error) and str(raised.value) == str(error)


class TestRoundTrips:
    def test_all_catalog_pairs_invert(self):
        for a, b in itertools.permutations(CATALOG_NAMES, 2):
            forward = build_sigma(catalog(a), catalog(b))
            backward = build_sigma(catalog(b), catalog(a))
            assert backward.mapping == forward.mapping.inverse()
            assert compose(forward.mapping, backward.mapping).pairs == (
                (catalog(a), ZERO),
            )


class TestLocalCommutant:
    def test_first_power_in(self, paper_sigma):
        verdict = power_in_local_commutant(paper_sigma, 1)
        assert verdict.in_commutant
        assert bool(verdict)
        assert verdict.witness is None

    def test_second_power_out_with_witness(self, paper_sigma):
        verdict = power_in_local_commutant(paper_sigma, 2)
        assert not verdict.in_commutant
        piece, shift = verdict.witness
        assert shift == rp(-9, 4)
        assert piece.to_text() == "[17/8pi,273/128pi)"

    @pytest.mark.parametrize("power", [1.5, Fraction(3, 2), 2.0])
    def test_a_non_integer_power_has_no_verdict(self, paper_sigma, power):
        """No verdict reports power=1.5 with sigma**2's answer."""
        with pytest.raises(PreconditionError, match=re.escape(f"must be an integer in 1..{MAX_POWER}, got {power!r}")):
            power_in_local_commutant(paper_sigma, power)

    def test_identity_all_powers_in(self, journe):
        identity = build_sigma(journe, journe)
        for p in (1, 2, 3, 4):
            assert power_in_local_commutant(identity, p).in_commutant
