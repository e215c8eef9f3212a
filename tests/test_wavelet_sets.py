import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from wavemult.exact import (
    Interval,
    IntervalSet,
    PreconditionError,
    RationalPi,
    TWO_PI,
    ZERO,
    _back,
    _coordinates,
    floor_log2,
)
from wavemult.parsing import parse_set
from wavemult.wavelet_sets import (
    CACHE_SIZE,
    CATALOG_NAMES,
    PiecewiseTranslation,
    catalog,
    is_wavelet_set,
)


from _oracles import (
    annulus_images,
    deep_piece_wavelet_set,
    midpoint_tiling_failure,
    near_zero_wavelet_set,
    object_annulus_fragments,
    object_piecewise,
    object_principal_fragments,
    object_tiling_failure,
    object_wavelet_report,
    principal_images,
    random_interval_set,
    random_wavelet_candidate,
    tagged_sweep,
    two_interval_wavelet_set,
)

PRINCIPAL_WINDOW = parse_set("[-1pi,1pi)")
ANNULUS = parse_set("[-2pi,-1pi),[1pi,2pi)")


def rp(num, den=1):
    return RationalPi.of(num, den)


def witness(W):
    return is_wavelet_set(W).tau_witness


def translation_failure(W):
    """Where the 2*pi*Z translates of W, folded into [-pi, pi), fail to tile it."""
    folded = [Interval(iv.lo + s, iv.hi + s) for iv, s in object_principal_fragments(W)]
    return object_tiling_failure(folded, PRINCIPAL_WINDOW)


def cases_text(pt):
    return [(iv.to_text(), shift.shift_text()) for iv, shift in pt.cases()]


class TestTranslationCongruence:
    def test_shannon_witness(self, shannon):
        tau = witness(shannon)
        assert tau is not None
        assert cases_text(tau) == [
            ("[-2pi,-pi)", "2 pi"),
            ("[pi,2pi)", "-2 pi"),
        ]
        assert tau.image == PRINCIPAL_WINDOW

    def test_identity_window(self):
        fragments = object_principal_fragments(PRINCIPAL_WINDOW)  # 0 in the closure
        assert translation_failure(PRINCIPAL_WINDOW).is_empty
        tau = PiecewiseTranslation.from_triples((iv.lo.coef, iv.hi.coef, s.coef) for iv, s in fragments)
        assert tau.pairs == ((PRINCIPAL_WINDOW, ZERO),)

    def test_w1_witness(self, w1):
        tau = witness(w1)
        assert tau is not None
        assert cases_text(tau) == [
            ("[-1/4pi,-1/8pi)", "0 pi"),
            ("[15/8pi,3pi)", "-2 pi"),
            ("[3pi,15/4pi)", "-4 pi"),
        ]

    def test_half_annulus_fails(self):
        assert witness(parse_set("[1pi,2pi)")) is None

    def test_witness_is_measure_preserving(self):
        for name in CATALOG_NAMES:
            tau = witness(catalog(name))
            assert tau.domain.measure() == TWO_PI
            assert tau.image.measure() == TWO_PI
            assert tau.image == PRINCIPAL_WINDOW


class TestDilationCongruence:
    def test_shannon(self, shannon):
        assert is_wavelet_set(shannon).is_dilation_congruent

    def test_w1(self, w1):
        assert is_wavelet_set(w1).is_dilation_congruent

    def test_pi_to_3pi_fails(self):
        assert not is_wavelet_set(parse_set("[1pi,3pi)")).is_dilation_congruent

    def test_zero_in_closure_rejected(self):
        with pytest.raises(PreconditionError, match="undecidable with 0 in the closure"):
            is_wavelet_set(parse_set("[-1/4pi,1/4pi)"))
        with pytest.raises(PreconditionError, match="undecidable with 0 in the closure"):
            is_wavelet_set(parse_set("[0pi,1pi)"))


class TestIsWaveletSet:
    def test_catalog_accepted(self):
        for name in CATALOG_NAMES:
            report = is_wavelet_set(catalog(name))
            assert report.accepted, name
            assert report.failure_regions.is_empty
            assert report.tau_witness is not None

    def test_catalog_measures(self):
        for name in CATALOG_NAMES:
            assert catalog(name).measure() == TWO_PI

    def test_half_annulus_rejected(self):
        report = is_wavelet_set(parse_set("[1pi,2pi)"))
        assert not report.accepted
        assert not report.is_translation_congruent
        assert not report.failure_regions.is_empty

    def test_negation_symmetry(self):
        for name in CATALOG_NAMES:
            W = catalog(name)
            assert is_wavelet_set(W.negate()).accepted == is_wavelet_set(W).accepted
        bad = parse_set("[1pi,3pi),[-2pi,-1pi)")
        assert is_wavelet_set(bad.negate()).accepted == is_wavelet_set(bad).accepted

    def test_any_piece_enlargement_breaks_acceptance(self):
        delta = rp(1, 64)
        for name in CATALOG_NAMES:
            W = catalog(name)
            for idx, piece in enumerate(W.pieces):
                widened_hi = list(W.pieces)
                widened_hi[idx] = Interval(piece.lo, piece.hi + delta)
                assert not is_wavelet_set(
                    IntervalSet.from_intervals(widened_hi)
                ).accepted, (name, idx, "hi")
                widened_lo = list(W.pieces)
                widened_lo[idx] = Interval(piece.lo - delta, piece.hi)
                assert not is_wavelet_set(
                    IntervalSet.from_intervals(widened_lo)
                ).accepted, (name, idx, "lo")

    def test_journe_structure(self, journe):
        assert len(journe) == 4
        assert journe.measure() == TWO_PI


class TestFailureAttribution:
    """One sweep tiles [-2pi, 2pi); a failure piece breaks translation congruence where it
    meets [-pi, pi) and dilation congruence where it meets the annulus."""

    CASES = [
        ("[-3pi,-pi)", True, False, "[-3/2pi,-pi),[pi,2pi)"),
        ("[-15/4pi,-15/8pi),[1/2pi,pi)", False, True, "[1/8pi,1/4pi),[1/2pi,pi)"),
        ("[-2pi,-1/2pi)", False, False, "[-2pi,-pi),[-1/2pi,0pi),[pi,2pi)"),
        ("[-31/8pi,-1/2pi),[7/2pi,49/8pi)", False, False, "[-2pi,pi),[49/32pi,7/4pi)"),  # crosses -pi
    ]
    CASES += [(catalog(name).to_text(), True, True, "") for name in CATALOG_NAMES]

    @pytest.mark.parametrize("text,translation,dilation,failure", CASES)
    def test_matches_the_two_separate_tilings(self, text, translation, dilation, failure):
        W = parse_set(text)
        report = is_wavelet_set(W)
        assert (report.is_translation_congruent, report.is_dilation_congruent) == (translation, dilation)
        assert report.failure_regions.to_text() == failure
        witness = report.tau_witness
        got = (report.is_translation_congruent, report.is_dilation_congruent,
               None if witness is None else witness.pairs, report.failure_regions)
        assert got == object_wavelet_report(W)


class TestCatalog:
    def test_names(self):
        assert set(CATALOG_NAMES) == {"shannon", "journe", "paper_w1", "paper_w2"}

    def test_w1_endpoints(self, w1):
        assert w1 == parse_set("[-1/4pi,-1/8pi),[15/8pi,15/4pi)")

    def test_w2_is_mirror(self, w1, w2):
        assert w2 == w1.negate()

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown catalog name"):
            catalog("nope")


class TestPiecewiseTranslation:
    def test_overlapping_domain_rejected(self):
        with pytest.raises(ValueError, match="overlapping"):
            PiecewiseTranslation.from_triples(
                [
                    (Fraction(0), Fraction(2), Fraction(2)),
                    (Fraction(1), Fraction(3), Fraction(4)),
                ]
            )

    def test_non_injective_rejected(self):
        # both pieces land on [2pi, 3pi)
        with pytest.raises(ValueError, match="injective"):
            PiecewiseTranslation.from_triples(
                [
                    (Fraction(0), Fraction(1), Fraction(2)),
                    (Fraction(2), Fraction(3), Fraction(0)),
                ]
            )

    def test_apply_and_inverse(self, shannon):
        tau = witness(shannon)
        assert rp(3, 2) + tau.value_at(rp(3, 2)) == rp(-1, 2)
        assert rp(-3, 2) + tau.value_at(rp(-3, 2)) == rp(1, 2)
        with pytest.raises(PreconditionError):
            rp(1, 2) + tau.value_at(rp(1, 2))
        inv = tau.inverse()
        assert inv.domain == PRINCIPAL_WINDOW
        assert inv.image == shannon
        assert rp(-1, 2) + inv.value_at(rp(-1, 2)) == rp(3, 2)

    def test_same_shift_fragments_merge(self):
        pt = PiecewiseTranslation.from_triples(
            [
                (Fraction(0), Fraction(1), Fraction(2)),
                (Fraction(1), Fraction(2), Fraction(2)),
            ]
        )
        assert pt.pairs == ((parse_set("[0pi,2pi)"), rp(2)),)

    def test_two_pi_integrality_flag(self, shannon):
        tau = witness(shannon)
        assert tau.is_two_pi_integral
        skew = PiecewiseTranslation.from_triples([(Fraction(0), Fraction(1), Fraction(1, 4))])
        assert not skew.is_two_pi_integral

    @pytest.mark.parametrize("shift", [4, -4, 0, 3, -3, Fraction(4), Fraction(-6), Fraction(3),
                                       Fraction(-5), Fraction(1, 2), Fraction(-1, 2), Fraction(5, 2),
                                       Fraction(4, 3), Fraction(2**80 + 2), Fraction(2**80 + 1, 2)])
    def test_two_pi_integrality_of_one_shift(self, shift):
        """Read on the numerator and denominator, for int and Fraction tags alike."""
        pt = PiecewiseTranslation.from_triples([(0, 1, -20), (1, 2, shift)])
        assert pt.is_two_pi_integral is (shift % 2 == 0)
        assert pt.is_two_pi_integral is all(s.coef % 2 == 0 for _, s in pt.cases())


class TestHostileInputs:
    def test_tiny_left_endpoint_rejected_quickly(self):
        W = IntervalSet([Interval(RationalPi(Fraction(1, 2**10000)), RationalPi(1))])
        start = time.perf_counter()
        report = is_wavelet_set(W)
        elapsed = time.perf_counter() - start
        assert not report.accepted
        assert not report.is_translation_congruent
        assert not report.is_dilation_congruent
        assert elapsed < 5.0

    def test_cache_is_bounded(self):
        assert 0 < CACHE_SIZE < float("inf")
        assert is_wavelet_set.cache_info().maxsize == CACHE_SIZE

    def test_long_piece_rejected_quickly(self):
        W = IntervalSet([Interval(rp(1), rp(10**6))])
        start = time.perf_counter()
        report = is_wavelet_set(W)
        elapsed = time.perf_counter() - start
        assert not report.is_translation_congruent
        assert not report.is_dilation_congruent
        assert report.tau_witness is None
        assert report.failure_regions.to_text() == "[-2pi,2pi)"
        assert elapsed < 1.0

    @pytest.mark.parametrize("seed", range(24))
    def test_long_pieces_match_the_full_split(self, seed):
        rng = random.Random(seed)
        long_pieces = []
        for _ in range(rng.randint(1, 2)):
            lo = Fraction(rng.randint(-400, 400), rng.randint(1, 16))
            cells = rng.randint(2, 20)  # the piece meets this many 2*pi cells
            first = 2 * ((lo + 1) // 2) - 1  # left end of the cell holding lo
            hi = first + 2 * (cells - 1) + Fraction(rng.randint(1, 15), 8)
            long_pieces.append(Interval(RationalPi(lo), RationalPi(hi)))
        W = IntervalSet.from_intervals(long_pieces).union(random_interval_set(rng, 3))
        failure = translation_failure(W)
        assert failure == midpoint_tiling_failure(principal_images(W), PRINCIPAL_WINDOW)
        if not W.zero_in_closure():
            report = is_wavelet_set(W)
            assert report.failure_regions.intersect(PRINCIPAL_WINDOW) == failure
            assert (report.tau_witness is None) == (not failure.is_empty)

    @pytest.mark.parametrize("seed", range(24))
    def test_long_octave_pieces_match_the_full_split(self, seed):
        rng = random.Random(seed)
        pieces = []
        for _ in range(rng.randint(1, 3)):
            octaves = rng.randint(2, 20)  # the piece meets this many dyadic annuli
            m = rng.randint(-8, 4)
            lo = Fraction(2) ** m * (1 + Fraction(rng.randrange(64), 64))
            hi = Fraction(2) ** (m + octaves - 1) * (1 + Fraction(rng.randint(1, 64), 64))
            pieces.append((lo, hi) if rng.random() < 0.5 else (-hi, -lo))
        for _ in range(rng.randint(0, 3)):  # short pieces of both signs
            lo = Fraction(rng.randint(1, 512), 64)
            hi = lo + Fraction(rng.randint(1, 64), 64)
            pieces.append((lo, hi) if rng.random() < 0.5 else (-hi, -lo))
        W = IntervalSet.from_intervals(Interval(RationalPi(a), RationalPi(b)) for a, b in pieces)
        positive, negative = annulus_images(W)
        want = midpoint_tiling_failure(positive, IntervalSet([Interval(rp(1), rp(2))])).union(
            midpoint_tiling_failure(negative, IntervalSet([Interval(rp(-2), rp(-1))]))
        )
        failure = object_tiling_failure([iv for part in object_annulus_fragments(W) for iv in part], ANNULUS)
        assert failure == want
        report = is_wavelet_set(W)
        assert report.failure_regions.difference(PRINCIPAL_WINDOW) == failure
        assert report.is_dilation_congruent == failure.is_empty


DEEP = Fraction(1, 2**10000)


def primes(lo, count):
    out = []
    while len(out) < count:
        if all(lo % p for p in range(2, int(lo**0.5) + 1)):
            out.append(lo)
        lo += 1
    return out


def coprime_set(rng, count):
    """`count` pieces in [1pi, 3pi) and [-3pi, -1pi) whose endpoints have distinct prime
    denominators, so that no unit of at most COORD_BITS bits clears them."""
    ends = sorted(Fraction(rng.randrange(p, 2 * p), p) for p in primes(1000, 2 * count))
    pieces = list(zip(ends[::2], ends[1::2]))
    return IntervalSet.from_intervals(Interval(RationalPi(lo if k % 2 else -hi), RationalPi(hi if k % 2 else -lo))
                                      for k, (lo, hi) in enumerate(pieces))


def integer_side_sets():
    """Seeded sets whose unit fits: cut-and-shift candidates (their folded and scaled
    fragments tie and touch), sets on a 1/64 grid with endpoints on odd multiples of pi
    and on powers of two, wavelet sets up to 2**-1000 pi from 0, hostile [pi, ~2000pi)
    and [2**-e pi, pi) for e up to 1000, 240 coprime denominators (a unit of about 2500
    bits) and the long octave range [pi, 2**1100 pi)."""
    rng = random.Random(1717)
    sets = [random_wavelet_candidate(rng, rng.randint(1, 24)) for _ in range(150)]
    sets += [random_interval_set(rng) for _ in range(150)]
    sets += [two_interval_wavelet_set(rng) for _ in range(10)]
    sets += [near_zero_wavelet_set(n) for n in (0, 1, 5, 30, 1000)]
    sets += [W.negate() for W in sets[-15:]]
    sets += [IntervalSet([Interval(rp(1), RationalPi(2000 - Fraction(rng.randrange(1, 2**16), 2**16)))])
             for _ in range(4)]
    sets += [IntervalSet([Interval(RationalPi(Fraction(1, 2**e)), RationalPi(1 - Fraction(1, 2**17)))])
             for e in (50, 100, 200, 1000)]
    sets += [catalog(name) for name in CATALOG_NAMES]
    sets += [coprime_set(rng, 120), IntervalSet([Interval(rp(1), RationalPi(Fraction(2) ** 1100))])]
    return sets


def fraction_side_sets():
    """Seeded sets whose unit would pass COORD_BITS bits: 2**-10000 pi endpoints, coprime
    denominators, 1600 pieces plus one 2**-10000 pi endpoint, and a long octave range."""
    rng = random.Random(1718)
    many = random_wavelet_candidate(rng, 1600)
    return [
        IntervalSet([Interval(RationalPi(DEEP), rp(1))]),
        near_zero_wavelet_set(10000),
        coprime_set(rng, 200),
        coprime_set(rng, 400),
        IntervalSet.from_intervals(list(many) + [Interval(RationalPi(DEEP), RationalPi(3 * DEEP / 2))]),
        IntervalSet([Interval(rp(1), RationalPi(Fraction(2) ** 3100))]),
    ]


def set_coordinates(W):
    """`_coordinates` of W as `is_wavelet_set` takes them: the unit also times the octave
    2**K of the largest |x|, so that every rescaling into the annulus is an int."""
    return _coordinates(W.coefs, max(0, floor_log2(W.max_abs().coef)) if W.coefs else 0)


def witness_image(pairs) -> IntervalSet:
    """The union of the translated pieces of a reference witness, given as its pairs."""
    return IntervalSet.from_intervals(Interval(iv.lo + s, iv.hi + s) for piece, s in pairs for iv in piece)


class TestIntegerCoordinates:
    """The check on int coordinates against the object-level reference: the same verdicts,
    failure regions and witness rows, and each input on the side it should take."""

    @pytest.mark.parametrize("side,sets", [(int, integer_side_sets), (Fraction, fraction_side_sets)],
                             ids=["int", "Fraction"])
    def test_matches_the_fraction_reference(self, side, sets):
        seen = Counter()
        for W in sets():
            if W.zero_in_closure():
                seen["zero in closure"] += 1
                with pytest.raises(PreconditionError, match="undecidable"):
                    is_wavelet_set.__wrapped__(W)
                continue
            assert {type(x) for pair in set_coordinates(W)[1] for x in pair} <= {side}, W
            got = is_wavelet_set.__wrapped__(W)
            translation, dilation, pairs, failure = object_wavelet_report(W)
            assert got.is_translation_congruent == translation, W
            assert got.is_dilation_congruent == dilation, W
            assert got.failure_regions == failure, W
            assert (got.tau_witness is None) == (pairs is None), W
            if got.tau_witness is not None:
                assert got.tau_witness.pairs == pairs, W
                assert got.tau_witness.image == witness_image(pairs), W
                seen["witness"] += 1
            seen["accepted" if got.accepted else "rejected"] += 1
        assert seen["witness"] and seen["rejected"], seen
        if side is int:
            assert min(seen[k] for k in ("accepted", "zero in closure")) >= 5, seen

    def test_the_unit_clears_every_rescaling(self):
        W = parse_set("[-5/2pi,-2pi),[1/3pi,2/5pi),[5/2pi,11/4pi)")
        unit, coords = set_coordinates(W)
        coef = _back(unit, [(coords, W.coefs)])
        assert unit == 60 * 2  # D = lcm(2, 3, 5, 4) = 60, 2**K = 2 for max |x| = 11/4
        assert coords == [(-300, -240), (40, 48), (300, 330)]
        assert [coef(x) for pair in coords for x in pair] == [x for pair in W.coefs for x in pair]
        assert coef(-2 * unit) == Fraction(-2)


def translation_triples(rng):
    """Up to eight (lo, hi, shift) Fraction triples, shuffled: pieces on the (1/8)pi grid that
    start where the last ends or near it, some empty, with shifts in (1/4)pi steps, so that
    touching rows of one shift, overlapping rows and overlapping images all occur."""
    triples = []
    lo = Fraction(rng.randint(-16, 8), 8)
    for _ in range(rng.randint(0, 8)):
        hi = lo + Fraction(rng.randint(0, 6), 8)
        triples.append((lo, hi, Fraction(rng.choice((-8, -4, -3, 0, 0, 1, 4, 8)), 4)))
        lo = hi + Fraction(rng.choice((0, 0, 1, -1, 3)), 8)
    rng.shuffle(triples)
    return triples


def coprime_translates(rng, count):
    """[-pi, pi) cut at `count` points with distinct prime denominators, so that no unit of at
    most COORD_BITS bits clears them, each piece moved by a seeded nonzero 2*pi*k: a wavelet
    set candidate with a translation witness, away from 0."""
    cuts = sorted(Fraction(rng.choice((-1, 1)) * rng.randrange(1, p), p) for p in primes(1000, count))
    ends = [Fraction(-1)] + cuts + [Fraction(1)]
    return IntervalSet.from_intervals(Interval(RationalPi(lo + k), RationalPi(hi + k))
                                      for lo, hi in zip(ends, ends[1:]) for k in (rng.choice((-4, -2, 2, 4)),))


def reversed_triples(tau):
    return [(lo + s, hi + s, -s) for lo, hi, s in tau.coefs]


def reference_translation(triples) -> tuple:
    """(coefs, image) of the translation of (lo, hi, shift) triples from the object-level rows
    of `object_piecewise`; the library's ValueError when pieces, of one shift or two, overlap
    or when images do, as `tagged_sweep` counts them."""
    if any(count > 1 for _, _, count, _ in tagged_sweep((lo, hi, None) for lo, hi, _ in triples)):
        raise ValueError(PiecewiseTranslation.OVERLAP_ERROR)
    coefs = tuple((iv.lo.coef, iv.hi.coef, s.coef) for iv, s in object_piecewise(triples, RationalPi)[2])
    image = list(tagged_sweep((lo + s, hi + s, None) for lo, hi, s in coefs))
    if any(count > 1 for _, _, count, _ in image):
        raise ValueError("piecewise translation is not injective")
    return coefs, IntervalSet.from_cells((lo, hi) for lo, hi, _, _ in image)


class TestCoefficientTriples:
    """A translation given as coefficient triples is scaled by `_coordinates` and built by the
    rule of the witness, `compose` and `dyadic_extension`: the same coefs and image, or the
    same error, as the object-level rows and a sorted union of the images, on both sides of
    the budget."""

    def test_seeded_triples_match_the_fraction_reference(self):
        seen = Counter()
        for seed in range(300):
            rng = random.Random(seed)
            triples = translation_triples(rng)
            for side, case in ((int, triples), (Fraction, [(lo + DEEP, hi + DEEP, s) for lo, hi, s in triples])):
                assert {type(x) for row in _coordinates(case)[1] for x in row} <= {side}, seed
                try:
                    want = reference_translation(case)
                except ValueError as err:
                    with pytest.raises(ValueError) as raised:
                        PiecewiseTranslation.from_triples(case)
                    assert str(raised.value) == str(err), seed
                    seen[str(err)] += 1
                    continue
                got = PiecewiseTranslation.from_triples(case)
                assert (got.coefs, got.image) == want, seed
                seen["merged" if len(got.coefs) < len([t for t in case if t[0] < t[1]]) else "built"] += 1
        assert min(seen[k] for k in ("merged", "built", PiecewiseTranslation.OVERLAP_ERROR,
                                     "piecewise translation is not injective")) >= 10, seen

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_inverse_of_a_catalog_witness(self, name):
        tau = witness(catalog(name))
        inverse = tau.inverse()
        assert (inverse.coefs, inverse.image) == reference_translation(reversed_triples(tau))
        assert (inverse.domain, inverse.image) == (PRINCIPAL_WINDOW, catalog(name))

    @pytest.mark.parametrize("W", [near_zero_wavelet_set(10000), coprime_translates(random.Random(20), 400)],
                             ids=["2**-10000 pi endpoint", "coprime denominators"])
    def test_inverse_past_the_budget(self, W):
        tau = witness(W)
        assert _coordinates(tau.coefs)[0] == 1  # the unit of Fractions past COORD_BITS
        inverse = tau.inverse()
        assert (inverse.coefs, inverse.image) == reference_translation(reversed_triples(tau))
        assert (inverse.domain, inverse.image) == (PRINCIPAL_WINDOW, W)


def translation_congruent_sets():
    """(W, the reference witness's pairs) for the catalog, seeded cut-and-shift sets of 2 to
    400 pieces, two-interval sets, `near_zero_wavelet_set(1000)` and its negation, and
    `deep_piece_wavelet_set(50, 50)`, each W that the object-level reference finds translation
    congruent."""
    rng = random.Random(2626)
    sets = [catalog(name) for name in CATALOG_NAMES]
    for pieces in (2, 3, 5, 8, 13, 24, 48, 100, 180, 400):
        sets += [random_wavelet_candidate(rng, pieces) for _ in range(16 if pieces < 100 else 4)]
    sets += [two_interval_wavelet_set(rng) for _ in range(10)]
    sets += [near_zero_wavelet_set(1000), near_zero_wavelet_set(1000).negate(), deep_piece_wavelet_set(50, 50)]
    return [(W, report[2]) for W in sets for report in [object_wavelet_report(W)] if report[0]]


class TestWitnessFromTheVerdict:
    """With translation congruence every point of [-pi, pi) lies in exactly one translated fold
    fragment, so the witness takes the fragments as its rows and [-pi, pi) as its image, with no
    construction rule: on every translation-congruent set tried its rows are the object-level
    reference's, its domain is W and its translated rows tile [-pi, pi) by their own ends."""

    def test_the_image_is_the_principal_window(self):
        sets = translation_congruent_sets()
        assert len(sets) >= 100 and max(len(W) for W, _ in sets) >= 300, len(sets)
        for W, pairs in sets:
            tau = is_wavelet_set.__wrapped__(W).tau_witness
            assert tau.image == PRINCIPAL_WINDOW, W
            assert tau.pairs == pairs, W
            assert tau.domain == W and tau.is_two_pi_integral, W
            images = sorted((lo + s, hi + s) for lo, hi, s in tau.coefs)
            assert images[0][0] == -1 and images[-1][1] == 1, W
            assert all(a[1] == b[0] for a, b in zip(images, images[1:])), W
