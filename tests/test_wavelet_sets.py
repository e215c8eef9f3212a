import random
import time
from fractions import Fraction

import pytest

from wavemult.exact import (
    Interval,
    IntervalSet,
    PreconditionError,
    RationalPi,
    TWO_PI,
    ZERO,
)
from wavemult.parsing import parse_set
from wavemult.wavelet_sets import (
    CACHE_SIZE,
    CATALOG_NAMES,
    PRINCIPAL_WINDOW,
    PiecewiseTranslation,
    _translation_result,
    catalog,
    dilation_congruence,
    is_wavelet_set,
    translation_congruence,
)


from _oracles import midpoint_tiling_failure, principal_images, random_interval_set


def rp(num, den=1):
    return RationalPi.of(num, den)


def cases_text(pt):
    return [(iv.to_text(), shift.shift_text()) for iv, shift in pt.cases()]


class TestTranslationCongruence:
    def test_shannon_witness(self, shannon):
        tau = translation_congruence(shannon)
        assert tau is not None
        assert cases_text(tau) == [
            ("[-2pi,-pi)", "2 pi"),
            ("[pi,2pi)", "-2 pi"),
        ]
        assert tau.image == PRINCIPAL_WINDOW

    def test_identity_window(self):
        tau = translation_congruence(PRINCIPAL_WINDOW)
        assert tau is not None
        assert tau.pairs == ((PRINCIPAL_WINDOW, ZERO),)

    def test_w1_witness(self, w1):
        tau = translation_congruence(w1)
        assert tau is not None
        assert cases_text(tau) == [
            ("[-1/4pi,-1/8pi)", "0 pi"),
            ("[15/8pi,3pi)", "-2 pi"),
            ("[3pi,15/4pi)", "-4 pi"),
        ]

    def test_half_annulus_fails(self):
        assert translation_congruence(parse_set("[1pi,2pi)")) is None

    def test_witness_is_measure_preserving(self):
        for name in CATALOG_NAMES:
            tau = translation_congruence(catalog(name))
            assert tau.domain.measure() == TWO_PI
            assert tau.image.measure() == TWO_PI
            assert tau.image == PRINCIPAL_WINDOW


class TestDilationCongruence:
    def test_shannon(self, shannon):
        assert dilation_congruence(shannon)

    def test_w1(self, w1):
        assert dilation_congruence(w1)

    def test_pi_to_3pi_fails(self):
        assert not dilation_congruence(parse_set("[1pi,3pi)"))

    def test_zero_in_closure_rejected(self):
        with pytest.raises(PreconditionError):
            dilation_congruence(parse_set("[-1/4pi,1/4pi)"))
        with pytest.raises(PreconditionError):
            dilation_congruence(parse_set("[0pi,1pi)"))


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
            PiecewiseTranslation(
                (
                    (parse_set("[0pi,2pi)"), rp(2)),
                    (parse_set("[1pi,3pi)"), rp(4)),
                )
            )

    def test_non_injective_rejected(self):
        # both pieces land on [2pi, 3pi)
        with pytest.raises(ValueError, match="injective"):
            PiecewiseTranslation(
                (
                    (parse_set("[0pi,1pi)"), rp(2)),
                    (parse_set("[2pi,3pi)"), ZERO),
                )
            )

    def test_apply_and_inverse(self, shannon):
        tau = translation_congruence(shannon)
        assert tau.apply(rp(3, 2)) == rp(-1, 2)
        assert tau.apply(rp(-3, 2)) == rp(1, 2)
        with pytest.raises(PreconditionError):
            tau.apply(rp(1, 2))
        inv = tau.inverse()
        assert inv.domain == PRINCIPAL_WINDOW
        assert inv.image == shannon
        assert inv.apply(rp(-1, 2)) == rp(3, 2)

    def test_same_shift_fragments_merge(self):
        pt = PiecewiseTranslation.from_fragments(
            [
                (Interval(rp(0), rp(1)), rp(2)),
                (Interval(rp(1), rp(2)), rp(2)),
            ]
        )
        assert pt.pairs == ((parse_set("[0pi,2pi)"), rp(2)),)

    def test_two_pi_integrality_flag(self, shannon):
        tau = translation_congruence(shannon)
        assert tau.is_two_pi_integral
        skew = PiecewiseTranslation.from_fragments([(Interval(rp(0), rp(1)), rp(1, 4))])
        assert not skew.is_two_pi_integral


class TestHostileInputs:
    def test_tiny_left_endpoint_rejected_quickly(self):
        W = IntervalSet.single(RationalPi(Fraction(1, 2**10000)), RationalPi(1))
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
        W = IntervalSet.single(rp(1), rp(10**6))
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
        witness, failure = _translation_result(W)
        assert failure == midpoint_tiling_failure(principal_images(W), PRINCIPAL_WINDOW)
        assert (witness is None) == (not failure.is_empty)
