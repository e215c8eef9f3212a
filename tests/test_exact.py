import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wavemult.exact import (
    Interval,
    IntervalSet,
    PreconditionError,
    RationalPi,
    TWO_PI,
    ZERO,
    floor_log2,
    ceil_log2,
)
from wavemult.parsing import parse_set

from _oracles import loop_ceil_log2, loop_floor_log2, random_rational_pi


def rp(num, den=1):
    return RationalPi.of(num, den)


coefs = st.fractions(min_value=Fraction(-8), max_value=Fraction(8), max_denominator=32)


@st.composite
def interval_sets(draw):
    ivs = []
    for _ in range(draw(st.integers(0, 5))):
        a = draw(coefs)
        b = draw(coefs)
        if a == b:
            continue
        lo, hi = sorted((a, b))
        ivs.append(Interval(RationalPi(lo), RationalPi(hi)))
    return IntervalSet.from_intervals(ivs)


class TestRationalPi:
    def test_canonical_form(self):
        x = rp(6, 4)
        assert (x.num, x.den) == (3, 2)
        y = rp(-6, 4)
        assert (y.num, y.den) == (-3, 2)

    def test_exact_ordering(self):
        assert rp(1, 3) < rp(17, 50)
        # indistinguishable in double precision, distinct exactly
        big = 10**18
        assert rp(big // 3, big) < rp(1, 3)

    def test_two_pi_multiples(self):
        assert rp(-4).coef % 2 == 0
        assert rp(0).coef % 2 == 0
        assert not rp(-9, 4).coef % 2 == 0
        assert not rp(1).coef % 2 == 0

    def test_float_and_text(self):
        x = rp(15, 8)
        assert math.isclose(float(x), 15 * math.pi / 8)
        assert x.pi_text() == "15/8pi"
        assert x.shift_text() == "15/8 pi"
        assert rp(-1).pi_text() == "-pi"
        assert rp(2).pi_text() == "2pi"
        assert rp(0).pi_text() == "0pi"

    def test_text_beyond_the_digit_limit_is_precondition_error(self):
        limit = sys.get_int_max_str_digits()
        at_limit = 10 ** (limit - 1)
        assert rp(1, at_limit).pi_text() == f"1/{at_limit}pi"
        for x in (RationalPi(10**limit), rp(1, 10**limit), rp(-3, 10**limit)):
            for text in (x.pi_text, x.shift_text):
                with pytest.raises(PreconditionError, match="digits to print"):
                    text()

    def test_float_without_finite_value_is_precondition_error(self):
        assert float(RationalPi(Fraction(10**300))) == 10**300 * math.pi
        assert float(rp(1, 10**400)) == 0.0
        for coef in (10**400, -(10**400), 10**308):  # 10**308 is a float, 10**308 * pi is not
            with pytest.raises(PreconditionError, match="too large for a float"):
                float(RationalPi(coef))

    def test_arithmetic(self):
        assert rp(17, 8) - TWO_PI == rp(1, 8)
        assert -rp(3, 4) == rp(-3, 4)
        assert abs(rp(-5, 2)) == rp(5, 2)
        assert rp(1, 2) * 3 == rp(3, 2)
        with pytest.raises(TypeError):
            rp(1) * rp(1)

    def test_log2_helpers(self):
        assert floor_log2(Fraction(15, 8)) == 0
        assert floor_log2(Fraction(1, 8)) == -3
        assert ceil_log2(Fraction(15, 8)) == 1
        assert ceil_log2(Fraction(2)) == 1

    def test_log2_matches_halving_loop(self):
        rng = random.Random(2)
        qs = [Fraction(2) ** e for e in range(-300, 301)]
        for _ in range(500):
            num_bits, den_bits = rng.randint(1, 200), rng.randint(1, 200)
            qs.append(Fraction(rng.getrandbits(num_bits) + 1, rng.getrandbits(den_bits) + 1))
        near = qs[250:351:10]  # 2**-50 ... 2**50, each nudged either side
        qs += [q + Fraction(1, 2**90) for q in near] + [q - Fraction(1, 2**90) for q in near]
        for q in qs:
            assert floor_log2(q) == loop_floor_log2(q)
            assert ceil_log2(q) == loop_ceil_log2(q)

    def test_log2_huge_exponents(self):
        assert floor_log2(Fraction(1, 2**10000)) == -10000
        assert ceil_log2(Fraction(1, 2**10000)) == -10000
        assert floor_log2(Fraction(3, 2**10000)) == -9999
        assert ceil_log2(Fraction(2**10000 + 1)) == 10001
        with pytest.raises(ValueError):
            floor_log2(Fraction(0))

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            RationalPi(0.1)
        with pytest.raises(TypeError):
            rp(1, 2) * 0.5
        with pytest.raises(TypeError):
            0.5 * rp(1, 2)
        assert RationalPi("1/3") == rp(1, 3)
        assert rp(1, 2) * Fraction(2, 3) == rp(1, 3)

    def test_ordering_against_other_types(self):
        assert sorted([rp(3), rp(-1, 2), rp(1, 3)]) == [rp(-1, 2), rp(1, 3), rp(3)]
        assert rp(1, 3) <= rp(1, 3) and rp(1, 3) >= rp(1, 3)
        assert rp(1, 2) > rp(1, 3) and not rp(1, 2) < rp(1, 3)
        with pytest.raises(TypeError):
            rp(1) < 2
        assert rp(1) != 1


class TestNormalize:
    def test_overlap_merge(self):
        assert parse_set("[1pi,2pi),[3/2pi,3pi)") == parse_set("[1pi,3pi)")

    def test_empty(self):
        assert IntervalSet.from_intervals([]) == IntervalSet.empty()

    def test_w1_already_canonical(self, w1):
        assert IntervalSet.from_intervals(w1.pieces) == w1
        assert len(w1) == 2

    def test_adjacent_pieces_merge(self):
        got = IntervalSet.from_intervals(
            [Interval(rp(0), rp(1)), Interval(rp(1), rp(2))]
        )
        assert got == IntervalSet([Interval(rp(0), rp(2))])

    def test_non_canonical_direct_construction_rejected(self):
        with pytest.raises(ValueError):
            IntervalSet((Interval(rp(0), rp(2)), Interval(rp(1), rp(3))))

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError, match=r"degenerate interval \[pi,pi\)"):
            Interval(rp(1), rp(1))

    @given(interval_sets())
    def test_idempotent(self, s):
        assert IntervalSet.from_intervals(s.pieces) == s


class TestSetAlgebra:
    def test_intersect_example(self):
        a = parse_set("[1pi,2pi)")
        b = parse_set("[3/2pi,5/2pi)")
        assert a.intersect(b) == parse_set("[3/2pi,2pi)")

    def test_self_difference(self, journe):
        assert journe.difference(journe).is_empty

    def test_union_w1_with_mirror(self, w1, w2):
        got = w1.union(w2)
        assert got == parse_set("[-15/4pi,-15/8pi),[-1/4pi,-1/8pi),[1/8pi,1/4pi),[15/8pi,15/4pi)")
        assert len(got) == 4
        assert got.measure() == rp(4)

    @given(interval_sets(), interval_sets())
    def test_inclusion_exclusion(self, a, b):
        lhs = a.union(b).measure() + a.intersect(b).measure()
        assert lhs == a.measure() + b.measure()

    @given(interval_sets(), interval_sets())
    def test_difference_disjoint_from_subtrahend(self, a, b):
        assert a.difference(b).intersect(b).is_empty

    def test_membership_oracle_on_random_probes(self):
        # exact set algebra must agree with pointwise membership in the raw inputs
        rng = random.Random(20260810)
        for _ in range(5):
            raw_a = [
                Interval(min(x, y), max(x, y))
                for x, y in (
                    (random_rational_pi(rng), random_rational_pi(rng))
                    for _ in range(4)
                )
                if x != y
            ]
            raw_b = [
                Interval(min(x, y), max(x, y))
                for x, y in (
                    (random_rational_pi(rng), random_rational_pi(rng))
                    for _ in range(4)
                )
                if x != y
            ]
            a = IntervalSet.from_intervals(raw_a)
            b = IntervalSet.from_intervals(raw_b)
            union, inter, diff = a.union(b), a.intersect(b), a.difference(b)
            for _ in range(1000):
                x = random_rational_pi(rng, max_den=128)
                in_a = any(iv.lo <= x < iv.hi for iv in raw_a)
                in_b = any(iv.lo <= x < iv.hi for iv in raw_b)
                assert union.contains(x) == (in_a or in_b)
                assert inter.contains(x) == (in_a and in_b)
                assert diff.contains(x) == (in_a and not in_b)


class TestGeometry:
    def test_dilate_examples(self):
        assert parse_set("[1pi,2pi)").dilate(-1) == parse_set("[1/2pi,1pi)")
        assert IntervalSet.empty().dilate(5).is_empty
        assert parse_set("[15/8pi,15/4pi)").dilate(4) == parse_set("[30pi,60pi)")

    def test_dilate_takes_an_integer_exponent(self):
        with pytest.raises(TypeError, match="dilation exponent must be an integer"):
            parse_set("[1pi,2pi)").dilate(1.5)

    def test_translate_examples(self):
        assert parse_set("[17/8pi,18/8pi)").translate(-TWO_PI) == parse_set("[1/8pi,1/4pi)")
        s = parse_set("[15/8pi,17/8pi)")
        assert s.translate(ZERO) == s
        assert s.translate(rp(-4)) == parse_set("[-17/8pi,-15/8pi)")

    def test_measure_examples(self, w1):
        assert w1.measure() == TWO_PI
        assert IntervalSet.empty().measure() == ZERO

    def test_contains_half_open(self, w1):
        assert w1.contains(rp(15, 8))
        assert not w1.contains(rp(15, 4))

    def test_negate_round_trip(self, w1, w2):
        assert w1.negate() == w2
        assert w2.negate() == w1

    def test_dist_zero_and_max_abs(self, w1):
        assert w1.dist_zero() == rp(1, 8)
        assert w1.max_abs() == rp(15, 4)
        assert parse_set("[-1pi,1pi)").dist_zero() == ZERO
        assert parse_set("[-1pi,0pi)").dist_zero() == ZERO
        assert parse_set("[-2pi,-1/2pi),[-1/4pi,-1/8pi)").dist_zero() == rp(1, 8)
        assert parse_set("[-1pi,-1/3pi),[1/4pi,1pi)").dist_zero() == rp(1, 4)
        assert parse_set("[-1/5pi,-1/6pi),[1/4pi,1pi)").dist_zero() == rp(1, 6)
        assert parse_set("[-1pi,1pi)").zero_in_closure()
        assert not w1.zero_in_closure()

    def test_empty_set_has_no_distance_or_magnitude(self):
        with pytest.raises(ValueError, match="empty set has no distance to 0"):
            IntervalSet.empty().dist_zero()
        with pytest.raises(ValueError, match="empty set has no magnitude bound"):
            IntervalSet.empty().max_abs()

    @given(interval_sets(), st.integers(-6, 6))
    def test_dilation_scales_measure(self, s, n):
        assert s.dilate(n).measure() == s.measure() * Fraction(2) ** n

    @given(interval_sets(), st.builds(RationalPi, coefs))
    def test_translation_preserves_measure(self, s, t):
        assert s.translate(t).measure() == s.measure()

    @given(interval_sets())
    def test_negate_involution(self, s):
        assert s.negate().negate() == s
