from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wavemult.exact import Interval, IntervalSet, RationalPi
from wavemult.parsing import SetSyntaxError, parse_scalar, parse_set


def test_w1_expression(w1):
    assert parse_set("[-1/4pi,-1/8pi),[15/8pi,15/4pi)") == w1


def test_bare_pi_tokens():
    assert parse_set("[pi,2pi)") == IntervalSet([Interval(RationalPi.of(1), RationalPi.of(2))])
    assert parse_set("[-pi,pi)") == IntervalSet([Interval(RationalPi.of(-1), RationalPi.of(1))])


def test_whitespace_insensitive():
    assert parse_set(" [ 1/4 pi , 1/2 pi ) , [ 1 pi , 2 pi ) ") == parse_set("[1/4pi,1/2pi),[1pi,2pi)")


def test_overlapping_input_canonicalized():
    assert parse_set("[1pi,3pi),[2pi,4pi)") == parse_set("[1pi,4pi)")


def test_empty_interval_rejected():
    with pytest.raises(SetSyntaxError, match="empty interval"):
        parse_set("[1pi,1pi)")


def test_inverted_interval_rejected():
    with pytest.raises(SetSyntaxError, match="inverted interval"):
        parse_set("[2pi,1pi)")


def test_syntax_error_carries_position():
    with pytest.raises(SetSyntaxError) as exc:
        parse_set("[1pi;2pi)")
    assert exc.value.position == 4
    assert "position 4" in str(exc.value)


@pytest.mark.parametrize("text, message", [("[1/pi,2pi)", "expected an integer"),
                                           ("[1px,2pi)", "expected 'pi'")])
def test_scalar_errors_carry_position(text, message):
    with pytest.raises(SetSyntaxError, match=message) as exc:
        parse_set(text)
    assert exc.value.position == 3


def test_trailing_garbage_rejected():
    with pytest.raises(SetSyntaxError, match="trailing"):
        parse_set("[1pi,2pi) extra")
    with pytest.raises(SetSyntaxError, match="trailing"):
        parse_scalar("1/2pi!")


def test_zero_denominator_rejected():
    with pytest.raises(SetSyntaxError, match="zero denominator"):
        parse_set("[1/0pi,2pi)")


def test_overlong_integer_literal_is_syntax_error():
    digits = "1" + "0" * 5000  # beyond the interpreter's int-string digit limit
    with pytest.raises(SetSyntaxError, match="integer literal too long") as exc:
        parse_set(f"[1pi,{digits}pi)")
    assert exc.value.position == 5
    with pytest.raises(SetSyntaxError, match="integer literal too long") as exc:
        parse_scalar(f"-1/{digits}pi")
    assert exc.value.position == 3
    assert parse_scalar("1" + "0" * 4000 + "pi") == RationalPi(10**4000)


@pytest.mark.parametrize("text", ["[\u00b2pi,3pi)", "[\u0661pi,\u0663pi)"], ids=["superscript", "arabic_indic"])
def test_only_ascii_digits_form_integers(text):
    # str.isdigit accepts both: "²" then failed as a too-long literal, "١" and "٣" parsed as 1 and 3
    with pytest.raises(SetSyntaxError, match="expected 'p'") as exc:
        parse_set(text)
    assert exc.value.position == 1


def test_scalar_forms():
    assert parse_scalar("-9/4pi") == RationalPi.of(-9, 4)
    assert parse_scalar("pi") == RationalPi.of(1)
    assert parse_scalar("-pi") == RationalPi.of(-1)
    assert parse_scalar("0pi") == RationalPi.of(0)
    assert parse_scalar("15/8 pi") == RationalPi.of(15, 8)


def test_non_dyadic_scalars_allowed():
    s = parse_set("[1/3pi,2/3pi)")
    assert s.measure() == RationalPi.of(1, 3)


def test_empty_text_is_empty_set():
    assert parse_set("") == IntervalSet.empty()
    assert parse_set("   ") == IntervalSet.empty()


def test_catalog_round_trips(shannon, journe, w1, w2):
    for s in (shannon, journe, w1, w2):
        assert parse_set(s.to_text()) == s


coefs = st.fractions(min_value=Fraction(-8), max_value=Fraction(8), max_denominator=64)


@st.composite
def interval_sets(draw):
    ivs = []
    for _ in range(draw(st.integers(0, 5))):
        a, b = draw(coefs), draw(coefs)
        if a == b:
            continue
        lo, hi = sorted((a, b))
        ivs.append(Interval(RationalPi(lo), RationalPi(hi)))
    return IntervalSet.from_intervals(ivs)


@given(interval_sets())
def test_print_parse_round_trip(s):
    assert parse_set(s.to_text()) == s
