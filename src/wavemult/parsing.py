"""Recursive-descent parser for the textual interval-set grammar.

Grammar (whitespace is ignored between tokens)::

    setexpr  := interval (',' interval)*
    interval := '[' scalar ',' scalar ')'
    scalar   := ['-'] (int | int '/' int)? 'pi'

Examples: ``[-1/4pi,-1/8pi),[15/8pi,15/4pi)``, ``[pi,2pi)``.
Parsing then printing yields the canonical form.  An empty or blank string
parses to the empty set (the canonical text of the empty set is empty).
"""

from __future__ import annotations

from fractions import Fraction

from .exact import Interval, IntervalSet, RationalPi

__all__ = ["SetSyntaxError", "parse_scalar", "parse_set"]


class SetSyntaxError(ValueError):
    """Malformed set expression; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> None:
        self.skip_ws()
        if self.peek() != ch:
            raise SetSyntaxError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def try_take(self, ch: str) -> bool:
        self.skip_ws()
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while "0" <= self.peek() <= "9":  # ASCII only, as in the grammar
            self.pos += 1
        if self.pos == start:
            raise SetSyntaxError("expected an integer", start)
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # more digits than the interpreter converts
            raise SetSyntaxError("integer literal too long", start) from None

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def _scalar(s: _Scanner) -> RationalPi:
    s.skip_ws()
    start = s.pos
    negative = s.try_take("-")
    s.skip_ws()
    num, den = 1, 1
    if "0" <= s.peek() <= "9":
        num = s.integer()
        if s.try_take("/"):
            den = s.integer()
            if den == 0:
                raise SetSyntaxError("zero denominator", start)
    s.take("p")
    if s.peek() != "i":
        raise SetSyntaxError("expected 'pi'", s.pos)
    s.pos += 1
    coef = Fraction(num, den)
    return RationalPi(-coef if negative else coef)


def _interval(s: _Scanner) -> Interval:
    s.skip_ws()
    start = s.pos
    s.take("[")
    lo = _scalar(s)
    s.take(",")
    hi = _scalar(s)
    s.take(")")
    if hi <= lo:
        kind = "empty" if hi == lo else "inverted"
        raise SetSyntaxError(
            f"{kind} interval [{lo.pi_text()},{hi.pi_text()})", start
        )
    return Interval(lo, hi)


def parse_scalar(text: str) -> RationalPi:
    """Parse a single scalar expression such as ``-9/4pi``."""
    s = _Scanner(text)
    value = _scalar(s)
    if not s.at_end():
        raise SetSyntaxError("trailing input after scalar", s.pos)
    return value


def parse_set(text: str) -> IntervalSet:
    """Parse a set expression and return its canonical IntervalSet."""
    s = _Scanner(text)
    if s.at_end():
        return IntervalSet.empty()
    intervals = [_interval(s)]
    while s.try_take(","):
        intervals.append(_interval(s))
    if not s.at_end():
        raise SetSyntaxError("trailing input after set expression", s.pos)
    return IntervalSet.from_intervals(intervals)
