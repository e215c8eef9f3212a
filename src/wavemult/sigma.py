"""Translation maps between wavelet sets, their dyadic extension and powers.

Between any two wavelet sets there is a canonical measurable bijection made
of 2*pi*Z shifts: push the first set onto [-pi, pi) with its translation
witness, then pull back with the inverse of the second witness.  The map
extends to the punctured line by commuting with dyadic dilation.  Composition
and the extension are one pull-back step on integer coordinate rows; a power
is O(log p) such steps on one chain of int rows, its `Fraction`s built on read.
It corresponds to a unitary in the local commutant exactly when all of its
shifts stay on the 2*pi*Z lattice.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from typing import Optional, Union

from . import _LAZY
from .exact import (
    COORD_BITS,
    PreconditionError,
    Interval,
    IntervalSet,
    RationalPi,
    _back,
    _on_one_unit,
    _times_pow2,
    ceil_log2,
    floor_log2,
)
from .wavelet_sets import PiecewiseTranslation, _require_wavelet_set

# Largest power compose_power accepts; rows grow linearly in p: at 1024 on catalog pairs, up to
# 0.12 s to build and 0.26 s with every Fraction of the result read.
MAX_POWER = 1024
EXTENSION_ERROR = "region is not exactly covered by dyadic dilates of the map domain"
COMPOSE_ERROR = "image of the first map escapes the second map's domain"

__all__ = list(_LAZY["sigma"])


@dataclass(frozen=True)
class SigmaMap:
    """Canonical 2*pi-shift bijection `mapping` from one wavelet set onto another; `w1`
    and `w2` are its domain and image."""

    mapping: PiecewiseTranslation
    w1 = property(lambda self: self.mapping.domain)
    w2 = property(lambda self: self.mapping.image)

    def __post_init__(self) -> None:
        if not self.mapping.is_two_pi_integral:
            raise ValueError("sigma shifts must be integer multiples of 2*pi")


def build_sigma(w1: IntervalSet, w2: IntervalSet) -> SigmaMap:
    """Construct the canonical bijection w1 -> w2 effected by 2*pi translations.

    Fragments of w1 are pushed into [-pi, pi) by w1's witness and pulled
    back by the inverse of w2's witness; shifts add.
    """
    tau1 = _require_wavelet_set(w1, "w1")
    tau2 = _require_wavelet_set(w2, "w2")
    return SigmaMap(compose(tau1, tau2.inverse()))


def _octaves(lo, hi, unit=1) -> range:
    """Octaves m of a piece [lo, hi) away from 0, over `unit`: x in [2**m, 2**(m+1)), or mirrored."""
    return range(floor_log2(min(abs(lo), abs(hi)), unit), ceil_log2(max(abs(lo), abs(hi)), unit))


def _pull_back(unit, first: list, then: list, error: str, octaves: Optional[set] = None) -> tuple:
    """(unit, rows, image) of x -> then(2**n * first(x)) * 2**-n on (lo, hi, shift) rows over `unit`,
    `then` a map's sorted, disjoint rows: n = 0 in a composition; in an extension each image piece
    of a `first` row stays off 0 and takes each 2**n carrying one of its octaves onto `octaves`,
    those of `then`'s domain, int rows first shifted left until 2**N divides each coordinate, N the
    largest |n|.  A dilate finds the `then` rows it meets by bisection; each common part goes back
    exactly, as its ends are ends of the dilate or of a row.  The fragments may not overlap and lie
    in the `first` rows: they cover them iff both unions have the same ends, the starts and ends of
    rows that no other row ends or starts at; else `error`."""
    dilations = repeat((0,))  # a composition
    if octaves is not None:
        if any(lo + s <= 0 <= hi + s for lo, hi, s in first):
            raise PreconditionError("region must stay away from 0")
        dilations = [{m - k for k in _octaves(lo + s, hi + s, unit) for sign, m in octaves
                      if sign == (lo + s > 0)} for lo, hi, s in first]
        top = max(map(abs, chain.from_iterable(dilations)), default=0)
        if top and type(first[0][0]) is int:
            low = 0
            for x in chain.from_iterable(chain(first, then)):
                low |= x  # its lowest set bit is 2**v, v the coordinates' least trailing-zero count
            k = top + 1 - (low & -low).bit_length()  # top - v
            if k > 0:  # shift both families, and the unit, left by the bits missing
                first = [(lo << k, hi << k, s << k) for lo, hi, s in first]
                then = [(lo << k, hi << k, s << k) for lo, hi, s in then]
                unit <<= k
    starts, fragments = [lo for lo, _, _ in then], []
    for (lo, hi, s), ns in zip(first, dilations):
        lo, hi = lo + s, hi + s
        for n in ns:
            a, b = (_times_pow2(lo, n), _times_pow2(hi, n)) if n else (lo, hi)
            for c, d, t in then[max(bisect_right(starts, a) - 1, 0):bisect_left(starts, b)]:
                if a < d:
                    c, d = max(a, c), min(b, d)
                    c, d, t = (_times_pow2(c, -n), _times_pow2(d, -n), _times_pow2(t, -n)) if n else (c, d, t)
                    fragments.append((c - s, d - s, s + t))
    rows, image = PiecewiseTranslation._canonical(fragments)
    if {r[0] for r in rows} ^ {r[1] for r in rows} != {r[0] for r in first} ^ {r[1] for r in first}:
        raise PreconditionError(error)
    return unit, rows, image


def _chain(first: PiecewiseTranslation, then: PiecewiseTranslation, power: int = 2) -> PiecewiseTranslation:
    """x -> ext(first(x)) on the coordinate rows the two maps carry, ext the extension of `then`.
    With `first` and `then` both sigma that is sigma**2, and binary powering goes on from it to
    sigma**power: each later bit squares the rows, each set bit takes sigma after them.  A chain
    whose unit passes the budget goes on with Fractions over unit 1; the result's are built when read."""
    start, rows, base = _on_one_unit(first, then)
    octaves = {(lo > 0, m) for lo, hi, _ in base for m in _octaves(lo, hi, start)}
    unit, rows, image = _pull_back(start, rows, base, EXTENSION_ERROR, octaves)
    for i, bit in enumerate(bin(power)[3:]):  # the step above was the first bit's squaring
        for square in [True] * (i > 0) + [False] * (bit == "1"):  # square, then sigma on a set bit
            if type(rows[0][0]) is int and unit.bit_length() > COORD_BITS:  # Fractions over unit 1
                rows = [tuple(Fraction(x, unit) for x in row) for row in rows]
                base = [tuple(Fraction(x, start) for x in row) for row in base]
                unit = start = 1
            k = unit.bit_length() - start.bit_length()  # sigma follows the unit, or is on Fractions
            again = [(lo << k, hi << k, s << k) for lo, hi, s in base] if type(rows[0][0]) is int else base
            unit, rows, image = _pull_back(unit, rows, rows if square else again, EXTENSION_ERROR, octaves)
    return PiecewiseTranslation._mapped(unit, rows, image)


def compose(first: PiecewiseTranslation, then: PiecewiseTranslation) -> PiecewiseTranslation:
    """Composite map then(first(x)); image of `first` must lie in `then`'s domain.  One step with
    n = 0 on the coordinate rows of both maps over one unit, which it keeps."""
    unit, rows, base = _on_one_unit(first, then)
    return PiecewiseTranslation._mapped(*_pull_back(unit, rows, base, COMPOSE_ERROR))


def dyadic_extension(base: PiecewiseTranslation,
                     region: Union[IntervalSet, PiecewiseTranslation]) -> PiecewiseTranslation:
    """The dilation-commuting extension of `base` on a bounded region, or after a map.

    The domain of `base` must tile the punctured line dyadically (true for any wavelet set).  On
    a fragment carried into the domain by 2**n, the extension translates by the base shift times
    2**-n.  A set `region` is the identity on itself; a map m gives the extension after m."""
    if isinstance(region, IntervalSet):
        region = PiecewiseTranslation.from_triples((lo, hi, 0) for lo, hi in region.coefs)  # the identity
    return _chain(region, base)


def compose_power(sigma: SigmaMap, power: int) -> PiecewiseTranslation:
    """The p-th power of the extended map on w1 by binary powering in one `_chain`.  sigma**2 stays
    the same step called as `dyadic_extension`, the call `benches/run.py` counts as an extension."""
    if not 1 <= power <= MAX_POWER:
        raise PreconditionError(f"power must lie in 1..{MAX_POWER}, got {power}")
    if power <= 2:
        return sigma.mapping if power == 1 else dyadic_extension(sigma.mapping, sigma.mapping)
    return _chain(sigma.mapping, sigma.mapping, power)


@dataclass(frozen=True)
class CommutantVerdict:
    """Whether the p-th power is still effected by 2*pi translations."""

    power: int
    in_commutant: bool
    composed: PiecewiseTranslation
    witness: Optional[tuple[Interval, RationalPi]]

    def __bool__(self) -> bool:
        return self.in_commutant


def power_in_local_commutant(sigma: SigmaMap, power: int) -> CommutantVerdict:
    """Decide membership of the p-th power; on failure expose one offending piece."""
    composed = compose_power(sigma, power)
    unit, rows = composed._on_unit()
    back = _back(unit)  # the offending row alone goes back to Fractions
    witness = next(((Interval(RationalPi(back(lo)), RationalPi(back(hi))), RationalPi(back(s)))
                    for lo, hi, s in rows if s % (2 * unit)), None)
    return CommutantVerdict(power, witness is None, composed, witness)
