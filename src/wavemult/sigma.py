"""Translation maps between wavelet sets, their dyadic extension and powers.

Between any two wavelet sets there is a canonical measurable bijection made
of 2*pi*Z shifts: push the first set onto [-pi, pi) with its translation
witness, then pull back with the inverse of the second witness.  The map
extends to the punctured line by commuting with dyadic dilation.  Composition
and the extension are one pull-back: each image piece of a first map, dilated
by a power of two (only 2**0 for composition), finds the second map's rows it
meets by bisection, and the common parts are pulled back, with one length rule
for coverage.  Powers come from binary powering: O(log p) steps, each one
`dyadic_extension` of the power (squaring) or of the map (a set bit) after the
power so far.  A power corresponds to a unitary in the local commutant exactly
when all of its shifts stay on the 2*pi*Z lattice.  Every map here is built on
integer `_coordinates` when the unit fits.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .exact import (
    PreconditionError,
    Interval,
    IntervalSet,
    RationalPi,
    _coordinates,
    _times_pow2,
    ceil_log2,
    floor_log2,
)
from .wavelet_sets import PiecewiseTranslation, _require_wavelet_set

# Largest power compose_power accepts: pieces and shift-denominator bits of
# the result grow linearly in p, so p = 1024 already takes seconds.
MAX_POWER = 1024

__all__ = [
    "SigmaMap",
    "CommutantVerdict",
    "build_sigma",
    "compose",
    "dyadic_extension",
    "compose_power",
    "power_in_local_commutant",
]


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


def _pull_back(rows: list, cut: int, coef, error: str,
               dilations=lambda lo, hi: (0,)) -> PiecewiseTranslation:
    """The map x -> then(2**n * first(x)) * 2**-n on coordinate rows (lo, hi, shift), `first`
    the rows before `cut` and `then` the rest, which are a map's sorted, disjoint rows.

    The image piece of each `first` row, dilated by each 2**n in `dilations(lo, hi)` to [a, b),
    finds the `then` rows it meets by bisection on their starts, as `value_at` finds a row.
    Each common part is scaled back by 2**-n and moved back by the first row's shift; its ends
    are ends of the dilate or of a `then` row, so both stay exact.  The fragments lie inside the
    `first` rows, and `from_triples` forbids two to overlap, so they cover those rows exactly
    when their lengths, summed on the coordinates, equal the rows' lengths; else `error`.
    """
    first, then = rows[:cut], rows[cut:]
    starts = [lo for lo, _, _ in then]
    fragments, total, covered = [], 0, 0
    for lo, hi, s in first:
        total += hi - lo
        lo, hi = lo + s, hi + s
        for n in dilations(lo, hi):
            a, b = (_times_pow2(lo, n), _times_pow2(hi, n)) if n else (lo, hi)
            for c, d, t in then[max(bisect_right(starts, a) - 1, 0):bisect_left(starts, b)]:
                if a < d:
                    c, d = max(a, c), min(b, d)
                    c, d, t = (_times_pow2(c, -n), _times_pow2(d, -n), _times_pow2(t, -n)) if n else (c, d, t)
                    fragments.append((c - s, d - s, s + t))
                    covered += d - c
    result = PiecewiseTranslation.from_triples(fragments, coef)
    if covered != total:
        raise PreconditionError(error)
    return result


def compose(first: PiecewiseTranslation, then: PiecewiseTranslation) -> PiecewiseTranslation:
    """Composite map then(first(x)); image of `first` must lie in `then`'s domain.

    The pull-back with n = 0 on the `_coordinates` of both maps.
    """
    _, rows, coef = _coordinates(first.coefs + then.coefs)
    return _pull_back(rows, len(first.coefs), coef, "image of the first map escapes the second map's domain")


def _octaves(lo, hi, unit=1) -> range:
    """Octaves m of a piece [lo, hi) away from 0, as coefficients or as coordinates over `unit`:
    x in [2**m, 2**(m+1)) or [-2**(m+1), -2**m)."""
    near, far = sorted((abs(lo), abs(hi)))
    return range(floor_log2(near, unit), ceil_log2(far, unit))


def dyadic_extension(base: PiecewiseTranslation,
                     region: Union[IntervalSet, PiecewiseTranslation]) -> PiecewiseTranslation:
    """The dilation-commuting extension of `base` on a bounded region, or after a map.

    The domain of `base` must tile the punctured line dyadically (true for any wavelet
    set).  On a fragment carried into the domain by 2**n, the extension translates by the
    base shift scaled by 2**-n.  `region` takes two forms: a set is the identity map on
    itself, and a map m gives the extension after m, x -> ext(m(x)) on m's domain, which is
    `compose(m, dyadic_extension(base, m.image))` built in one pull-back.

    The pull-back dilates each image piece of m only by the 2**n that carry its octaves onto
    those of the domain's pieces, and looks up the base rows each dilate meets.  The length
    rule: the fragments cover m's rows exactly when their coordinate lengths sum to the rows'.
    The unit of the `_coordinates` holds 2**N, N the largest |n|, so each dilation is an exact
    shift, and so is scaling back a fragment, whose ends are ends of its dilate or base row.
    """
    rows, image = ((tuple((lo, hi, Fraction(0)) for lo, hi in region.coefs), region)  # the identity
                   if isinstance(region, IntervalSet) else (region.coefs, region.image))
    if image.zero_in_closure():
        raise PreconditionError("region must stay away from 0")
    octaves = {(lo > 0, m) for lo, hi in base.domain.coefs for m in _octaves(lo, hi)}

    def dilations(lo, hi, unit=1) -> set:
        return {m - k for k in _octaves(lo, hi, unit) for sign, m in octaves if sign == (lo > 0)}

    # The image's pieces meet the octaves that its rows' image pieces meet: the same largest |n|.
    top = max((abs(n) for lo, hi in image.coefs for n in dilations(lo, hi)), default=0)
    unit, coords, coef = _coordinates(rows + base.coefs, top)
    return _pull_back(coords, len(rows), coef, "region is not exactly covered by dyadic dilates "
                      "of the map domain", lambda lo, hi: dilations(lo, hi, unit))


def compose_power(sigma: SigmaMap, power: int) -> PiecewiseTranslation:
    """The p-th power of the extended map on w1, by binary powering over the bits of p.

    The extension of a power restricted to w1 is that power itself, so each squaring is
    the extension of the power after itself, and each set bit the extension of the map
    after the power: one `dyadic_extension` call each.  Shifts pick up dyadic denominators.
    """
    if not 1 <= power <= MAX_POWER:
        raise PreconditionError(f"power must lie in 1..{MAX_POWER}, got {power}")
    current = sigma.mapping
    for bit in bin(power)[3:]:
        current = dyadic_extension(current, current)
        if bit == "1":
            current = dyadic_extension(sigma.mapping, current)
    return current


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
    witness = next(((Interval(RationalPi(lo), RationalPi(hi)), RationalPi(shift))
                    for lo, hi, shift in composed.coefs if shift % 2), None)
    return CommutantVerdict(power, witness is None, composed, witness)
