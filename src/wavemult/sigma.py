"""Translation maps between wavelet sets, their dyadic extension and powers.

Between any two wavelet sets there is a canonical measurable bijection made
of 2*pi*Z shifts: push the first set onto [-pi, pi) with its translation
witness, then pull back with the inverse of the second witness.  The map
extends to the punctured line by commuting with dyadic dilation.  Powers come
from binary powering: O(log p) compositions of a power with the extension of
itself or of the map.  A power corresponds to a unitary in the local
commutant exactly when all of its shifts stay on the 2*pi*Z lattice.
Every map here is built on integer `_coordinates` when the unit fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exact import (
    PreconditionError,
    Interval,
    IntervalSet,
    RationalPi,
    _coordinates,
    _times_pow2,
    ceil_log2,
    floor_log2,
    sweep,
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


def compose(first: PiecewiseTranslation, then: PiecewiseTranslation) -> PiecewiseTranslation:
    """Composite map then(first(x)); image of `first` must lie in `then`'s domain.

    One sweep over the `_coordinates` of both maps overlays the image rows of `first`
    with the domain rows of `then`, each tagged by its index in `shifts`; both families
    are disjoint, so a cell covered twice carries one tag of each, the first's the
    smaller, and a cell covered once by an image row lies outside `then`'s domain.
    """
    n = len(first.coefs)
    _, rows, coef = _coordinates(first.coefs + then.coefs)
    shifts = [shift for *_, shift in rows]
    items = [(lo + s, hi + s, i) for i, (lo, hi, s) in enumerate(rows[:n])]
    items += [(lo, hi, i) for i, (lo, hi, _) in enumerate(rows[n:], n)]
    fragments = []
    for lo, hi, count, tags in sweep(items):
        if count == 2:
            back, forth = shifts[min(tags)], shifts[max(tags)]
            fragments.append((lo - back, hi - back, back + forth))
        elif tags[0] < n:
            raise PreconditionError("image of the first map escapes the second map's domain")
    return PiecewiseTranslation.from_triples(fragments, coef)


def _octaves(lo: Fraction, hi: Fraction) -> range:
    """Octaves m of a piece [lo, hi) away from 0: x in [2**m, 2**(m+1)) or [-2**(m+1), -2**m)."""
    near, far = sorted((abs(lo), abs(hi)))
    return range(floor_log2(near), ceil_log2(far))


def dyadic_extension(base: PiecewiseTranslation, region: IntervalSet) -> PiecewiseTranslation:
    """Restrict the dilation-commuting extension of `base` to a bounded region.

    The domain of `base` must tile the punctured line dyadically (true for
    any wavelet set).  On a fragment carried into the domain by 2**n, the
    extension translates by the base shift scaled by 2**-n.  Each region piece is
    dilated only by the 2**n that carry its octaves onto those of the domain's pieces;
    one sweep overlays those dilates (the j-th tagged ~j) with the base rows (tagged by
    index), and each cell covered by both is scaled back by 2**-n.  The unit of the
    `_coordinates` holds 2**N, N the largest |n|, so each dilation is an exact shift, and so is
    scaling back an end of the cell's own dilate or base row.  The shift floors an end from
    another dilate, but that end lies inside a run of cells of one dilate and base row,
    whose fragments still touch and merge into one exact row.
    """
    if region.zero_in_closure():
        raise PreconditionError("region must stay away from 0")
    octaves = {(lo > 0, m) for lo, hi in base.domain.coefs for m in _octaves(lo, hi)}
    dilations = [{m - k for k in _octaves(lo, hi) for sign, m in octaves if sign == (lo > 0)}
                 for lo, hi in region.coefs]
    top = max((abs(n) for ns in dilations for n in ns), default=0)
    _, rows, coef = _coordinates(base.coefs + region.coefs, top)
    pieces = rows[len(base.coefs):]
    items = [(lo, hi, i) for i, (lo, hi, _) in enumerate(rows[:len(base.coefs)])]
    scales = []
    for (lo, hi), ns in zip(pieces, dilations):
        for n in ns:
            items.append((_times_pow2(lo, n), _times_pow2(hi, n), ~len(scales)))
            scales.append(-n)
    fragments = []
    for lo, hi, _, tags in sweep(items):
        row = max(tags)
        if row >= 0:
            fragments += [(_times_pow2(lo, m), _times_pow2(hi, m), _times_pow2(rows[row][2], m))
                          for t in tags if t < 0 for m in (scales[~t],)]
    result = PiecewiseTranslation.from_triples(fragments, coef)
    if result.domain != region:
        raise PreconditionError(
            "region is not exactly covered by dyadic dilates of the map domain"
        )
    return result


def compose_power(sigma: SigmaMap, power: int) -> PiecewiseTranslation:
    """The p-th power of the extended map on w1, by binary powering over the bits of p.

    The extension of a power restricted to w1 is that power itself, so squaring
    composes with its own extension.  Shifts pick up dyadic denominators.
    """
    if not 1 <= power <= MAX_POWER:
        raise PreconditionError(f"power must lie in 1..{MAX_POWER}, got {power}")
    current = sigma.mapping
    for bit in bin(power)[3:]:
        current = compose(current, dyadic_extension(current, current.image))
        if bit == "1":
            current = compose(current, dyadic_extension(sigma.mapping, current.image))
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
