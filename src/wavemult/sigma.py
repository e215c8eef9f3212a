"""Translation maps between wavelet sets, their dyadic extension and powers.

Between any two wavelet sets there is a canonical measurable bijection made
of 2*pi*Z shifts: push the first set onto [-pi, pi) with its translation
witness, then pull back with the inverse of the second witness.  The map
extends to the punctured line by commuting with dyadic dilation.  Powers come
from binary powering: O(log p) compositions of a power with the extension of
itself or of the map.  A power corresponds to a unitary in the local
commutant exactly when all of its shifts stay on the 2*pi*Z lattice.
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
    "MAX_POWER",
    "compose_power",
    "power_in_local_commutant",
]


@dataclass(frozen=True)
class SigmaMap:
    """Canonical 2*pi-shift bijection from one wavelet set onto another."""

    mapping: PiecewiseTranslation
    w1: IntervalSet
    w2: IntervalSet

    def __post_init__(self) -> None:
        if self.mapping.domain != self.w1 or self.mapping.image != self.w2:
            raise ValueError("mapping is not a bijection between the stated sets")
        if not self.mapping.is_two_pi_integral:
            raise ValueError("sigma shifts must be integer multiples of 2*pi")


def build_sigma(w1: IntervalSet, w2: IntervalSet) -> SigmaMap:
    """Construct the canonical bijection w1 -> w2 effected by 2*pi translations.

    Fragments of w1 are pushed into [-pi, pi) by w1's witness and pulled
    back by the inverse of w2's witness; shifts add.
    """
    tau1 = _require_wavelet_set(w1, "w1")
    tau2 = _require_wavelet_set(w2, "w2")
    return SigmaMap(compose(tau1, tau2.inverse()), w1, w2)


def compose(first: PiecewiseTranslation, then: PiecewiseTranslation) -> PiecewiseTranslation:
    """Composite map then(first(x)); image of `first` must lie in `then`'s domain.

    One sweep overlays the image pieces of `first` with the domain pieces of
    `then`, each tagged by its index in `shifts`; both families are disjoint,
    so a cell covered twice carries one tag of each, the first's the smaller.
    """
    shifts = [shift.coef for _, shift in first.pairs + then.pairs]
    items = [(iv.lo.coef + shifts[i], iv.hi.coef + shifts[i], i)
             for i, (piece, _) in enumerate(first.pairs) for iv in piece]
    items += [(iv.lo.coef, iv.hi.coef, i)
              for i, (piece, _) in enumerate(then.pairs, len(first.pairs)) for iv in piece]
    fragments = []
    for lo, hi, count, tags in sweep(items):
        if count == 2:
            back, forth = shifts[min(tags)], shifts[max(tags)]
            fragments.append((lo - back, hi - back, back + forth))
    result = PiecewiseTranslation.from_triples(fragments)
    if result.domain != first.domain:
        raise PreconditionError("image of the first map escapes the second map's domain")
    return result


def dyadic_extension(base: PiecewiseTranslation, region: IntervalSet) -> PiecewiseTranslation:
    """Restrict the dilation-commuting extension of `base` to a bounded region.

    The domain of `base` must tile the punctured line dyadically (true for
    any wavelet set).  On a fragment carried into the domain by 2**n, the
    extension translates by the base shift scaled by 2**-n.  Each region
    interval is dilated only by the 2**n that can meet the domain's hull; one
    sweep overlays those dilates (tagged n) with the base pieces (tagged by
    shift), and each cell covered by both is scaled back by 2**-n.
    """
    if region.zero_in_closure():
        raise PreconditionError("region must stay away from 0")
    w_min, w_max = base.domain.dist_zero().coef, base.domain.max_abs().coef
    items = [(iv.lo.coef, iv.hi.coef, shift) for piece, shift in base.pairs for iv in piece]
    for iv in region:
        near, far = sorted((abs(iv.lo.coef), abs(iv.hi.coef)))
        for n in range(ceil_log2(w_min / far), floor_log2(w_max / near) + 1):
            items.append((iv.lo.coef * Fraction(2) ** n, iv.hi.coef * Fraction(2) ** n, n))
    fragments = []
    for lo, hi, _, tags in sweep(items):
        shift = next((t for t in tags if isinstance(t, RationalPi)), None)
        if shift is not None:
            fragments += [(lo * scale, hi * scale, shift.coef * scale)
                          for n in tags if n is not shift for scale in (Fraction(2) ** -n,)]
    result = PiecewiseTranslation.from_triples(fragments)
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
    witness = next(
        (
            (iv, shift)
            for iv, shift in composed.cases()
            if not shift.is_two_pi_multiple
        ),
        None,
    )
    return CommutantVerdict(power, witness is None, composed, witness)
