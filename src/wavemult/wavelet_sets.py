"""Wavelet-set verification via exact translation and dilation congruence.

A bounded interval set W with 0 outside its closure is accepted as a wavelet
set when two exact tilings hold: the 2*pi*Z translates of its pieces tile
[-pi, pi), and its dyadic dilates tile the punctured line (checked on the
reference annulus [-2*pi, -pi) u [pi, 2*pi)).  The two targets make up
[-2*pi, 2*pi), so one exact sweep of it decides both tilings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional

from .exact import (
    MINUS_PI,
    PI,
    PreconditionError,
    IntervalSet,
    Piecewise,
    RationalPi,
    floor_log2,
    ceil_log2,
    sweep,
)
from .parsing import parse_set

__all__ = [
    "PRINCIPAL_WINDOW",
    "PiecewiseTranslation",
    "WaveletSetReport",
    "is_wavelet_set",
    "catalog",
    "CATALOG_NAMES",
]

PRINCIPAL_WINDOW = IntervalSet.single(MINUS_PI, PI)


@dataclass(frozen=True, init=False)
class PiecewiseTranslation(Piecewise):
    """An injective map translating each piece of its domain by a constant.

    Canonical as a `Piecewise` whose values are the shifts.  Construction
    also validates that the shifted pieces are pairwise disjoint
    (injectivity) and stores their union as `image`, so every instance is a
    measure-preserving bijection onto its image.
    """

    pairs: tuple[tuple[IntervalSet, RationalPi], ...]

    OVERLAP_ERROR = "piecewise translation has overlapping domain pieces"
    _value = RationalPi

    def _build(self, triples: list) -> None:
        super()._build(triples)
        image = IntervalSet.from_disjoint((lo + shift, hi + shift) for lo, hi, shift in self.coefs)
        if image is None:
            raise ValueError("piecewise translation is not injective")
        object.__setattr__(self, "image", image)

    @property
    def is_two_pi_integral(self) -> bool:
        return all(shift.is_two_pi_multiple for _, shift in self.pairs)

    def apply(self, x: RationalPi) -> RationalPi:
        return x + self.value_at(x)

    cases = Piecewise.rows

    def inverse(self) -> "PiecewiseTranslation":
        return PiecewiseTranslation.from_triples((lo + s, hi + s, -s) for lo, hi, s in self.coefs)


@dataclass(frozen=True)
class WaveletSetReport:
    """Outcome of the two congruence checks for a candidate set."""

    is_translation_congruent: bool
    is_dilation_congruent: bool
    tau_witness: Optional[PiecewiseTranslation]
    failure_regions: IntervalSet

    @property
    def accepted(self) -> bool:
        return self.is_translation_congruent and self.is_dilation_congruent


def _tiling_check(fragments: Iterable[tuple], target: IntervalSet) -> IntervalSet:
    """Where the fragments, coefficient pairs (lo, hi), fail to tile the target.

    One sweep over the target (tag 0) and the fragments (tag 1): a cell tiles
    when it lies under the target and exactly one fragment.  The failure
    region is where the fragments miss the target, leave it or overlap.
    """
    items = [(lo, hi, 0) for lo, hi in target.coefs]
    items += [(lo, hi, 1) for lo, hi in fragments]
    return IntervalSet.from_cells((lo, hi) for lo, hi, count, tags in sweep(items)
                                  if count != 2 or len(tags) != 2)


def _principal_fragments(pairs: Iterable[tuple]) -> list[tuple[Fraction, Fraction, Fraction]]:
    """Split each piece, a pair (lo, hi), at odd multiples of pi into triples (lo, hi, -2m)
    moving it into [-pi, pi).

    At most three per piece: if a piece reaches a fourth 2*pi cell, its second
    and third fragments cover [-pi, pi) twice, and the rest change no result."""
    fragments = []
    for start, end in pairs:
        first = m = math.floor((start + 1) / 2)
        while start < end and m < first + 3:
            odd = Fraction(2 * m + 1)
            frag_hi = min(end, odd)
            fragments.append((start, frag_hi, 1 - odd))
            start = frag_hi
            m += 1
    return fragments


def _annulus_fragments(pairs: Iterable[tuple]) -> list[tuple]:
    """Scale each piece, a pair (lo, hi), into the annulus [-2*pi, -pi) u [pi, 2*pi) as
    pairs (lo, hi), split at dyadic points.

    At most three per piece: if a piece reaches a fourth octave, its second
    and third fragments cover the annulus twice, and the rest change no result."""
    fragments = []
    for start, end in pairs:
        for _ in range(3):
            if start >= end:
                break
            if start >= 0:
                m = floor_log2(start)  # start in [2**m * pi, 2**(m+1) * pi)
                frag_hi = min(end, Fraction(2) ** (m + 1))
            else:
                m = ceil_log2(-start) - 1  # start in [-2**(m+1) * pi, -2**m * pi)
                frag_hi = min(end, -(Fraction(2) ** m))
            scale = Fraction(2) ** -m
            fragments.append((start * scale, frag_hi * scale))
            start = frag_hi
    return fragments


# [-pi, pi) and the annulus: together the targets of both tilings.
_TILED = IntervalSet.single(RationalPi(-2), RationalPi(2))

# Reports held by the is_wavelet_set cache; the least recently used go first.
CACHE_SIZE = 256


@lru_cache(maxsize=CACHE_SIZE)
def is_wavelet_set(W: IntervalSet) -> WaveletSetReport:
    """Run both congruence checks; a set is accepted iff both hold.

    One sweep tiles [-2*pi, 2*pi) with the translates of W folded into [-pi, pi) and
    its dilates scaled into the annulus.  A failure piece breaks translation congruence
    where it meets [-pi, pi), and dilation congruence where it meets the annulus.
    """
    if W.zero_in_closure():
        raise PreconditionError(
            "dilation congruence is undecidable with 0 in the closure of the set"
        )
    fragments = _principal_fragments(W.coefs)
    failure = _tiling_check([(lo + s, hi + s) for lo, hi, s in fragments] + _annulus_fragments(W.coefs),
                            _TILED)
    translation_ok = not any(lo < 1 and hi > -1 for lo, hi in failure.coefs)
    return WaveletSetReport(
        is_translation_congruent=translation_ok,
        is_dilation_congruent=not any(lo < -1 or hi > 1 for lo, hi in failure.coefs),
        tau_witness=PiecewiseTranslation.from_triples(fragments) if translation_ok else None,
        failure_regions=failure,
    )


def _require_wavelet_set(W: IntervalSet, label: str = "") -> PiecewiseTranslation:
    """The translation witness of W; PreconditionError unless W is a wavelet set."""
    report = is_wavelet_set(W)
    if not report.accepted:
        prefix = f"{label} is " if label else ""
        raise PreconditionError(f"{prefix}not a wavelet set: {W}")
    assert report.tau_witness is not None
    return report.tau_witness


def _build_catalog() -> dict[str, IntervalSet]:
    sets = {
        "shannon": parse_set("[-2pi,-1pi),[1pi,2pi)"),
        "journe": parse_set("[-32/7pi,-4pi),[-1pi,-4/7pi),[4/7pi,1pi),[4pi,32/7pi)"),
        "paper_w1": parse_set("[-1/4pi,-1/8pi),[15/8pi,15/4pi)"),
    }
    sets["paper_w2"] = sets["paper_w1"].negate()
    return sets


_CATALOG = _build_catalog()
CATALOG_NAMES = tuple(sorted(_CATALOG))


def catalog(name: str) -> IntervalSet:
    """Named wavelet sets: shannon, journe, paper_w1, paper_w2."""
    try:
        return _CATALOG[name]
    except KeyError:
        raise KeyError(
            f"unknown catalog name {name!r}; known: {', '.join(CATALOG_NAMES)}"
        ) from None
