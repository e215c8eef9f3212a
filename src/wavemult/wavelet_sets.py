"""Wavelet-set verification via exact translation and dilation congruence.

A bounded interval set W with 0 outside its closure is accepted as a wavelet
set when two exact tilings hold: the 2*pi*Z translates of its pieces tile
[-pi, pi), and its dyadic dilates tile the punctured line (checked on the
reference annulus [-2*pi, -pi) u [pi, 2*pi)).  Both checks split W along
exact grid points, so acceptance and the translation witness are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter
from typing import Iterable, Optional

from .exact import (
    MINUS_PI,
    PI,
    PreconditionError,
    Interval,
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
    "translation_congruence",
    "dilation_congruence",
    "is_wavelet_set",
    "catalog",
    "CATALOG_NAMES",
]

PRINCIPAL_WINDOW = IntervalSet.single(MINUS_PI, PI)


@dataclass(frozen=True)
class PiecewiseTranslation(Piecewise):
    """An injective map translating each piece of its domain by a constant.

    Canonical as a `Piecewise` whose values are the shifts.  Construction
    also validates that the shifted pieces are pairwise disjoint
    (injectivity) and stores their union as `image`, so every instance is a
    measure-preserving bijection onto its image.
    """

    pairs: tuple[tuple[IntervalSet, RationalPi], ...]

    OVERLAP_ERROR = "piecewise translation has overlapping domain pieces"
    _tag = attrgetter("coef")
    _value = RationalPi

    def _build(self, triples: list) -> None:
        super()._build(triples)
        image = IntervalSet.from_disjoint((iv.lo.coef + shift.coef, iv.hi.coef + shift.coef)
                                          for iv, shift in self._rows)
        if image is None:
            raise ValueError("piecewise translation is not injective")
        object.__setattr__(self, "image", image)

    @classmethod
    def from_fragments(
        cls, fragments: Iterable[tuple[Interval, RationalPi]]
    ) -> "PiecewiseTranslation":
        return cls.from_triples((iv.lo.coef, iv.hi.coef, s.coef) for iv, s in fragments)

    @property
    def is_two_pi_integral(self) -> bool:
        return all(shift.is_two_pi_multiple for _, shift in self.pairs)

    def apply(self, x: RationalPi) -> RationalPi:
        return x + self.value_at(x)

    cases = Piecewise.rows

    def inverse(self) -> "PiecewiseTranslation":
        return PiecewiseTranslation.from_triples((iv.lo.coef + s.coef, iv.hi.coef + s.coef, -s.coef)
                                                 for iv, s in self._rows)


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


def _tiling_check(fragments: Iterable[tuple], target: IntervalSet) -> tuple[bool, IntervalSet]:
    """Do the fragments, coefficient pairs (lo, hi), tile the target?  (ok, failure region).

    One sweep over the target (tag 0) and the fragments (tag 1): a cell tiles
    when it lies under the target and exactly one fragment.  The failure
    region is where the fragments miss the target, leave it or overlap.
    """
    items = [(iv.lo.coef, iv.hi.coef, 0) for iv in target]
    items += [(lo, hi, 1) for lo, hi in fragments]
    failure = IntervalSet.from_cells((lo, hi) for lo, hi, count, tags in sweep(items)
                                     if count != 2 or len(tags) != 2)
    return failure.is_empty, failure


def _principal_fragments(W: IntervalSet) -> list[tuple[Fraction, Fraction, int]]:
    """Split W at odd multiples of pi into triples (lo, hi, -2m) moving each into [-pi, pi).

    At most three per piece: if a piece reaches a fourth 2*pi cell, its second
    and third fragments cover [-pi, pi) twice, and the rest change no result."""
    fragments = []
    for piece in W:
        start, end = piece.lo.coef, piece.hi.coef
        first = m = math.floor((start + 1) / 2)
        while start < end and m < first + 3:
            frag_hi = min(end, 2 * m + 1)
            fragments.append((start, frag_hi, -2 * m))
            start = frag_hi
            m += 1
    return fragments


def _translation_result(
    W: IntervalSet,
) -> tuple[Optional[PiecewiseTranslation], IntervalSet]:
    fragments = _principal_fragments(W)
    ok, failure = _tiling_check(((lo + s, hi + s) for lo, hi, s in fragments), PRINCIPAL_WINDOW)
    if not ok:
        return None, failure
    return PiecewiseTranslation.from_triples(fragments), failure


def translation_congruence(W: IntervalSet) -> Optional[PiecewiseTranslation]:
    """Witness that 2*pi*Z translates of W tile [-pi, pi), or None.

    The witness maps W onto [-pi, pi); each maximal sub-piece carries its
    unique shift 2*pi*k.
    """
    witness, _ = _translation_result(W)
    return witness


# The dyadic dilates of a wavelet set tile the punctured line iff they tile this annulus.
_ANNULUS = IntervalSet((Interval(RationalPi(-2), MINUS_PI), Interval(PI, RationalPi(2))))


def _annulus_fragments(W: IntervalSet) -> list[tuple]:
    """Scale every piece into the reference annulus as pairs (lo, hi), split at dyadic points.

    At most three per piece: if a piece reaches a fourth octave, its second
    and third fragments cover the annulus twice, and the rest change no result."""
    fragments = []
    for piece in W:
        start, end = piece.lo.coef, piece.hi.coef
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


def _dilation_result(W: IntervalSet) -> tuple[bool, IntervalSet]:
    if W.zero_in_closure():
        raise PreconditionError(
            "dilation congruence is undecidable with 0 in the closure of the set"
        )
    return _tiling_check(_annulus_fragments(W), _ANNULUS)


def dilation_congruence(W: IntervalSet) -> bool:
    """True iff the dyadic dilates 2**j * W tile the punctured real line."""
    ok, _ = _dilation_result(W)
    return ok


# Reports held by the is_wavelet_set cache; the least recently used go first.
CACHE_SIZE = 256


@lru_cache(maxsize=CACHE_SIZE)
def is_wavelet_set(W: IntervalSet) -> WaveletSetReport:
    """Run both congruence checks; a set is accepted iff both hold."""
    witness, trans_failure = _translation_result(W)
    dil_ok, dil_failure = _dilation_result(W)
    return WaveletSetReport(
        is_translation_congruent=witness is not None,
        is_dilation_congruent=dil_ok,
        tau_witness=witness,
        failure_regions=trans_failure.union(dil_failure),
    )


def _require_wavelet_set(W: IntervalSet, label: str = "") -> PiecewiseTranslation:
    """The translation witness of W; PreconditionError unless W is a wavelet set."""
    report = is_wavelet_set(W)
    if not report.accepted:
        prefix = f"{label} is " if label else ""
        raise PreconditionError(f"{prefix}not a wavelet set: {W.to_text() or '(empty)'}")
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
