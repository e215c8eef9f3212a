"""Wavelet-set verification via exact translation and dilation congruence.

A bounded interval set W with 0 outside its closure is accepted as a wavelet
set when two exact tilings hold: the 2*pi*Z translates of its pieces tile
[-pi, pi), and its dyadic dilates tile the punctured line (checked on the
reference annuli [pi, 2*pi) and [-2*pi, -pi)).  Both checks split W along
exact grid points, so acceptance and the translation witness are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .exact import (
    MINUS_PI,
    PI,
    PreconditionError,
    Interval,
    IntervalSet,
    RationalPi,
    floor_log2,
    ceil_log2,
    group_by_value,
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
class PiecewiseTranslation:
    """An injective map translating each piece of its domain by a constant.

    Stored canonically: fragments are grouped by shift (each shift appears
    once, its piece a canonical IntervalSet) and pairs are ordered by shift.
    Construction validates that domain pieces are pairwise disjoint and that
    the shifted pieces are pairwise disjoint (injectivity), so every instance
    is a measure-preserving bijection onto its image.
    """

    pairs: tuple[tuple[IntervalSet, RationalPi], ...]

    def __post_init__(self) -> None:
        pairs, domain = group_by_value(self.pairs)
        object.__setattr__(self, "pairs", pairs)
        if domain is None:
            raise ValueError("piecewise translation has overlapping domain pieces")
        image = IntervalSet.from_disjoint(
            iv.shifted(shift) for piece, shift in pairs for iv in piece
        )
        if image is None:
            raise ValueError("piecewise translation is not injective")
        object.__setattr__(self, "_domain", domain)
        object.__setattr__(self, "_image", image)

    @classmethod
    def from_fragments(
        cls, fragments: Iterable[tuple[Interval, RationalPi]]
    ) -> "PiecewiseTranslation":
        return cls(tuple((IntervalSet((iv,)), s) for iv, s in fragments))

    @property
    def domain(self) -> IntervalSet:
        return self._domain  # type: ignore[attr-defined]

    @property
    def image(self) -> IntervalSet:
        return self._image  # type: ignore[attr-defined]

    @property
    def is_two_pi_integral(self) -> bool:
        return all(shift.is_two_pi_multiple for _, shift in self.pairs)

    def apply(self, x: RationalPi) -> RationalPi:
        for piece, shift in self.pairs:
            if piece.contains(x):
                return x + shift
        raise PreconditionError(f"{x} lies outside the map domain")

    def cases(self) -> list[tuple[Interval, RationalPi]]:
        """Atomic (interval, shift) rows ordered by left endpoint."""
        rows = [(iv, shift) for piece, shift in self.pairs for iv in piece]
        rows.sort(key=lambda row: row[0].lo.coef)
        return rows

    def inverse(self) -> "PiecewiseTranslation":
        return PiecewiseTranslation(
            tuple((piece.translate(shift), -shift) for piece, shift in self.pairs)
        )

    def to_json_obj(self) -> list[dict]:
        return [
            {
                "piece": piece.to_text(),
                "shift": shift.shift_text(),
                "shift_float": float(shift),
            }
            for piece, shift in self.pairs
        ]


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


def _tiling_check(
    fragments: Sequence[Interval], target: IntervalSet
) -> tuple[bool, IntervalSet]:
    """Do the fragments tile the target exactly?  Returns (ok, failure region).

    One sweep over the target (tag 0) and the fragments (tag 1): a cell tiles
    when it lies under the target and exactly one fragment.  The failure
    region is where the fragments miss the target, leave it or overlap.
    """
    items = [(iv.lo.coef, iv.hi.coef, 0) for iv in target]
    items += [(iv.lo.coef, iv.hi.coef, 1) for iv in fragments]
    failure = IntervalSet.from_intervals(
        Interval(RationalPi(lo), RationalPi(hi))
        for lo, hi, count, tags in sweep(items)
        if count != 2 or len(tags) != 2
    )
    return failure.is_empty, failure


def _principal_fragments(W: IntervalSet) -> list[tuple[Interval, RationalPi]]:
    """Split W at odd multiples of pi; each fragment shifts by -2*pi*m into [-pi, pi).

    At most three per piece: if a piece reaches a fourth 2*pi cell, its second
    and third fragments cover [-pi, pi) twice, and the rest change no result."""
    fragments = []
    for piece in W:
        start = piece.lo
        first = m = math.floor((start.coef + 1) / 2)
        while start < piece.hi and m < first + 3:
            cell_hi = RationalPi(2 * m + 1)
            frag_hi = min(piece.hi, cell_hi)
            fragments.append((Interval(start, frag_hi), RationalPi(-2 * m)))
            start = frag_hi
            m += 1
    return fragments


def _translation_result(
    W: IntervalSet,
) -> tuple[Optional[PiecewiseTranslation], IntervalSet]:
    fragments = _principal_fragments(W)
    images = [iv.shifted(shift) for iv, shift in fragments]
    ok, failure = _tiling_check(images, PRINCIPAL_WINDOW)
    if not ok:
        return None, failure
    return PiecewiseTranslation.from_fragments(fragments), IntervalSet.empty()


def translation_congruence(W: IntervalSet) -> Optional[PiecewiseTranslation]:
    """Witness that 2*pi*Z translates of W tile [-pi, pi), or None.

    The witness maps W onto [-pi, pi); each maximal sub-piece carries its
    unique shift 2*pi*k.
    """
    witness, _ = _translation_result(W)
    return witness


def _annulus_fragments(W: IntervalSet) -> tuple[list[Interval], list[Interval]]:
    """Scale every piece into the reference annuli, splitting at dyadic grid points."""
    positive, negative = [], []
    for piece in W:
        if piece.lo >= RationalPi(0):
            start = piece.lo
            while start < piece.hi:
                m = floor_log2(start.coef)  # start in [2**m * pi, 2**(m+1) * pi)
                frag_hi = min(piece.hi, RationalPi(Fraction(2) ** (m + 1)))
                positive.append(Interval(start, frag_hi).scaled_pow2(-m))
                start = frag_hi
        else:
            start = piece.lo
            while start < piece.hi:
                m = ceil_log2(-start.coef) - 1  # start in [-2**(m+1) * pi, -2**m * pi)
                frag_hi = min(piece.hi, RationalPi(-(Fraction(2) ** m)))
                negative.append(Interval(start, frag_hi).scaled_pow2(-m))
                start = frag_hi
    return positive, negative


def _dilation_result(W: IntervalSet) -> tuple[bool, IntervalSet]:
    if W.zero_in_closure():
        raise PreconditionError(
            "dilation congruence is undecidable with 0 in the closure of the set"
        )
    positive, negative = _annulus_fragments(W)
    ok_pos, fail_pos = _tiling_check(positive, IntervalSet.single(PI, RationalPi(2)))
    ok_neg, fail_neg = _tiling_check(negative, IntervalSet.single(RationalPi(-2), MINUS_PI))
    return ok_pos and ok_neg, fail_pos.union(fail_neg)


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
