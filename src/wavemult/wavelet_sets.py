"""Wavelet-set verification via exact translation and dilation congruence.

A bounded interval set W with 0 outside its closure is accepted as a wavelet
set when two exact tilings hold: the 2*pi*Z translates of its pieces tile
[-pi, pi), and its dyadic dilates tile the punctured line (checked on the
reference annulus [-2*pi, -pi) u [pi, 2*pi)).  The two targets make up
[-2*pi, 2*pi), so one exact count of its cover decides both tilings, on integer
coordinates when they fit; the translation witness is built from the same
integer fragments.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from .exact import (
    PreconditionError,
    IntervalSet,
    Piecewise,
    RationalPi,
    _coordinates,
    _disjoint_rows,
    _on_one_unit,
    _exact_rows,
    _times_pow2,
    floor_log2,
    ceil_log2,
    cover,
)
from .parsing import parse_set

__all__ = [
    "PiecewiseTranslation",
    "WaveletSetReport",
    "is_wavelet_set",
    "catalog",
    "CATALOG_NAMES",
]

class PiecewiseTranslation(Piecewise):
    """An injective map translating each piece of its domain by a constant.

    Canonical as a `Piecewise` whose values are the shifts.  Every instance is built on
    integer coordinates by `_mapped`, which also takes the union of the shifted pieces
    as `image`, after construction has validated that they are pairwise disjoint
    (injectivity), so every instance is a measure-preserving bijection onto its image.
    """

    OVERLAP_ERROR = "piecewise translation has overlapping domain pieces"
    _value = RationalPi
    _fractions = staticmethod(lambda back, rows: tuple([(back(lo), back(hi), back(s)) for lo, hi, s in rows]))

    @classmethod
    def from_triples(cls, triples: Iterable[tuple]):
        """The translation of (lo, hi, shift) triples of int or `Fraction` coefficients (else
        TypeError), which `_coordinates` scales first."""
        rows = _exact_rows(triples)
        unit, coords = _coordinates(rows)
        return cls._mapped(unit, *cls._canonical(coords), [(coords, rows)])

    @classmethod
    def _canonical(cls, triples: Iterable[tuple]) -> tuple[list, list]:
        """Canonical rows of (lo, hi, shift) coordinates and their image runs, if neither overlaps."""
        rows = cls._rows(triples)
        image = _disjoint_rows((lo + shift, hi + shift, None) for lo, hi, shift in rows)
        if image is None:
            raise ValueError("piecewise translation is not injective")
        return rows, image

    @classmethod
    def _mapped(cls, unit: int, rows: list, image: list, sources: Iterable[tuple] = ()):
        """The translation of canonical coordinate rows over `unit` and their image runs, both
        mapped to Fractions when first read, reusing those of `sources`."""
        self = cls._on(unit, rows, sources)
        self.__dict__["image"] = IntervalSet._on(unit, image)
        return self

    @property
    def is_two_pi_integral(self) -> bool:
        unit, rows = self._on_unit()
        return not any(shift % (2 * unit) for *_, shift in rows)

    cases = Piecewise.rows

    def inverse(self) -> "PiecewiseTranslation":
        unit, rows, _ = _on_one_unit(self, self)
        return PiecewiseTranslation._mapped(unit, *self._canonical([(lo + s, hi + s, -s) for lo, hi, s in rows]))


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


def _fold(pairs: Iterable[tuple], unit) -> list[tuple]:
    """Split each piece, a pair (lo, hi) of coordinates, at odd multiples of pi into
    triples (lo, hi, s), s the multiple of 2*pi that moves the fragment into [-pi, pi).

    At most three per piece: if a piece reaches a fourth 2*pi cell, its second
    and third fragments cover [-pi, pi) twice, and the rest change no result."""
    fragments = []
    two = 2 * unit
    for start, end in pairs:
        s = -two * ((start + unit) // two)
        for _ in range(3):
            if start >= end:
                break
            frag_hi = min(end, unit - s)
            fragments.append((start, frag_hi, s))
            start, s = frag_hi, s - two
    return fragments


def _annulus(pairs: Iterable[tuple], unit) -> list[tuple]:
    """Scale each piece, a pair (lo, hi) of coordinates (0 outside its closure), into
    the annulus [-2*pi, -pi) u [pi, 2*pi) as `cover` items (lo, hi, 1), split at dyadic points.

    At most three per piece: if a piece reaches a fourth octave, its second
    and third fragments cover the annulus twice, and the rest change no result."""
    fragments = []
    for start, end in pairs:
        if start > 0:  # start in [2**m * pi, 2**(m+1) * pi); each next octave is halved
            m, cut, wrap, step = floor_log2(start, unit), 2 * unit, unit, -1
        else:  # start in [-2**(m+1) * pi, -2**m * pi); each next octave is doubled
            m, cut, wrap, step = ceil_log2(-start, unit) - 1, -unit, -2 * unit, 1
        lo, hi = _times_pow2(start, -m), _times_pow2(end, -m)
        for _ in range(3):
            fragments.append((lo, min(hi, cut), 1))
            if hi <= cut:
                break
            lo, hi = wrap, _times_pow2(hi, step)
    return fragments


# Reports held by the is_wavelet_set cache; the least recently used go first.
CACHE_SIZE = 256


@lru_cache(maxsize=CACHE_SIZE)
def is_wavelet_set(W: IntervalSet) -> WaveletSetReport:
    """Run both congruence checks; a set is accepted iff both hold.

    One `cover` counts the translates of W folded into [-pi, pi) and its dilates scaled into the
    annulus, on int `_coordinates` when they fit.  The failure region, what its runs of total 1
    leave of [-2*pi, 2*pi), breaks translation congruence where it meets [-pi, pi), and
    dilation congruence where it meets the annulus.
    """
    if W.zero_in_closure():
        raise PreconditionError(
            "dilation congruence is undecidable with 0 in the closure of the set"
        )
    shift = max(0, floor_log2(max(-W.coefs[0][0], W.coefs[-1][1]))) if W.coefs else 0
    unit, pairs = _coordinates(W.coefs, shift)
    fragments = _fold(pairs, unit)
    failure, end = [], -2 * unit  # the images lie in [-2*pi, 2*pi); runs of total 1 never touch
    for lo, hi, total in cover(_annulus(pairs, unit) + [(lo + s, hi + s, 1) for lo, hi, s in fragments]):
        if total == 1:
            if end != lo:
                failure.append((end, lo, None))
            end = hi
    if end != 2 * unit:
        failure.append((end, 2 * unit, None))
    # The failure is sorted: it meets [-pi, pi) iff its first piece ending past -pi starts before pi.
    i = bisect_right(failure, -unit, key=lambda row: row[1])
    translation_ok = i == len(failure) or failure[i][0] >= unit
    # With translation congruence the fragments (sorted, with distinct shifts within a piece) are
    # the witness's canonical rows: each point of [-pi, pi), its image, lies in one translate.
    return WaveletSetReport(
        is_translation_congruent=translation_ok,
        is_dilation_congruent=not failure or -unit <= failure[0][0] and failure[-1][1] <= unit,
        tau_witness=(PiecewiseTranslation._mapped(unit, fragments, [(-unit, unit, None)], [(pairs, W.coefs)])
                     if translation_ok else None),
        failure_regions=IntervalSet._on(unit, failure),
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
