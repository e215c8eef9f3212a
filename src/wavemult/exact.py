"""Exact arithmetic on rational multiples of pi and a canonical interval-set calculus.

Every scalar in this module is q*pi with q a `fractions.Fraction`, so
comparisons, measures and set algebra are exact; floating point appears only
in explicit `float()` conversions.  Interval sets are finite disjoint unions
of half-open intervals [lo, hi) kept in a unique canonical form: pieces
sorted, pairwise disjoint, never adjacent.  The data of an interval set or a
piecewise-constant function is its `coefs`, tuples of `Fraction` coefficients;
`Interval` and `RationalPi` objects are built from them only at the edge:
iteration, `pieces`, `rows()`, `value_at` and text.  The wavelet-set check, the
dimension function and every translation map run on the integer coordinates
x * unit of `_coordinates`, and their results keep (unit, int rows): `coefs` is
built from those on first read, by one `_back`, and the readers that compare or
add ints read the rows.  One walk, `cover`, overlays unsorted or overlapping intervals: it
sums their weights over each run between endpoints, and every exact overlay reads its answer
from those totals.  Sorted, disjoint rows are found by bisection instead.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Optional, Union

__all__ = [
    "PreconditionError",
    "RationalPi",
    "Interval",
    "IntervalSet",
    "ZERO",
    "PI",
    "TWO_PI",
    "MINUS_PI",
    "floor_log2",
    "ceil_log2",
    "cover",
    "Piecewise",
]

RationalLike = Union[int, str, Fraction]
FLOAT_ERROR = "exact scalars take int, str or Fraction, not float"


class PreconditionError(ValueError):
    """An operation was invoked outside its documented domain."""


def _exact(k: RationalLike) -> Fraction:
    if isinstance(k, float):
        raise TypeError(FLOAT_ERROR)
    return Fraction(k)


def _exact_rows(triples: Iterable[tuple]) -> list:
    """The triples as a list; TypeError when an entry's type is not int or Fraction."""
    rows = list(triples)
    kinds = set(map(type, chain.from_iterable(rows))) - {int, Fraction}
    if kinds:
        raise TypeError(FLOAT_ERROR if float in kinds else "exact coefficients are int or "
                        f"Fraction, not {', '.join(sorted(kind.__name__ for kind in kinds))}")
    return rows


def floor_log2(q: Fraction, unit: Union[int, Fraction] = 1) -> int:
    """Largest m with 2**m <= q / unit, computed exactly (q, unit positive ints or Fractions)."""
    if q <= 0 or unit <= 0:
        raise ValueError("floor_log2 requires a positive argument")
    n, d = q.numerator * unit.denominator, q.denominator * unit.numerator
    m = n.bit_length() - d.bit_length()  # q / unit lies in [2**(m-1), 2**(m+1))
    below = n < d << m if m >= 0 else n << -m < d
    return m - 1 if below else m


def ceil_log2(q: Fraction, unit: Union[int, Fraction] = 1) -> int:
    """Smallest m with 2**m >= q / unit, computed exactly (q must be positive)."""
    return -floor_log2(unit, q)


def _order_key(x: Fraction) -> tuple:
    """Exact sort and equality key for x that mostly compares ints: (q,) when x = q / 2**64, else
    (q, x), q = floor(x * 2**64).  Within the `COORD_BITS` budget only Fraction rows come here:
    the step and core-equivalence functions, the `IntervalSet` algebra, unsorted `Piecewise`
    rows.  Past it so do the Fraction coordinates of the wavelet-set check and the dimension
    function, and unsorted sigma fragments.  Plain Fraction keys measured 1.4-2.8x slower
    there and past the budget (ROADMAP)."""
    q, r = divmod(x.numerator << 64, x.denominator)
    return (q, x) if r else (q,)


def cover(items: list[tuple]) -> list[tuple]:
    """The runs (lo, hi, total) of weighted half-open intervals (lo, hi, weight), in order from
    the first endpoint to the last: total sums the weights over the run (0 in a gap), and
    touching runs of one total merge.

    Sorts the 2n endpoint events once and walks them.  Int ends (`_coordinates`) make events
    (x, +-weight) that sort as themselves; any Fraction keys every event by `_order_key`
    (plain Fraction events read 1.1-1.4x slower).  Runs are tuples, which the collector stops
    tracking (list runs read 1.1x on a rejected 400-piece check).
    """
    if not items:
        return []
    runs: list[tuple] = []
    total, value = 0, None  # the total so far, and that of the run open since `start`
    if all(type(lo) is int and type(hi) is int for lo, hi, _ in items):
        events = [(lo, w) for lo, _, w in items] + [(hi, -w) for _, hi, w in items]
        events.sort(key=itemgetter(0))
        at = start = events[0][0]
        for x, w in events:
            if x != at:
                if total != value:
                    runs.append((start, at, value))
                    start, value = at, total
                at = x
            total += w
    else:
        keyed = [(_order_key(lo), lo, w) for lo, _, w in items] + [(_order_key(hi), hi, -w) for _, hi, w in items]
        keyed.sort(key=itemgetter(0))
        key, at, _ = keyed[0]
        start = at
        for k, x, w in keyed:
            if k != key:
                if total != value:
                    runs.append((start, at, value))
                    start, value = at, total
                key, at = k, x
            total += w
    runs.append((start, at, value))
    return runs[1:]  # the first, opened with no total at the first endpoint, is empty


def merge_cells(cells: Iterable[tuple[Fraction, Fraction, Any]]) -> list[list]:
    """Sorted, pairwise disjoint (lo, hi, value) cells as [lo, hi, value] runs: each
    run of touching cells of one value becomes one."""
    runs: list[list] = []
    for lo, hi, value in cells:
        if runs and runs[-1][2] == value and runs[-1][1] == lo:
            runs[-1][1] = hi
        else:
            runs.append([lo, hi, value])
    return runs


def _disjoint_rows(triples: Iterable[tuple]) -> Optional[list[list]]:
    """The non-empty (lo, hi, tag) triples as `merge_cells` runs, or None when two overlap.

    They are sorted by left end only when they do not already come sorted and pairwise
    disjoint, as the runs of `cover` and the fragments of a wavelet set do: by the ends themselves
    when all are ints, else by their `_order_key`s."""
    rows = [row for row in triples if row[0] < row[1]]
    if any(a[1] > b[0] for a, b in zip(rows, rows[1:])):
        ints = all(type(row[0]) is int for row in rows)
        rows.sort(key=itemgetter(0) if ints else lambda row: _order_key(row[0]))
        if any(a[1] > b[0] for a, b in zip(rows, rows[1:])):
            return None
    return merge_cells(rows)


# Largest unit, in bits, of `_coordinates`: ints measured faster than Fractions up to
# about 3000 bits on catalog sigma powers and up to 4096 bits in the wavelet-set check.
COORD_BITS = 3072


def _coordinates(rows: list, shift: int = 0) -> tuple:
    """(unit, the rows of Fraction coefficients x as coordinates x * unit): the unit is D * 2**shift,
    D the common denominator, grown one denominator at a time.  Past `COORD_BITS` bits the unit is 1
    and the coordinates are the coefficients themselves, so the caller runs the same code on them."""
    den = 1
    for x in chain.from_iterable(rows):
        if den % x.denominator:
            den = math.lcm(den, x.denominator)
            if den.bit_length() + shift > COORD_BITS:
                break
    if den.bit_length() + shift > COORD_BITS:
        return 1, rows
    unit = den << shift
    return unit, [tuple([x.numerator * (unit // x.denominator) for x in row]) for row in rows]


def _back(unit: int, sources: Iterable[tuple] = ()) -> Callable:
    """The map from a coordinate over `unit` to its Fraction: an int c of a source (coordinate rows
    over `unit`, their coefficient rows, unless `_coordinates` returned those as they were) to that
    coefficient, any other to c / unit, the power of two that c and the unit share shifted out
    before the gcd, and kept for the next read of c while the unit is within `COORD_BITS` bits
    (past them, hashing the ints costs more than it saves); a Fraction coordinate to itself."""
    own: dict = {}
    for coords, rows in sources:
        if coords is not rows:
            own.update(zip(chain.from_iterable(coords), chain.from_iterable(rows)))
    low, keep = unit & -unit, unit.bit_length() <= COORD_BITS

    def back(c):
        if type(c) is not int:
            return c
        x = own.get(c) if keep or own else None
        if x is None:
            t = c | low
            t = (t & -t).bit_length() - 1
            x = Fraction(c >> t, unit >> t)
            if keep:
                own[c] = x
        return x

    return back


class _Coefs:
    """`coefs` of a result made by `_OnUnit._on`: one `_back` of its rows on the first read, stored
    in the instance.  Read on the class it raises AttributeError: a dataclass sees no default."""

    def __get__(self, obj, cls=None):
        if obj is None:
            raise AttributeError("coefs")
        unit, rows = obj._carried
        coefs = obj.__dict__["coefs"] = obj._fractions(_back(unit, obj.__dict__.pop("_sources")), rows)
        return coefs


class _OnUnit:
    """A result that a builder on integer coordinates made by `_on`: it carries (unit, rows) and
    builds `coefs` on their first read.  A dataclass subclass takes `coefs` as its one field."""

    coefs = _Coefs()

    @classmethod
    def _on(cls, unit: int, rows: list, sources: Iterable[tuple] = ()):
        """The instance of canonical coordinate rows over `unit`, reusing the Fractions of `sources`."""
        self = cls.__new__(cls)
        self.__dict__.update(_carried=(unit, rows), _sources=sources)
        return self

    def _on_unit(self) -> tuple:
        """(unit, rows): the carried coordinate rows, or the coefs themselves over unit 1."""
        return self.__dict__.get("_carried") or (1, self.coefs)


def _on_one_unit(first: _OnUnit, then: _OnUnit) -> tuple:
    """(unit, the rows of `first`, those of `then`) over one unit: the rows they carry scaled to the
    lcm of their units, or past the budget or on Fractions, the `_coordinates` of their coefs."""
    (u, a), (v, b) = first._on_unit(), then._on_unit()
    unit = math.lcm(u, v)
    if unit.bit_length() <= COORD_BITS and min(u, v) > 1:
        return (unit, *[rows if w == unit else [tuple([x * (unit // w) for x in row]) for row in rows]
                        for w, rows in ((u, a), (v, b))])
    unit, coords = _coordinates(first.coefs + then.coefs)
    return unit, coords[:len(first.coefs)], coords[len(first.coefs):]


def _times_pow2(x, m: int):
    """x * 2**m: a shift of an int coordinate (which 2**-m divides if m < 0), else a Fraction
    times or over an int power of two, which reduces by gcds with that power only."""
    if type(x) is int:
        return x << m if m >= 0 else x >> -m
    return x * (1 << m) if m >= 0 else x / (1 << -m)


@dataclass(frozen=True, slots=True, order=True)
class RationalPi:
    """An exact scalar (num/den)*pi.

    The coefficient is stored as a `Fraction`, which keeps num/den coprime
    with a positive denominator after every operation.  Ordering and equality
    compare coefficients exactly, never through floats; floats are rejected.
    """

    coef: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if type(self.coef) is not Fraction:
            object.__setattr__(self, "coef", _exact(self.coef))

    @classmethod
    def of(cls, num: int, den: int = 1) -> "RationalPi":
        return cls(Fraction(num, den))

    @property
    def num(self) -> int:
        return self.coef.numerator

    @property
    def den(self) -> int:
        return self.coef.denominator

    @property
    def is_zero(self) -> bool:
        return self.coef == 0

    @property
    def is_two_pi_multiple(self) -> bool:
        """True when the value lies on the 2*pi*Z lattice."""
        return self.coef % 2 == 0

    def __add__(self, other: "RationalPi") -> "RationalPi":
        if not isinstance(other, RationalPi):
            return NotImplemented
        return RationalPi(self.coef + other.coef)

    def __sub__(self, other: "RationalPi") -> "RationalPi":
        if not isinstance(other, RationalPi):
            return NotImplemented
        return RationalPi(self.coef - other.coef)

    def __neg__(self) -> "RationalPi":
        return RationalPi(-self.coef)

    def __abs__(self) -> "RationalPi":
        return RationalPi(abs(self.coef))

    def __mul__(self, k: RationalLike) -> "RationalPi":
        if isinstance(k, RationalPi):
            raise TypeError("pi*pi is not representable; multiply by a rational")
        return RationalPi(self.coef * _exact(k))

    __rmul__ = __mul__

    def __truediv__(self, k: RationalLike) -> "RationalPi":
        return RationalPi(self.coef / _exact(k))

    def __float__(self) -> float:
        try:
            value = float(self.coef) * math.pi
        except OverflowError:
            value = math.inf
        if math.isinf(value):
            raise PreconditionError("value too large for a float")
        return value

    def _digits(self) -> tuple[str, str]:
        """Decimal numerator and denominator; a precondition error when either has
        more digits than the interpreter converts to text."""
        try:
            return str(self.num), str(self.den)
        except ValueError:
            raise PreconditionError(
                f"exact value has more than {sys.get_int_max_str_digits()} digits to print"
            ) from None

    def pi_text(self) -> str:
        """Grammar-compatible token, e.g. ``15/8pi``, ``-pi``, ``2pi``."""
        num, den = self._digits()
        if den != "1":
            return f"{num}/{den}pi"
        return {"1": "", "-1": "-"}.get(num, num) + "pi"

    def shift_text(self) -> str:
        """Readable exact form, e.g. ``-9/4 pi``."""
        num, den = self._digits()
        return f"{num} pi" if den == "1" else f"{num}/{den} pi"

    def __str__(self) -> str:
        return self.shift_text()


ZERO = RationalPi(0)
PI = RationalPi(1)
TWO_PI = RationalPi(2)
MINUS_PI = RationalPi(-1)


@dataclass(frozen=True, slots=True)
class Interval:
    """Half-open interval [lo, hi) with rational-pi endpoints, never empty."""

    lo: RationalPi
    hi: RationalPi

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(
                f"degenerate interval [{self.lo.pi_text()},{self.hi.pi_text()})"
            )

    def to_text(self) -> str:
        return f"[{self.lo.pi_text()},{self.hi.pi_text()})"

    def __str__(self) -> str:
        return self.to_text()


def _interval(lo: Fraction, hi: Fraction) -> Interval:
    return Interval(RationalPi(lo), RationalPi(hi))


@dataclass(frozen=True, init=False)
class IntervalSet(_OnUnit):
    """Finite disjoint union of half-open intervals in canonical form.

    The data is `coefs`, the (lo, hi) `Fraction` coefficient pairs of the pieces:
    sorted, pairwise disjoint and never adjacent (a gap of positive length
    separates consecutive pieces), so the representation is unique, and equality
    and hashing compare it; an image or a failure region builds it on first read.
    `Interval` objects are built from it only for `pieces`, iteration and text.
    ``IntervalSet(intervals)`` takes already canonical intervals;
    :meth:`from_intervals` canonicalizes any.
    """

    coefs: tuple[tuple[Fraction, Fraction], ...]
    _fractions = staticmethod(lambda back, runs: tuple([(back(lo), back(hi)) for lo, hi, _ in runs]))

    def __init__(self, pieces: Iterable[Interval] = ()) -> None:
        pieces = tuple(pieces)
        coefs = tuple((iv.lo.coef, iv.hi.coef) for iv in pieces)
        if any(a[1] >= b[0] for a, b in zip(coefs, coefs[1:])):
            raise ValueError("interval set is not canonical; use from_intervals")
        object.__setattr__(self, "coefs", coefs)
        object.__setattr__(self, "pieces", pieces)

    @classmethod
    def _of(cls, coefs: tuple) -> "IntervalSet":
        """The set whose data is `coefs`, already canonical."""
        self = cls.__new__(cls)
        object.__setattr__(self, "coefs", coefs)
        return self

    @cached_property
    def pieces(self) -> tuple[Interval, ...]:
        return tuple(_interval(lo, hi) for lo, hi in self.coefs)

    def __hash__(self) -> int:
        """The hash of the coefs' integer ratios, taken once per instance: `Fraction.__hash__`
        takes a modular inverse per endpoint, most of a fresh set's cache lookup."""
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash(tuple([(lo.as_integer_ratio(), hi.as_integer_ratio())
                                                    for lo, hi in self.coefs]))
        return h

    @classmethod
    def from_intervals(cls, intervals: Iterable[Interval]) -> "IntervalSet":
        """Canonicalize any collection of intervals (the normalize operation)."""
        return cls.from_cells((lo, hi) for lo, hi, total in cover([(iv.lo.coef, iv.hi.coef, 1) for iv in intervals])
                              if total > 0)

    @classmethod
    def from_cells(cls, cells: Iterable[tuple[Fraction, Fraction]]) -> "IntervalSet":
        """Canonical set of sorted, pairwise disjoint coefficient pairs (lo, hi), such as the
        runs of `cover` it keeps: touching pairs merge."""
        return cls._of(tuple((lo, hi) for lo, hi, _ in merge_cells((lo, hi, None) for lo, hi in cells)))

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls._of(())

    @classmethod
    def single(cls, lo: RationalPi, hi: RationalPi) -> "IntervalSet":
        return cls((Interval(lo, hi),))

    @property
    def is_empty(self) -> bool:
        return not self.coefs

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.pieces)

    def __len__(self) -> int:
        return len(self.coefs)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return self._select(other, {1, 2, 3})

    def _select(self, other: "IntervalSet", keep: set) -> "IntervalSet":
        """The runs of one `cover` of self (weight 1) and other (weight 2) whose totals are in
        `keep`: 1 in self only, 2 in other only, 3 in both."""
        items = [(lo, hi, 1) for lo, hi in self.coefs] + [(lo, hi, 2) for lo, hi in other.coefs]
        return IntervalSet.from_cells((lo, hi) for lo, hi, total in cover(items) if total in keep)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        return self._select(other, {3})

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        return self._select(other, {1})

    def negate(self) -> "IntervalSet":
        """Pointwise negation, re-expressed half-open: -[a,b) becomes [-b,-a)."""
        return IntervalSet._of(tuple((-hi, -lo) for lo, hi in reversed(self.coefs)))

    def dilate(self, n: int) -> "IntervalSet":
        """Pointwise map x -> 2**n * x; measure scales by exactly 2**n."""
        if not isinstance(n, int):
            raise TypeError("dilation exponent must be an integer")
        scale = Fraction(2) ** n
        return IntervalSet._of(tuple((lo * scale, hi * scale) for lo, hi in self.coefs))

    def translate(self, t: RationalPi) -> "IntervalSet":
        return IntervalSet._of(tuple((lo + t.coef, hi + t.coef) for lo, hi in self.coefs))

    def measure(self) -> RationalPi:
        return RationalPi(sum((hi - lo for lo, hi in self.coefs), Fraction(0)))

    def contains(self, x: RationalPi) -> bool:
        return any(lo <= x.coef < hi for lo, hi in self.coefs)

    def subset_of(self, other: "IntervalSet") -> bool:
        return self.difference(other).is_empty

    def zero_in_closure(self) -> bool:
        i = bisect_left(self.coefs, 0, key=itemgetter(1))  # the first piece with hi >= 0
        return i < len(self.coefs) and self.coefs[i][0] <= 0

    def dist_zero(self) -> RationalPi:
        """Distance from 0 to the closure (0 if the closure meets the origin)."""
        if self.is_empty:
            raise ValueError("empty set has no distance to 0")
        if self.zero_in_closure():
            return ZERO
        return RationalPi(min(min(abs(lo), abs(hi)) for lo, hi in self.coefs))

    def max_abs(self) -> RationalPi:
        """Largest |x| over the closure (attained at an endpoint)."""
        if self.is_empty:
            raise ValueError("empty set has no magnitude bound")
        return RationalPi(max(max(abs(lo), abs(hi)) for lo, hi in self.coefs))

    def to_text(self) -> str:
        return ",".join(iv.to_text() for iv in self.pieces)

    def __str__(self) -> str:
        return self.to_text() if self.coefs else "(empty)"


@dataclass(frozen=True, init=False)
class Piecewise(_OnUnit):
    """A function constant on each piece of its domain, in canonical form.

    The data is `coefs`, the rows as (lo, hi, tag) coefficient triples ordered by
    left endpoint, touching rows of one tag merged; equality and hashing compare
    it.  `from_triples` is the public constructor.  It rejects entries other than ints and
    Fractions, drops empty triples, sorts the rest by left endpoint unless they come
    sorted, and rejects any two that overlap, of one tag or of two; a builder on integer
    coordinates hands its canonical rows to `_on`.  `coefs`, `domain`, and `pairs` (each
    value once, in value order, with its IntervalSet), are built when first read; `rows()`
    builds `Interval` rows when called.  A tag is a value as `_value` takes it, for a
    translation the shift's coefficient.
    """

    coefs: tuple[tuple[Fraction, Fraction, Union[int, Fraction]], ...]

    OVERLAP_ERROR = "pieces overlap"
    _value = staticmethod(lambda tag: tag)  # hashable tag -> value
    _fractions = staticmethod(lambda back, rows: tuple([(back(lo), back(hi), tag) for lo, hi, tag in rows]))

    @classmethod
    def from_triples(cls, triples: Iterable[tuple]):
        """The instance whose pieces are the (lo, hi, tag) triples of int or `Fraction`
        coefficients; any other entry raises TypeError."""
        self = cls.__new__(cls)
        self._build(_exact_rows(triples))
        return self

    @classmethod
    def _rows(cls, triples: list) -> list[list]:
        rows = _disjoint_rows(triples)
        if rows is None:
            raise ValueError(cls.OVERLAP_ERROR)
        return rows

    def _build(self, triples: list) -> None:
        object.__setattr__(self, "coefs", tuple(map(tuple, self._rows(triples))))

    @cached_property
    def domain(self) -> IntervalSet:
        return IntervalSet.from_cells((lo, hi) for lo, hi, _ in self.coefs)

    @cached_property
    def pairs(self) -> tuple[tuple[IntervalSet, Any], ...]:
        by_tag: dict = {}
        for lo, hi, tag in self.coefs:
            by_tag.setdefault(tag, []).append((lo, hi))
        return tuple((IntervalSet._of(tuple(by_tag[tag])), self._value(tag)) for tag in sorted(by_tag))

    def value_at(self, x: RationalPi) -> Any:
        i = bisect_right(self.coefs, x.coef, key=itemgetter(0)) - 1
        if i >= 0 and x.coef < self.coefs[i][1]:
            return self._value(self.coefs[i][2])
        raise PreconditionError(f"{x} lies outside the domain")

    def rows(self) -> list[tuple[Interval, Any]]:
        """Atomic (interval, value) rows ordered by left endpoint."""
        return [(_interval(lo, hi), self._value(tag)) for lo, hi, tag in self.coefs]
