"""The shared piecewise-constant core against a reference built from set algebra.

Seeded random (piece, value) lists on a coarse grid, so that empty pieces,
overlaps of one value, overlaps of two values and touching pieces all occur.
Each list reaches `from_triples`, the only constructor, as (lo, hi, tag) triples.
The reference merges each value's pieces with `IntervalSet.union` and finds
clashes with `IntervalSet.intersect`; it never groups, sorts or sweeps.
"""

import itertools
import random
from collections import Counter
from dataclasses import fields
from fractions import Fraction

import pytest

from wavemult import exact
from wavemult.dimension import StepFunction
from wavemult.exact import Interval, IntervalSet, PreconditionError, Piecewise, RationalPi
from wavemult.wavelet_sets import PiecewiseTranslation

from _oracles import object_piecewise

SEEDS = range(300)
SHIFTS = tuple(RationalPi(Fraction(k, 2)) for k in (-4, -1, 0, 1, 4))


def random_piece(rng):
    """Empty, or up to two intervals with endpoints on the (1/4)pi grid in [-3pi, 3pi]."""
    ivs = []
    for _ in range(rng.randint(0, 2)):
        lo = rng.randint(-12, 10)
        hi = lo + rng.randint(1, 3)
        ivs.append(Interval(RationalPi(Fraction(lo, 4)), RationalPi(Fraction(hi, 4))))
    return IntervalSet.from_intervals(ivs)


def random_pairs(rng, values):
    return [(random_piece(rng), rng.choice(values)) for _ in range(rng.randint(0, 4))]


def triples(pairs, tag=lambda value: value):
    return [(iv.lo.coef, iv.hi.coef, tag(value)) for piece, value in pairs for iv in piece]


def translation(pairs):
    return PiecewiseTranslation.from_triples(triples(pairs, lambda shift: shift.coef))


def union_all(sets):
    out = IntervalSet.empty()
    for s in sets:
        out = out.union(s)
    return out


def disjoint(sets) -> bool:
    return all(a.intersect(b).is_empty for a, b in itertools.combinations(sets, 2))


def reference(pairs):
    """(canonical pairs, domain), or None when pieces of two values overlap."""
    merged: dict = {}
    for piece, value in pairs:
        merged[value] = merged.get(value, IntervalSet.empty()).union(piece)
    canonical = tuple((piece, v) for v, piece in sorted(merged.items()) if not piece.is_empty)
    if not disjoint([piece for piece, _ in canonical]):
        return None
    return canonical, union_all(piece for piece, _ in canonical)


def touching(canonical) -> bool:
    ends = [(iv.lo, iv.hi) for piece, _ in canonical for iv in piece]
    return any(a[1] == b[0] for a, b in itertools.permutations(ends, 2))


def classify(pairs, canonical) -> set:
    kinds = set()
    if any(piece.is_empty for piece, _ in pairs):
        kinds.add("empty piece")
    if any(a[1] == b[1] and not a[0].intersect(b[0]).is_empty
           for a, b in itertools.combinations(pairs, 2)):
        kinds.add("same-value overlap")
    if canonical is not None and touching(canonical):
        kinds.add("touching")
    return kinds


def check_lookup(f, canonical):
    """rows() cover the domain in order; value_at matches membership at each row."""
    rows = f.rows()
    assert [iv.lo for iv, _ in rows] == sorted(iv.lo for iv, _ in rows)
    assert IntervalSet.from_intervals(iv for iv, _ in rows) == f.domain
    pieces = dict((v, piece) for piece, v in canonical)
    for iv, v in rows:
        for x in (iv.lo, (iv.lo + iv.hi) / 2):
            assert pieces[v].contains(x)
            assert f.value_at(x) == v
        if not f.domain.contains(iv.hi):
            with pytest.raises(PreconditionError):
                f.value_at(iv.hi)


def test_piecewise_translation_matches_reference():
    seen = Counter()
    for seed in SEEDS:
        rng = random.Random(seed)
        pairs = random_pairs(rng, SHIFTS)
        ref = reference(pairs)
        seen.update(classify(pairs, ref and ref[0]))
        if ref is None:
            seen["rejected overlap"] += 1
            with pytest.raises(ValueError, match="overlapping"):
                translation(pairs)
            continue
        canonical, domain = ref
        images = [piece.translate(shift) for piece, shift in canonical]
        if not disjoint(images):
            seen["rejected injective"] += 1
            with pytest.raises(ValueError, match="injective"):
                translation(pairs)
            continue
        seen["accepted"] += 1
        pt = translation(pairs)
        assert pt.pairs == canonical, seed
        assert pt.domain == domain, seed
        assert pt.image == union_all(images), seed
        assert pt.cases() == pt.rows()
        check_lookup(pt, canonical)
        for iv, shift in pt.rows():
            assert pt.apply(iv.lo) == iv.lo + shift
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        assert translation(shuffled) == pt
        assert hash(translation(shuffled)) == hash(pt)
    assert min(seen[k] for k in ("accepted", "rejected overlap", "rejected injective",
                                 "empty piece", "same-value overlap", "touching")) >= 5, seen


def test_step_function_matches_reference():
    seen = Counter()
    for seed in SEEDS:
        rng = random.Random(seed)
        pairs = random_pairs(rng, (0, 1, 2, 3))
        ref = reference(pairs)
        seen.update(classify(pairs, ref and ref[0]))
        if ref is None:
            seen["rejected overlap"] += 1
            with pytest.raises(ValueError, match="overlap"):
                StepFunction.from_triples(triples(pairs))
            continue
        seen["accepted"] += 1
        canonical, domain = ref
        sf = StepFunction.from_triples(triples(pairs))
        assert sf.pairs == canonical, seed
        assert sf.domain == domain, seed
        check_lookup(sf, canonical)
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        assert StepFunction.from_triples(triples(shuffled)) == sf
        assert hash(StepFunction.from_triples(triples(shuffled))) == hash(sf)
    assert min(seen[k] for k in ("accepted", "rejected overlap", "empty piece",
                                 "same-value overlap", "touching")) >= 5, seen


@pytest.mark.parametrize("cls", [PiecewiseTranslation, StepFunction])
def test_pairs_are_no_constructor(cls):
    with pytest.raises(TypeError):
        cls(((IntervalSet.single(RationalPi(0), RationalPi(1)), 1),))


def ordered_triples(rng):
    """Up to six (lo, hi, value) triples in left-endpoint order on the (1/4)pi grid, values
    0..2: each starts where the last ends or past it, so rows of one value touch; sometimes
    one is empty, or starts before the last ends."""
    triples, lo = [], Fraction(rng.randint(-8, 4), 4)
    for _ in range(rng.randint(0, 6)):
        hi = lo + Fraction(rng.choice((0, 1, 1, 2, 3)) if rng.random() < 0.1 else rng.randint(1, 3), 4)
        triples.append((lo, hi, rng.randint(0, 2)))
        lo = hi + Fraction(rng.choice((0, 0, 1, 2, -1)), 4)
    return triples


@pytest.fixture
def sweeps(monkeypatch):
    """Calls of exact.sweep, counted."""
    count = [0]
    sweep = exact.sweep

    def counting(items):
        count[0] += 1
        return sweep(items)

    monkeypatch.setattr(exact, "sweep", counting)
    return count


class TestLinearBuild:
    """Triples already sorted, non-empty and pairwise disjoint take one linear pass; any
    others take the sweep.  Both must give what the object-level build gives."""

    def test_matches_the_object_level_build(self, sweeps):
        seen = Counter()
        for seed in SEEDS:
            triples = ordered_triples(random.Random(seed))
            linear = (all(lo < hi for lo, hi, _ in triples)
                      and all(a[1] <= b[0] for a, b in zip(triples, triples[1:])))
            sweeps[0] = 0
            try:
                want = object_piecewise(triples)
            except ValueError:
                with pytest.raises(ValueError, match=Piecewise.OVERLAP_ERROR):
                    StepFunction.from_triples(triples)
                seen["overlap"] += 1
                assert not linear and sweeps[0] == 1
                continue
            f = StepFunction.from_triples(triples)
            assert (f.pairs, f.domain, tuple(f.rows())) == want, seed
            assert sweeps[0] == (not linear), seed
            seen["linear" if linear else "sweep"] += 1
            seen["merged" if len(f.coefs) < len(triples) and linear else "kept"] += 1
            seen["empty triple"] += any(lo == hi for lo, hi, _ in triples)
        assert min(seen[k] for k in ("overlap", "linear", "sweep", "merged", "empty triple")) >= 10, seen

    def test_an_empty_triple_goes_to_the_sweep(self, sweeps):
        f = StepFunction.from_triples([(Fraction(0), Fraction(1), 1), (Fraction(1), Fraction(1), 2),
                                       (Fraction(1), Fraction(2), 1)])
        assert sweeps[0] == 1
        assert f.coefs == ((0, 2, 1),)

    def test_touching_cells_of_one_tag_merge(self, sweeps):
        f = PiecewiseTranslation.from_triples([(Fraction(0), Fraction(1), Fraction(2)),
                                               (Fraction(1), Fraction(2), Fraction(2)),
                                               (Fraction(2), Fraction(3), Fraction(-2))])
        assert sweeps[0] == 0
        assert f.coefs == ((0, 2, 2), (2, 3, -2))

    def test_an_overlap_goes_to_the_sweep_and_raises(self, sweeps):
        with pytest.raises(ValueError, match=PiecewiseTranslation.OVERLAP_ERROR):
            PiecewiseTranslation.from_triples([(Fraction(0), Fraction(2), Fraction(2)),
                                               (Fraction(1), Fraction(3), Fraction(4))])
        assert sweeps[0] == 1


@pytest.mark.parametrize("make", [
    lambda rows: PiecewiseTranslation.from_triples((lo, hi, Fraction(tag, 2)) for lo, hi, tag in rows),
    StepFunction.from_triples,
], ids=["PiecewiseTranslation", "StepFunction"])
def test_equality_and_hashing_compare_coefs(make):
    """Equal rows give equal, equally hashed functions whether or not `pairs` was read;
    different rows give different functions, and the two types never compare equal."""
    rows = [(Fraction(0), Fraction(1), 1), (Fraction(1), Fraction(2), 2), (Fraction(3), Fraction(4), 1)]
    f, g = make(rows), make(reversed(rows))
    assert f.pairs and "pairs" in vars(f) and "pairs" not in vars(g)
    assert f == g and hash(f) == hash(g)
    assert {f: 1}[g] == 1
    assert f != make(rows[:2]) and f != make([(lo, hi, tag + 2) for lo, hi, tag in rows])
    assert f.coefs == g.coefs and [field.name for field in fields(f)] == ["coefs"]
    other = StepFunction if isinstance(f, PiecewiseTranslation) else PiecewiseTranslation
    assert f != other.from_triples(f.coefs)
