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
from fractions import Fraction

import pytest

from wavemult.dimension import StepFunction
from wavemult.exact import Interval, IntervalSet, PreconditionError, RationalPi
from wavemult.wavelet_sets import PiecewiseTranslation

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
