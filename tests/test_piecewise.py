"""The shared piecewise-constant core against a reference built from set algebra.

Seeded random (piece, value) lists on a coarse grid, so that empty pieces,
overlaps of one value, overlaps of two values and touching pieces all occur.
Each list reaches `from_triples`, the only constructor, as (lo, hi, tag) triples,
which must reject any two pieces that overlap, of one value or of two.  The
reference merges each value's pieces with `IntervalSet.union` and finds clashes
with `IntervalSet.intersect`; it never groups, sorts or covers.
"""

import itertools
import random
from collections import Counter
from dataclasses import fields
from fractions import Fraction

import pytest

from wavemult import exact, wavelet_sets
from wavemult.dimension import StepFunction
from wavemult.exact import Interval, IntervalSet, PreconditionError, Piecewise, RationalPi
from wavemult.wavelet_sets import PiecewiseTranslation, is_wavelet_set

from _oracles import object_piecewise, random_wavelet_candidate, sorted_disjoint_union, two_path_rows

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
        if not disjoint([piece for piece, _ in pairs]):
            seen["rejected overlap"] += 1
            seen["merged by the reference"] += ref is not None
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
                                 "empty piece", "same-value overlap", "touching",
                                 "merged by the reference")) >= 5, seen


def test_step_function_matches_reference():
    seen = Counter()
    for seed in SEEDS:
        rng = random.Random(seed)
        pairs = random_pairs(rng, (0, 1, 2, 3))
        ref = reference(pairs)
        seen.update(classify(pairs, ref and ref[0]))
        if not disjoint([piece for piece, _ in pairs]):
            seen["rejected overlap"] += 1
            seen["merged by the reference"] += ref is not None
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
                                 "same-value overlap", "touching", "merged by the reference")) >= 5, seen


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


def overlapping(triples) -> bool:
    return any(max(a[0], b[0]) < min(a[1], b[1]) for a, b in itertools.combinations(triples, 2))


@pytest.fixture
def covers(monkeypatch):
    """Calls of exact.cover, counted."""
    count = [0]
    cover = exact.cover

    def counting(items):
        count[0] += 1
        return cover(items)

    monkeypatch.setattr(exact, "cover", counting)
    return count


@pytest.fixture
def sort_keys(monkeypatch):
    """Calls of exact._order_key, the sort key of `from_triples` (and of `cover`), counted."""
    count = [0]
    key = exact._order_key

    def counting(x):
        count[0] += 1
        return key(x)

    monkeypatch.setattr(exact, "_order_key", counting)
    return count


@pytest.fixture
def rule_calls(monkeypatch):
    """(triples, sort keys, whether they came sorted and disjoint) of each run of the
    construction rule, on a domain or an image."""
    log = []
    key, rule = exact._order_key, exact._disjoint_rows

    def recording(triples):
        triples = list(triples)
        keys = [0]

        def counting(x):
            keys[0] += 1
            return key(x)

        kept = [t for t in triples if t[0] < t[1]]
        exact._order_key = counting
        try:
            return rule(triples)
        finally:
            exact._order_key = key
            log.append((len(triples), keys[0], all(a[1] <= b[0] for a, b in zip(kept, kept[1:]))))

    monkeypatch.setattr(exact, "_disjoint_rows", recording)
    monkeypatch.setattr(wavelet_sets, "_disjoint_rows", recording)
    return log


def scaled(triples, unit=4):
    """The (lo, hi, tag) triples with lo and hi as int coordinates x * unit (exact); `over(unit)`
    builds a translation on them."""
    coords = [(lo * unit, hi * unit, tag) for lo, hi, tag in triples]
    assert all(Fraction(x).denominator == 1 for lo, hi, _ in coords for x in (lo, hi))
    return [(int(lo), int(hi), tag) for lo, hi, tag in coords]


def over(unit):
    """The translation of int coordinate triples over `unit`, built by the construction rule as
    the library's builders on coordinates build theirs."""
    return lambda coords: PiecewiseTranslation._mapped(unit, *PiecewiseTranslation._canonical(coords))


class TestLinearBuild:
    """`from_triples` drops empty triples, sorts the rest only when they do not come sorted
    and pairwise disjoint (int coordinates by themselves, any others by one sort key per
    triple), and raises on any overlap; it never runs `cover`.  The result is what the
    object-level build gives."""

    def test_matches_the_object_level_build(self, covers, sort_keys):
        """Each case as a StepFunction of Fraction coefficients, and as a translation on int
        coordinates over unit 4 whose shifts, 10 * value, keep the images of values apart."""
        seen = Counter()
        for seed in SEEDS:
            rng = random.Random(seed)
            triples = ordered_triples(rng)
            overlap = overlapping([t for t in triples if t[0] < t[1]])
            try:
                wants = {"Fraction": object_piecewise(triples),
                         "int": object_piecewise(triples, lambda tag: RationalPi(Fraction(10 * tag)))}
            except ValueError:
                assert overlap
                wants = None
            for case in (triples, rng.sample(triples, len(triples))):
                kept = [t for t in case if t[0] < t[1]]
                in_order = all(a[1] <= b[0] for a, b in zip(kept, kept[1:]))
                shifted = [(lo, hi, 40 * tag) for lo, hi, tag in scaled(case)]
                for side, cls, build in (
                        ("Fraction", StepFunction, lambda: StepFunction.from_triples(case)),
                        ("int", PiecewiseTranslation, lambda: over(4)(shifted))):
                    covers[0] = sort_keys[0] = 0
                    keys = 0 if side == "int" else len(kept)
                    if overlap:
                        with pytest.raises(ValueError, match=cls.OVERLAP_ERROR):
                            build()
                        seen["one-value overlap" if wants else "two-value overlap"] += 1
                        assert (covers[0], sort_keys[0]) == (0, keys), seed
                        continue
                    f = build()
                    assert (f.pairs, f.domain, tuple(f.rows())) == wants[side], seed
                    assert (covers[0], sort_keys[0]) == (0, 0 if in_order else keys), seed
                    seen["in order" if in_order else "sorted"] += 1
                    seen["merged" if len(f.coefs) < len(kept) else "kept"] += 1
                    seen["empty triple"] += len(kept) < len(case)
                    seen[side] += 1
        assert min(seen[k] for k in ("one-value overlap", "two-value overlap", "in order", "sorted",
                                     "merged", "empty triple", "Fraction", "int")) >= 10, seen

    def test_an_empty_triple_is_dropped(self, sort_keys):
        f = StepFunction.from_triples([(Fraction(0), Fraction(1), 1), (Fraction(1), Fraction(1), 2),
                                       (Fraction(1), Fraction(2), 1), (Fraction(-5), Fraction(-5), 0)])
        assert sort_keys[0] == 0
        assert f.coefs == ((0, 2, 1),)

    def test_touching_cells_of_one_tag_merge(self, covers):
        f = PiecewiseTranslation.from_triples([(Fraction(0), Fraction(1), Fraction(2)),
                                               (Fraction(1), Fraction(2), Fraction(2)),
                                               (Fraction(2), Fraction(3), Fraction(-2))])
        assert covers[0] == 0
        assert f.coefs == ((0, 2, 2), (2, 3, -2))

    def test_an_overlap_raises(self, covers, sort_keys):
        """Fraction triples within the budget of `_coordinates` sort as ints: no sort key."""
        with pytest.raises(ValueError, match=PiecewiseTranslation.OVERLAP_ERROR):
            PiecewiseTranslation.from_triples([(Fraction(0), Fraction(2), Fraction(2)),
                                               (Fraction(1), Fraction(3), Fraction(4))])
        assert (covers[0], sort_keys[0]) == (0, 0)

    def test_an_overlap_past_the_budget_raises(self, covers, sort_keys):
        """A 2**-4000 endpoint keeps the coordinates Fractions: one sort key per triple."""
        with pytest.raises(ValueError, match=PiecewiseTranslation.OVERLAP_ERROR):
            PiecewiseTranslation.from_triples([(Fraction(0), Fraction(2), Fraction(2)),
                                               (Fraction(1), 3 + Fraction(1, 2**4000), Fraction(4))])
        assert (covers[0], sort_keys[0]) == (0, 2)

    @pytest.mark.parametrize("cls", [Piecewise, StepFunction, PiecewiseTranslation])
    @pytest.mark.parametrize("triple", [(0.5, 1.0, 2), (Fraction(0), Fraction(1), 2.0),
                                        (Fraction(0), Fraction(1, 2**4000), 2.0)],
                             ids=["endpoints", "tag", "tag past the budget"])
    def test_a_float_raises_at_construction(self, cls, triple):
        with pytest.raises(TypeError) as scalar:
            RationalPi(0.5)
        with pytest.raises(TypeError) as built:
            cls.from_triples([(Fraction(-1), Fraction(0), 2), triple])
        assert str(built.value) == str(scalar.value)

    @pytest.mark.parametrize("cls", [Piecewise, StepFunction, PiecewiseTranslation])
    @pytest.mark.parametrize("rows", [[("0", "1", 2)], [("10", "9", 1), ("0", "1", 2)],
                                      [(Fraction(0), Fraction(1), "2")]],
                             ids=["one sorted row", "unsorted rows", "str shift"])
    def test_a_str_raises_at_construction(self, cls, rows):
        """Only ints and Fractions are coefficients, though `RationalPi` parses text."""
        assert RationalPi("1/3").coef == Fraction(1, 3)
        with pytest.raises(TypeError, match="int or Fraction, not str"):
            cls.from_triples(rows)

    @pytest.mark.parametrize("cls", [Piecewise, StepFunction, PiecewiseTranslation])
    @pytest.mark.parametrize("rows", [
        [(0, 2, 2), (1, 3, 2)],
        [(0, 2, 2), (1, 3, 4)],
        [(1, 3, 2), (0, 2, 2)],
        [(0, 4, 2), (1, 2, 2)],
        [(0, 1, 2), (0, 1, 2)],
        [(2, 3, 4), (0, 1, 2), (1, 2, 2), (Fraction(3, 2), Fraction(5, 2), 2)],
    ], ids=["one value", "two values", "out of order", "nested", "repeated", "among touching"])
    def test_every_overlap_raises(self, cls, rows):
        with pytest.raises(ValueError, match=cls.OVERLAP_ERROR):
            cls.from_triples([(Fraction(lo), Fraction(hi), Fraction(tag)) for lo, hi, tag in rows])

    @pytest.mark.parametrize("rows", [
        [(0, 1, 2), (2, 3, 0)],
        [(2, 3, 0), (0, 1, 2)],
        [(0, 2, 2), (3, 4, 0)],
        [(0, 1, 4), (5, 6, -2), (Fraction(7, 2), 4, 0)],
    ], ids=["equal images", "out of order", "partial", "among three"])
    def test_an_overlapping_image_raises(self, rows):
        triples = [(Fraction(lo), Fraction(hi), Fraction(s)) for lo, hi, s in rows]
        assert not overlapping(triples)
        with pytest.raises(ValueError, match="not injective"):
            PiecewiseTranslation.from_triples(triples)

    def test_a_witness_runs_no_construction_rule(self, rule_calls):
        """A 400-piece witness on int coordinates takes the fold's fragments as its rows, which
        come canonical, and [-pi, pi) as its image: no rule runs.  The same rows shuffled as
        Fraction coefficients take one sort, one key per row, and as int coordinates none."""
        witness = is_wavelet_set.__wrapped__(random_wavelet_candidate(random.Random(400), 400)).tau_witness
        n = len(witness.coefs)
        assert n >= 300
        assert rule_calls == []
        rule_calls.clear()
        shuffled = random.Random(1).sample(witness.coefs, n)
        assert Piecewise.from_triples(shuffled).coefs == witness.coefs
        assert rule_calls == [(n, n, False)]
        rule_calls.clear()
        coords = [(lo, hi, int(shift * 2**20)) for lo, hi, shift in scaled(shuffled, 2**20)]
        got = over(2**20)(coords)
        assert (got.coefs, got.image) == (witness.coefs, witness.image)
        assert rule_calls == [(n, 0, False), (n, 0, False)]


def test_the_rule_matches_the_replaced_builds():
    """Against the two-path build and the sorted image union it replaced, on seeded
    triples in order and shuffled: the same rows and image, except that an overlap of one
    value, which the two-path build merged, is now rejected."""
    seen = Counter()
    for seed in SEEDS:
        rng = random.Random(seed)
        ordered = ordered_triples(rng)
        for triples in (ordered, rng.sample(ordered, len(ordered))):
            rows = exact._disjoint_rows(triples)
            try:
                want = two_path_rows(triples)
            except ValueError:
                assert rows is None
                seen["two-value overlap"] += 1
                continue
            if rows is None:
                assert overlapping([t for t in triples if t[0] < t[1]])
                seen["one-value overlap"] += 1
                continue
            assert rows == want, seed
            images = [(lo + tag, hi + tag) for lo, hi, tag in rows]
            union = sorted_disjoint_union(images)
            image = exact._disjoint_rows((lo, hi, None) for lo, hi in images)
            assert (image is None) is (union is None), seed
            if image is not None:
                assert tuple((lo, hi) for lo, hi, _ in image) == union.coefs, seed
            seen["injective" if image is not None else "not injective"] += 1
    assert min(seen[k] for k in ("two-value overlap", "one-value overlap", "injective", "not injective")) >= 10, seen


def test_a_sweep_keys_int_endpoints_by_themselves(sort_keys):
    """A `cover` of int coordinates takes no sort key and gives the runs of the same items
    as Fraction coefficients, in coordinates; one Fraction endpoint keys every endpoint.
    Each triple weighs 1 + its value."""
    seen = Counter()
    for seed in SEEDS:
        rng = random.Random(seed)
        triples = [(lo, hi, 1 + value) for lo, hi, value in ordered_triples(rng)]
        triples = rng.sample(triples, len(triples))
        sort_keys[0] = 0
        runs = exact.cover(scaled(triples))
        assert sort_keys[0] == 0, seed
        want = exact.cover(triples)
        assert sort_keys[0] == 2 * len(triples), seed
        assert runs == [(lo * 4, hi * 4, total) for lo, hi, total in want], seed
        if triples:
            sort_keys[0] = 0
            exact.cover(scaled(triples) + [(Fraction(-9), Fraction(-9), 1)])
            assert sort_keys[0] == 2 * len(triples) + 2, seed
        seen["overlap" if overlapping([t for t in triples if t[0] < t[1]]) else "disjoint"] += 1
    assert min(seen["overlap"], seen["disjoint"]) >= 10, seen


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
