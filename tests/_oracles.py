"""Independent oracles for the tests, kept apart from the library code paths."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

import numpy as np

from wavemult.dimension import StepFunction
from wavemult.exact import Interval, IntervalSet, RationalPi, TWO_PI


def brute_dimension_count(W: IntervalSet, xi: RationalPi, j_cap: int = 16, k_cap: int = 8) -> int:
    """Direct double-loop lattice count with fixed generous caps.

    The caps dominate every case exercised here: catalog sets have
    max |endpoint| <= 32*pi/7 < 2**3 * pi, and probes keep |xi| >= pi/2**11,
    so contributing j never exceed 15 and |k| never exceeds 2.
    """
    count = 0
    for k in range(-k_cap, k_cap + 1):
        base = xi + TWO_PI * k
        if base.is_zero:
            continue
        for j in range(1, j_cap + 1):
            if W.contains(base.times_pow2(j)):
                count += 1
    return count


def pivoted_gram_rank(vectors: np.ndarray, tol: float) -> int:
    """Rank of a vector family via complete-pivoting elimination on its Gram matrix."""
    vs = np.asarray(vectors, dtype=complex)
    n = vs.shape[0]
    G = np.array([[np.vdot(w, v) for w in vs] for v in vs], dtype=complex)
    scale = max(1.0, float(np.max(G.diagonal().real)) if n else 1.0)
    active = list(range(n))
    rank = 0
    for _ in range(n):
        d, p = max((float(G[i, i].real), i) for i in active)
        if d <= tol * scale:
            break
        rank += 1
        active.remove(p)
        col = G[:, p].copy()
        for i in active:
            for j in active:
                G[i, j] -= col[i] * np.conj(col[j]) / d
    return rank


def random_rational_pi(rng: random.Random, lo: int = -8, hi: int = 8, max_den: int = 64) -> RationalPi:
    den = rng.randint(1, max_den)
    num = rng.randint(lo * den, hi * den)
    return RationalPi(Fraction(num, den))


def random_point_in(rng: random.Random, S: IntervalSet, max_den: int = 512) -> RationalPi:
    """An exact point strictly inside a randomly chosen piece of S."""
    piece = rng.choice(S.pieces)
    den = rng.randint(2, max_den)
    num = rng.randint(0, den - 1)
    return piece.lo + piece.length * Fraction(num, den)


def random_interval_set(rng: random.Random, max_pieces: int = 5) -> IntervalSet:
    ivs = []
    for _ in range(rng.randint(0, max_pieces)):
        a = random_rational_pi(rng)
        b = random_rational_pi(rng)
        if a == b:
            continue
        ivs.append(Interval(min(a, b), max(a, b)))
    return IntervalSet.from_intervals(ivs)


# ---------------------------------------------------------------------------
# Reference implementations the library replaced with faster code.  Each
# recounts coverage at the midpoint of every cell cut by all endpoints
# (O(cells x intervals)), or halves a rational one step at a time.


def loop_floor_log2(q: Fraction) -> int:
    """Largest m with 2**m <= q, by repeated halving or doubling (q > 0)."""
    m = 0
    while q < 1:
        q *= 2
        m -= 1
    while q >= 2:
        q /= 2
        m += 1
    return m


def loop_ceil_log2(q: Fraction) -> int:
    m = loop_floor_log2(q)
    return m if Fraction(2) ** m == q else m + 1


def _cells(coefs) -> list[tuple[Fraction, Fraction, RationalPi]]:
    """(lo, hi, midpoint) of the cells between consecutive distinct coefficients."""
    points = sorted(set(coefs))
    return [(lo, hi, RationalPi((lo + hi) / 2)) for lo, hi in zip(points, points[1:])]


def _set_of(cells) -> IntervalSet:
    return IntervalSet.from_intervals(Interval(RationalPi(lo), RationalPi(hi)) for lo, hi in cells)


def midpoint_tiling_failure(fragments: Sequence[Interval], target: IntervalSet) -> IntervalSet:
    """Where the fragments fail to tile the target: covered other than once inside it, or
    covered at all outside it."""
    coefs = [e.coef for iv in list(fragments) + list(target) for e in (iv.lo, iv.hi)]
    return _set_of(
        (lo, hi)
        for lo, hi, mid in _cells(coefs)
        if sum(1 for iv in fragments if iv.contains(mid)) != (1 if target.contains(mid) else 0)
    )


def midpoint_step_from_covers(window: IntervalSet, covers: Sequence[IntervalSet]) -> StepFunction:
    """Sum of the indicator functions of `covers`, as a step function on `window`."""
    cut_coefs = {e.coef for s in covers for iv in s for e in (iv.lo, iv.hi)}
    grouped: dict[int, list[Interval]] = {}
    for piece in window:
        cuts = [piece.lo.coef]
        cuts += sorted(c for c in cut_coefs if piece.lo.coef < c < piece.hi.coef)
        cuts.append(piece.hi.coef)
        for lo_c, hi_c in zip(cuts, cuts[1:]):
            mid = RationalPi((lo_c + hi_c) / 2)
            value = sum(1 for s in covers if s.contains(mid))
            grouped.setdefault(value, []).append(Interval(RationalPi(lo_c), RationalPi(hi_c)))
    return StepFunction(
        window, tuple((IntervalSet.from_intervals(ivs), v) for v, ivs in grouped.items())
    )


def midpoint_differing_regions(fa: StepFunction, fb: StepFunction, query: IntervalSet) -> IntervalSet:
    """Subregion of the query where two step functions on it differ."""
    cut_coefs = {e.coef for f in (fa, fb) for iv, _ in f.rows() for e in (iv.lo, iv.hi)}
    out = []
    for piece in query:
        cuts = [piece.lo.coef]
        cuts += sorted(c for c in cut_coefs if piece.lo.coef < c < piece.hi.coef)
        cuts.append(piece.hi.coef)
        for lo_c, hi_c in zip(cuts, cuts[1:]):
            mid = RationalPi((lo_c + hi_c) / 2)
            if fa.value_at(mid) != fb.value_at(mid):
                out.append((lo_c, hi_c))
    return _set_of(out)


def midpoint_set_algebra(A: IntervalSet, B: IntervalSet) -> tuple[IntervalSet, IntervalSet]:
    """(A & B, A - B) by membership at the midpoint of every cell."""
    cells = _cells(e.coef for iv in list(A) + list(B) for e in (iv.lo, iv.hi))
    both = _set_of((lo, hi) for lo, hi, mid in cells if A.contains(mid) and B.contains(mid))
    only_a = _set_of((lo, hi) for lo, hi, mid in cells if A.contains(mid) and not B.contains(mid))
    return both, only_a
