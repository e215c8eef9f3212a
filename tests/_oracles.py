"""Independent oracles for the tests, kept apart from the library code paths."""

from __future__ import annotations

import math
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


# ---------------------------------------------------------------------------
# Per-point numeric reference: the fiber, Gram-Schmidt and lattice-sum loops
# the batched fiber tensor replaced, one profile evaluation per (point, level).

TWO_PI_F = 2.0 * math.pi


def loop_fiber(profile, xi: float, level: int, k_max: int) -> tuple[np.ndarray, bool]:
    """Entries 2**(level/2) * profile(2**level * (xi + 2*pi*k)), k = -k_max..k_max,
    and whether every dropped |k| > k_max is outside the support."""
    ks = np.arange(-k_max, k_max + 1)
    points = (2.0**level) * (float(xi) + TWO_PI_F * ks)
    entries = (2.0 ** (level / 2)) * profile.evaluate_array(points)
    exact = (2.0**level) * (TWO_PI_F * (k_max + 1) - math.pi) > profile.support_radius
    return entries, exact


def loop_gram_schmidt(profile, xi: float, j_max: int, k_max: int, tol: float = 1e-9) -> dict:
    """Fibers, residuals, h, eta, max_scale, rank and truncation flag at one point."""
    vectors = []
    exact = True
    for level in range(1, j_max + 1):
        entries, level_exact = loop_fiber(profile, xi, level, k_max)
        vectors.append(entries)
        exact = exact and level_exact
    fibers = np.array(vectors)
    norms_sq = np.sum(np.abs(fibers) ** 2, axis=1)
    max_scale = max(1.0, float(norms_sq.max()))
    threshold = tol * max_scale
    residuals = np.zeros_like(fibers)
    h_values = np.zeros(j_max)
    eta = np.zeros((j_max, j_max), dtype=complex)
    for j in range(j_max):
        g = fibers[j].copy()
        for k in range(j):
            if h_values[k] > threshold:
                gk = residuals[k]
                coeff = np.vdot(gk, fibers[j]) / (h_values[k] / TWO_PI_F)
                eta[j, k] = coeff
                g = g - coeff * gk
        residuals[j] = g
        h_values[j] = TWO_PI_F * float(np.vdot(g, g).real)
    return {
        "fibers": fibers,
        "residuals": residuals,
        "h_values": h_values,
        "eta": eta,
        "max_scale": max_scale,
        "rank": int((h_values > threshold).sum()),
        "truncation_exact": exact,
    }


def loop_dimension_sum(profile, xi: float, j_max: int, k_max: int) -> tuple[float, bool]:
    """Level-by-level lattice sum of |profile(2**j (xi + 2 pi k))|**2 and its
    truncation flag."""
    xi = float(xi)
    ks = np.arange(-k_max, k_max + 1)
    total = 0.0
    for level in range(1, j_max + 1):
        values = profile.evaluate_array((2.0**level) * (xi + TWO_PI_F * ks))
        total += float(np.sum(np.abs(values) ** 2))
    support = profile.support_radius
    k_exact = 2.0 * (TWO_PI_F * (k_max + 1) - math.pi) > support
    nearest = abs(xi - TWO_PI_F * round(xi / TWO_PI_F))
    j_exact = (2.0 ** (j_max + 1)) * nearest > support
    return total, k_exact and j_exact


def principal_images(W: IntervalSet) -> list[Interval]:
    """Every piece of W cut at all odd multiples of pi inside it, each cut
    shifted by a multiple of 2*pi into [-pi, pi)."""
    images = []
    for iv in W:
        lo_c, hi_c = iv.lo.coef, iv.hi.coef
        odd = [Fraction(c) for c in range(math.ceil(lo_c), math.floor(hi_c) + 1) if c % 2]
        cuts = [lo_c] + [c for c in odd if lo_c < c < hi_c] + [hi_c]
        for lo, hi in zip(cuts, cuts[1:]):
            shift = 2 * math.floor((lo + 1) / 2)
            images.append(Interval(RationalPi(lo - shift), RationalPi(hi - shift)))
    return images
