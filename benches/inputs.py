"""Seeded inputs for the benchmark, and the benchmark's own exact oracles.

Sets are lists of ``(lo, hi)`` pairs of `Fraction` coefficients of pi, one
per half-open piece, sorted and pairwise non-adjacent.  Everything here is
written independently of ``wavemult``: the oracles decide tilings by sorting
fragments and checking that they abut, and count dimension-function lattice
pairs directly, so a verdict of the library is never checked against itself.
"""

from __future__ import annotations

import random
import re
from bisect import bisect_right
from fractions import Fraction

Piece = tuple[Fraction, Fraction]

CATALOG: dict[str, list[Piece]] = {
    "shannon": [(Fraction(-2), Fraction(-1)), (Fraction(1), Fraction(2))],
    "journe": [
        (Fraction(-32, 7), Fraction(-4)),
        (Fraction(-1), Fraction(-4, 7)),
        (Fraction(4, 7), Fraction(1)),
        (Fraction(4), Fraction(32, 7)),
    ],
    "paper_w1": [(Fraction(-1, 4), Fraction(-1, 8)), (Fraction(15, 8), Fraction(15, 4))],
    "paper_w2": [(Fraction(-15, 4), Fraction(-15, 8)), (Fraction(1, 8), Fraction(1, 4))],
}

# Criterion 1 of the paper: the canonical map paper_w1 -> paper_w2.
PAPER_SIGMA = [
    (Fraction(-1, 4), Fraction(-1, 8), Fraction(-2)),
    (Fraction(15, 8), Fraction(17, 8), Fraction(-4)),
    (Fraction(17, 8), Fraction(9, 4), Fraction(-2)),
    (Fraction(9, 4), Fraction(15, 4), Fraction(-6)),
]
# Its square moves this piece by -9/4 pi, off the 2*pi*Z lattice.
PAPER_SQUARE_WITNESS = (Fraction(17, 8), Fraction(273, 128), Fraction(-9, 4))


# ---------------------------------------------------------------- generators


def translation_congruent_set(rng: random.Random, pieces: int) -> list[Piece]:
    """A set of exactly `pieces` pieces, 2*pi-translation congruent to [-pi, pi).

    Both Shannon halves are cut at seeded multiples of 2**-16 and every
    fragment moves by a seeded 2*pi*k, |k| <= 4, so the set has measure
    exactly 2*pi and tiles [-pi, pi) modulo 2*pi by construction; its dyadic
    dilation tiling is left to chance.  k = -1 on the positive half and k = +1 on the negative half
    are excluded, since they would put 0 in the closure.  Consecutive
    fragments of a half take different k, so no two fragments merge.
    """
    n_pos = pieces // 2
    while True:
        out: list[Piece] = []
        for base, n, banned in ((Fraction(1), n_pos, -1), (Fraction(-2), pieces - n_pos, 1)):
            cuts = sorted(rng.sample(range(1, 2**16), n - 1))
            ends = [base] + [base + Fraction(c, 2**16) for c in cuts] + [base + 1]
            prev = None
            for lo, hi in zip(ends, ends[1:]):
                k = rng.choice([k for k in range(-4, 5) if k not in (banned, prev)])
                out.append((lo + 2 * k, hi + 2 * k))
                prev = k
        out.sort()
        if all(a[1] < b[0] for a, b in zip(out, out[1:])):
            return out


def two_interval_wavelet_set(rng: random.Random) -> list[Piece]:
    """[-(4pi - 2b), -(2pi - b)) u [b, 2b) for a seeded b in (pi/2, 3pi/2).

    Each piece is a whole dyadic annulus, and modulo 2*pi the two pieces are
    the arcs [b, 2b) and [2b, b + 2pi), so every such set is a wavelet set.
    """
    c = Fraction(rng.randrange(513, 1536, 2), 1024)
    return [(-(4 - 2 * c), -(2 - c)), (c, 2 * c)]


def symmetric_window(depth: int) -> list[Piece]:
    """[-pi, -pi/2**depth) u [pi/2**depth, pi)."""
    edge = Fraction(1, 2**depth)
    return [(Fraction(-1), -edge), (edge, Fraction(1))]


def points_in(rng: random.Random, pieces: list[Piece], count: int) -> list[Fraction]:
    """`count` seeded exact points, each inside a seeded piece."""
    out = []
    for _ in range(count):
        lo, hi = rng.choice(pieces)
        out.append(lo + (hi - lo) * Fraction(rng.randrange(2**20), 2**20))
    return out


def pi_text(c: Fraction) -> str:
    """Token of the set grammar for c*pi, e.g. ``-15/8pi``."""
    return f"{c.numerator}pi" if c.denominator == 1 else f"{c.numerator}/{c.denominator}pi"


def set_text(pieces: list[Piece]) -> str:
    return ",".join(f"[{pi_text(lo)},{pi_text(hi)})" for lo, hi in pieces)


_SCALAR = re.compile(r"(-?)(\d*)(?:/(\d+))?\s*pi")
_PIECE = re.compile(r"\[([^,\]]+),([^)]+)\)")


def parse_scalar(text: str) -> Fraction:
    """Coefficient of ``15/8pi``, ``-pi`` or ``-9/4 pi`` (the CLI's shift form)."""
    m = _SCALAR.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"not a rational multiple of pi: {text!r}")
    sign, num, den = m.groups()
    c = Fraction(int(num or 1), int(den or 1))
    return -c if sign else c


def parse_pieces(text: str) -> list[Piece]:
    return [(parse_scalar(lo), parse_scalar(hi)) for lo, hi in _PIECE.findall(text)]


# ------------------------------------------------------------------- oracles


def floor_log2(q: Fraction) -> int:
    """Largest m with 2**m <= q, from bit lengths (q > 0)."""
    n, d = q.numerator, q.denominator
    m = n.bit_length() - d.bit_length()
    fits = n >= d << m if m >= 0 else n << -m >= d
    return m if fits else m - 1


def ceil_log2(q: Fraction) -> int:
    m = floor_log2(q)
    return m if Fraction(2) ** m == q else m + 1


def merged(pieces) -> list[Piece]:
    """Sorted union of (lo, hi) pairs with touching pieces joined."""
    out: list[list[Fraction]] = []
    for lo, hi in sorted(pieces):
        if out and lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [(lo, hi) for lo, hi in out]


def tiles(fragments, lo: Fraction, hi: Fraction) -> bool:
    """Do the fragments cover [lo, hi) exactly once?  Sort and check they abut."""
    at = lo
    for a, b in sorted(fragments):
        if a != at:
            return False
        at = b
    return at == hi


def translation_tiles(pieces: list[Piece]) -> bool:
    """2*pi*Z translates of the set tile [-pi, pi)."""
    frags = []
    for lo, hi in pieces:
        while lo < hi:
            k = (lo + 1) // 2  # lo lies in [2k - 1, 2k + 1)
            top = min(hi, Fraction(2 * k + 1))
            frags.append((lo - 2 * k, top - 2 * k))
            lo = top
    return tiles(frags, Fraction(-1), Fraction(1))


def dilation_tiles(pieces: list[Piece]) -> bool:
    """Dyadic dilates of the set tile both reference annuli [pi, 2pi) and [-2pi, -pi)."""
    pos, neg = [], []
    for lo, hi in pieces:
        while lo < hi:
            if lo > 0:
                m = floor_log2(lo)  # lo in [2**m, 2**(m+1))
                top = min(hi, Fraction(2) ** (m + 1))
                pos.append((lo / Fraction(2) ** m, top / Fraction(2) ** m))
            else:
                m = ceil_log2(-lo) - 1  # lo in [-2**(m+1), -2**m)
                top = min(hi, -(Fraction(2) ** m))
                neg.append((lo / Fraction(2) ** m, top / Fraction(2) ** m))
            lo = top
    return tiles(pos, Fraction(1), Fraction(2)) and tiles(neg, Fraction(-2), Fraction(-1))


def contains(pieces: list[Piece], x: Fraction) -> bool:
    i = bisect_right(pieces, (x, float("inf"))) - 1
    return i >= 0 and pieces[i][0] <= x < pieces[i][1]


def lattice_count(pieces: list[Piece], x: Fraction) -> int:
    """#{(j, k): j >= 1, 2**j * (x + 2k) in the set}, by direct enumeration (x != 0)."""
    radius = max(max(-lo, hi) for lo, hi in pieces)
    count = 0
    k = -((radius / 2 + x) // 2) - 1
    while x + 2 * k <= radius / 2:
        y = 2 * (x + 2 * k)
        while y != 0 and abs(y) <= radius:
            count += contains(pieces, y)
            y *= 2
        k += 1
    return count


def in_pieces(pieces: list[Piece], points) -> bool:
    return all(contains(pieces, p) for p in points)
