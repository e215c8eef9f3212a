"""Numerical multiplicity of general wavelets from frequency-domain fibers.

At a base point xi the translation fiber of the j-th dilate is the sequence
2**(j/2) * profile(2**j * (xi + 2*pi*k)) over k.  Orthogonalizing the fibers
recursively gives residuals g_j with weights h_j = 2*pi*||g_j||**2; the
multiplicity at xi is the number of h_j above a relative tolerance, and it
must match the plain squared lattice sum (the dimension-function value).
For MSF profiles both are cross-checked against the exact integer count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from . import _LAZY
from .exact import IntervalSet, PreconditionError, RationalPi, _require_count
from .dimension import MAX_GRID, dimension_values

# The package holds the list: its lazy `__getattr__` must know the names without numpy.
__all__ = list(_LAZY["multiplicity"])

TWO_PI_F = 2.0 * math.pi


class SpectralProfile:
    """Pointwise-evaluatable frequency-domain amplitude with compact support.

    `evaluate_array` must be vectorized over a float array of frequencies and
    return complex amplitudes that vanish outside [-support_radius,
    support_radius].  The fibers rely on it: they evaluate the profile only at
    the lattice points with |x| <= support_radius and take 0 everywhere else,
    so the radius must be finite and >= 0.
    """

    def __init__(self, kind, evaluate_array, support_radius, msf_set=None):
        radius = float(support_radius)
        if not 0.0 <= radius < math.inf:
            raise PreconditionError(f"support_radius must be finite and >= 0, got {radius!r}")
        self.kind = kind
        self._evaluate = evaluate_array
        self.support_radius = radius
        self.msf_set = msf_set

    def evaluate(self, xi: float) -> complex:
        return complex(self._evaluate(np.asarray([float(xi)]))[0])

    def evaluate_array(self, xi) -> np.ndarray:
        return np.asarray(self._evaluate(np.asarray(xi, dtype=float)), dtype=complex)

    def __repr__(self) -> str:
        return f"SpectralProfile(kind={self.kind!r}, support_radius={self.support_radius})"


def msf_profile(W: IntervalSet) -> SpectralProfile:
    """Indicator profile of a wavelet set: 1 on W, 0 off W."""
    bounds = np.array([float(e) for iv in W for e in (iv.lo, iv.hi)], dtype=float)

    def ev(x: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(bounds, x, side="right")
        return (idx % 2 == 1).astype(complex)

    support = float(W.max_abs()) if not W.is_empty else 0.0
    return SpectralProfile("msf", ev, support, msf_set=W)


def _bell(t: np.ndarray) -> np.ndarray:
    return t**4 * (35 - 84 * t + 70 * t**2 - 20 * t**3)


def meyer_profile() -> SpectralProfile:
    """Standard smooth profile supported on 2*pi/3 <= |xi| <= 8*pi/3.

    Modulus sin(pi/2 * nu(3|xi|/(2 pi) - 1)) on the inner band and
    cos(pi/2 * nu(3|xi|/(4 pi) - 1)) on the outer band, with the polynomial
    bell nu(t) = t**4 (35 - 84 t + 70 t**2 - 20 t**3) and phase exp(i xi / 2), taken
    only at the entries inside the bands; every other entry is 0."""

    def ev(x: np.ndarray) -> np.ndarray:
        ax = np.abs(x)
        values = np.zeros(x.shape, dtype=complex)
        inner = np.flatnonzero((ax >= 2 * np.pi / 3) & (ax < 4 * np.pi / 3))
        outer = np.flatnonzero((ax >= 4 * np.pi / 3) & (ax <= 8 * np.pi / 3))
        values[inner] = np.sin(np.pi / 2 * _bell(3 * ax[inner] / (2 * np.pi) - 1)) * np.exp(0.5j * x[inner])
        values[outer] = np.cos(np.pi / 2 * _bell(3 * ax[outer] / (4 * np.pi) - 1)) * np.exp(0.5j * x[outer])
        return values

    return SpectralProfile("meyer", ev, 8 * math.pi / 3)


# Complex elements a block of grid points may hold in its fiber tensor
# (points, J, 2K+1) or its coefficients eta (points, J, J): 128 KB per array,
# which keeps a block's working set near 1 MB and admits J <= 90, the one
# limit on J (so 2.0**J stays a finite float).
BLOCK_ELEMENTS = 1 << 13


def _lattice_blocks(
    profile: SpectralProfile, xi: np.ndarray, j_max: int, k_max: int, tol: float
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per block of consecutive base points, from one profile evaluation:
    the fibers 2**(j/2) * profile(2**j * (xi + 2*pi*k)), shape (points, J, 2K+1),
    the lattice sums of |profile|**2 over the same (j, k), added level by level,
    and whether every dropped (j, k) term provably vanishes.  The profile is
    evaluated only at the lattice points with |2**j (xi + 2*pi*k)| <= support_radius
    (the endpoints included: MSF pieces are closed at their negative end); every
    other entry is 0, as the profile's contract says it would read.

    Before any block: J >= 1, K >= 1 and a finite tol > 0, with one point's fiber
    tensor and eta within `BLOCK_ELEMENTS`, the one limit on J (J <= 90); then every
    grid point finite."""
    per_point = j_max * max(j_max, 2 * k_max + 1)
    if not (j_max >= 1 and k_max >= 1 and 0 < tol < math.inf and per_point <= BLOCK_ELEMENTS):
        raise PreconditionError(f"need J >= 1, K >= 1, finite tol > 0 and J * max(J, 2K+1) <= {BLOCK_ELEMENTS}")
    not_finite = xi[~np.isfinite(xi)]
    if not_finite.size:
        raise PreconditionError(f"grid point {not_finite[0].item()!r} is not finite")
    size = BLOCK_ELEMENTS // per_point
    shifts = TWO_PI_F * np.arange(-k_max, k_max + 1)
    dilations = np.array([2.0**level for level in range(1, j_max + 1)])[:, None]
    scales = np.array([2.0 ** (level / 2) for level in range(1, j_max + 1)])[:, None]
    for start in range(0, len(xi), size):
        x = xi[start : start + size]
        points = dilations * (x[:, None] + shifts)[:, None, :]
        inside = np.abs(points) <= profile.support_radius
        values = np.zeros(points.shape, dtype=complex)
        values[inside] = profile.evaluate_array(points[inside])
        sums = np.cumsum(np.sum(np.abs(values) ** 2, axis=2), axis=1)[:, -1]
        # Dropped |k| > k_max lie at 2**j |x + 2 pi k| >= 2 (2 pi (k_max+1) - max(pi, |x|)), and
        # levels j > j_max at >= 2**(j_max+1) dist(x, 2*pi*Z): exact when both pass the support.
        reach = np.fmax(math.pi, np.abs(x))
        nearest = np.abs(x - TWO_PI_F * np.round(x / TWO_PI_F))
        exact = ((2.0 * (TWO_PI_F * (k_max + 1) - reach) > profile.support_radius)
                 & (2.0**j_max * 2.0 * nearest > profile.support_radius))
        yield scales * values, sums, exact


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise <a, b>, bit for bit as np.vdot on each pair of rows."""
    return (a.conj()[:, None, :] @ b[:, :, None])[:, 0, 0]


def _orthogonalize(fibers: np.ndarray, tol: float) -> tuple[np.ndarray, ...]:
    """Residuals g, weights h, coefficients eta and scales of a (points, J, 2K+1) stack.

    g_j = psi_j - sum_{k<j} <psi_j, u_k> u_k; a direction counts at a point only if its
    weight h_k = 2*pi*||g_k||**2 is above that point's relative tolerance, and then
    eta[:, j, k] = <psi_j, g_k> / ||g_k||**2, so psi_j = g_j + sum_k eta[:, j, k] g_k.
    The fibers psi, not the running g, enter each dot, so one step per level k takes
    all later coefficients in one stacked product and subtracts g_k from every later
    residual, each residual losing g_0, g_1, ... in turn.

    The steps run only over the live levels, from the first level with a non-zero
    fiber at some point of the block to the last: a level with no such fiber has
    g = 0 and h = 0, and adds a coefficient of 0 to every other level, so the outputs
    are bit for bit those of all J steps."""
    count, levels, _ = fibers.shape
    max_scale = np.fmax(1.0, np.sum(np.abs(fibers) ** 2, axis=2).max(axis=1))
    threshold = tol * max_scale
    residuals = fibers.copy()
    h_values = np.zeros((count, levels))
    eta = np.zeros((count, levels, levels), dtype=complex)
    live = np.flatnonzero(fibers.any(axis=(0, 2)))
    if not live.size:
        return residuals, h_values, eta, max_scale
    top = live[-1] + 1
    for k in range(live[0], top):
        gk = residuals[:, k]
        h_values[:, k] = TWO_PI_F * _dots(gk, gk).real
        used = h_values[:, k] > threshold
        if k + 1 < top and used.any():
            dots = (gk.conj()[:, None, None, :] @ fibers[:, k + 1 : top, :, None])[:, :, 0, 0]
            coeff = dots / np.where(used, h_values[:, k] / TWO_PI_F, 1.0)[:, None]
            eta[:, k + 1 : top, k] = coeff = np.where(used[:, None], coeff, 0.0)
            later = residuals[:, k + 1 : top]
            later[...] = np.where(used[:, None, None], later - coeff[:, :, None] * gk[:, None, :], later)
    return residuals, h_values, eta, max_scale


@dataclass(frozen=True, eq=False)
class GramSchmidtState:
    """Residual fibers, their weights h_j, and the projection coefficients."""

    xi: float
    tol: float
    fibers: np.ndarray
    residuals: np.ndarray
    h_values: np.ndarray
    eta: np.ndarray
    max_scale: float
    truncation_exact: bool

    @property
    def threshold(self) -> float:
        return self.tol * self.max_scale

    @property
    def usable(self) -> np.ndarray:
        """Residuals counted as genuinely nonzero at the working tolerance."""
        return self.h_values > self.threshold

    @property
    def rank(self) -> int:
        return int(self.usable.sum())


def gram_schmidt(
    profile: SpectralProfile, xi: float, j_max: int, k_max: int, tol: float = 1e-9
) -> GramSchmidtState:
    """Orthogonalize the fibers at xi for levels 1..j_max and |k| <= k_max:
    the one-point case of the batched recurrence."""
    xs = np.array([float(xi)])
    ((fibers, _, exact),) = _lattice_blocks(profile, xs, j_max, k_max, tol)
    residuals, h_values, eta, max_scale = _orthogonalize(fibers, tol)
    return GramSchmidtState(
        xs[0].item(), tol, fibers[0], residuals[0], h_values[0], eta[0], max_scale[0].item(),
        bool(exact[0]),
    )


@dataclass(frozen=True)
class GridRecord:
    xi: float
    xi_pi: Optional[RationalPi]  # the exact grid point, when the grid gave one
    rank: int
    dim_sum: float
    exact: Optional[int]
    agree: bool
    truncation_exact: bool


@dataclass(frozen=True)
class AgreementReport:
    """Per-point comparison of rank, lattice sum, and exact count when available."""

    records: tuple[GridRecord, ...]

    @property
    def all_agree(self) -> bool:
        return all(r.agree for r in self.records)

    @property
    def disagreements(self) -> tuple[GridRecord, ...]:
        return tuple(r for r in self.records if not r.agree)


GridPoint = Union[float, RationalPi]


def verify_m_equals_d(
    profile: SpectralProfile, grid: Iterable[GridPoint], j_max: int, k_max: int, tol: float = 1e-9
) -> AgreementReport:
    """Check rank == round(lattice sum) on a grid, and both == the exact count
    when the profile is an MSF indicator and the grid point is exact.

    Grid points should avoid 0 and, for MSF profiles, the breakpoints of the
    exact step function (use `dimension.midpoint_grid`).  The exact counts
    come from one `dimension.dimension_values` call, made before any block is
    built, so an exact point outside [-pi, pi) or at 0 (or an MSF profile's set
    that is not a wavelet set) raises before the numeric work.
    """
    points = list(grid)
    msf = profile.kind == "msf" and profile.msf_set is not None
    exact_points = [p for p in points if isinstance(p, RationalPi)]
    counts = iter(dimension_values(profile.msf_set, exact_points) if msf else ())
    xs = np.array([float(p) for p in points])
    ranks, totals, truncation = [], [], []
    for fibers, sums, complete in _lattice_blocks(profile, xs, j_max, k_max, tol):
        _, h_values, _, max_scale = _orthogonalize(fibers, tol)
        ranks += np.sum(h_values > tol * max_scale[:, None], axis=1).tolist()
        totals += sums.tolist()
        truncation += complete.tolist()
    records = []
    for point, xi, rank, total, truncation_exact in zip(points, xs.tolist(), ranks, totals, truncation):
        xi_pi = exact = None
        if isinstance(point, RationalPi):
            xi_pi, exact = point, next(counts, None)
        agree = rank == round(total) and (exact is None or rank == exact)
        records.append(GridRecord(xi, xi_pi, rank, total, exact, agree, truncation_exact))
    return AgreementReport(tuple(records))


def uniform_grid(window: IntervalSet, count: int) -> list[float]:
    """Midpoints of ceil(count / pieces) equal cells in each window piece (floats)."""
    count = _require_count("grid size", count, MAX_GRID)
    per_piece = -(-count // len(window)) if window else 0
    points = []
    for iv in window:
        lo, hi = float(iv.lo), float(iv.hi)
        width = (hi - lo) / per_piece
        points.extend(lo + width * (i + 0.5) for i in range(per_piece))
    return points
