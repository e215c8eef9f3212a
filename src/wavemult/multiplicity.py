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
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .exact import IntervalSet, PreconditionError, RationalPi
from .dimension import StepFunction, _require_grid_size, dimension_values

__all__ = [
    "SpectralProfile",
    "GramSchmidtState",
    "DimensionSum",
    "GridRecord",
    "AgreementReport",
    "msf_profile",
    "meyer_profile",
    "sampled_profile",
    "gram_schmidt",
    "dimension_sum",
    "verify_m_equals_d",
    "uniform_grid",
]

TWO_PI_F = 2.0 * math.pi


class SpectralProfile:
    """Pointwise-evaluatable frequency-domain amplitude with compact support.

    `evaluate_array` must be vectorized over a float array of frequencies and
    return complex amplitudes that vanish outside [-support_radius,
    support_radius].
    """

    def __init__(self, kind, evaluate_array, support_radius, msf_set=None):
        self.kind = kind
        self._evaluate = evaluate_array
        self.support_radius = float(support_radius)
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
    bell nu(t) = t**4 (35 - 84 t + 70 t**2 - 20 t**3) and phase exp(i xi / 2).
    """

    def ev(x: np.ndarray) -> np.ndarray:
        ax = np.abs(x)
        amp = np.zeros_like(ax)
        inner = (ax >= 2 * np.pi / 3) & (ax < 4 * np.pi / 3)
        outer = (ax >= 4 * np.pi / 3) & (ax <= 8 * np.pi / 3)
        amp[inner] = np.sin(np.pi / 2 * _bell(3 * ax[inner] / (2 * np.pi) - 1))
        amp[outer] = np.cos(np.pi / 2 * _bell(3 * ax[outer] / (4 * np.pi) - 1))
        return amp * np.exp(0.5j * x)

    return SpectralProfile("meyer", ev, 8 * math.pi / 3)


def sampled_profile(points: Sequence[float], values: Sequence[complex]) -> SpectralProfile:
    """Piecewise-linear interpolation of sampled amplitudes, 0 outside the span."""
    xs = np.asarray(points, dtype=float)
    vs = np.asarray(values, dtype=complex)
    if xs.ndim != 1 or xs.size < 2 or np.any(np.diff(xs) <= 0):
        raise ValueError("sample points must be strictly increasing, at least two")
    if vs.shape != xs.shape:
        raise ValueError("sample points and values must have matching shapes")

    def ev(x: np.ndarray) -> np.ndarray:
        re = np.interp(x, xs, vs.real, left=0.0, right=0.0)
        im = np.interp(x, xs, vs.imag, left=0.0, right=0.0)
        return re + 1j * im

    return SpectralProfile("sampled", ev, max(abs(xs[0]), abs(xs[-1])))


# Complex elements a block of grid points may hold in its fiber tensor
# (points, J, 2K+1) or its coefficients eta (points, J, J): 128 KB per array,
# which keeps a block's working set near 1 MB and admits J <= 90.
BLOCK_ELEMENTS = 1 << 13
MAX_LEVEL = 1023  # 2.0**1024 overflows a float


def _lattice_blocks(
    profile: SpectralProfile, xi: np.ndarray, j_max: int, k_max: int, tol: float = 1.0
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per block of consecutive base points, from one profile evaluation:
    the fibers 2**(j/2) * profile(2**j * (xi + 2*pi*k)), shape (points, J, 2K+1),
    the lattice sums of |profile|**2 over the same (j, k), added level by level,
    and whether every dropped (j, k) term provably vanishes."""
    per_point = j_max * max(j_max, 2 * k_max + 1)
    if not (1 <= j_max <= MAX_LEVEL and k_max >= 1 and 0 < tol < math.inf
            and per_point <= BLOCK_ELEMENTS):
        raise PreconditionError(
            f"need 1 <= J <= {MAX_LEVEL}, K >= 1, finite tol > 0 and J * max(J, 2K+1) <= {BLOCK_ELEMENTS}"
        )
    size = BLOCK_ELEMENTS // per_point
    # Every dropped |k| > k_max satisfies 2**j (2 pi |k| - pi) > support at every j >= 1.
    k_exact = 2.0 * (TWO_PI_F * (k_max + 1) - math.pi) > profile.support_radius
    shifts = TWO_PI_F * np.arange(-k_max, k_max + 1)
    dilations = np.array([2.0**level for level in range(1, j_max + 1)])[:, None]
    scales = np.array([2.0 ** (level / 2) for level in range(1, j_max + 1)])[:, None]
    for start in range(0, len(xi), size):
        x = xi[start : start + size]
        points = dilations * (x[:, None] + shifts)[:, None, :]
        values = profile.evaluate_array(points.ravel()).reshape(points.shape)
        sums = np.cumsum(np.sum(np.abs(values) ** 2, axis=2), axis=1)[:, -1]
        # Levels j > j_max vanish once 2**(j_max+1) * dist(x, 2*pi*Z) > support.
        nearest = np.abs(x - TWO_PI_F * np.round(x / TWO_PI_F))
        exact = k_exact & (2.0**j_max * 2.0 * nearest > profile.support_radius)
        yield scales * values, sums, exact


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise <a, b>, bit for bit as np.vdot on each pair of rows."""
    return (a.conj()[:, None, :] @ b[:, :, None])[:, 0, 0]


def _orthogonalize(fibers: np.ndarray, tol: float) -> tuple[np.ndarray, ...]:
    """Residuals g, weights h, coefficients eta and scales of a (points, J, 2K+1) stack.

    g_j = psi_j - sum_{k<j} <psi_j, u_k> u_k at all points at once; a direction
    counts at a point only if its weight h_k = 2*pi*||g_k||**2 is above that
    point's relative tolerance.  eta[:, j, k] = <psi_j, g_k> / ||g_k||**2 for the
    counted directions, so psi_j = g_j + sum_k eta[:, j, k] g_k."""
    count, levels, _ = fibers.shape
    max_scale = np.fmax(1.0, np.sum(np.abs(fibers) ** 2, axis=2).max(axis=1))
    threshold = tol * max_scale
    residuals = np.empty_like(fibers)
    h_values = np.zeros((count, levels))
    eta = np.zeros((count, levels, levels), dtype=complex)
    for j in range(levels):
        psi = g = fibers[:, j]
        for k in range(j):
            used = h_values[:, k] > threshold
            if used.any():
                gk = residuals[:, k]
                coeff = _dots(gk, psi) / np.where(used, h_values[:, k] / TWO_PI_F, 1.0)
                eta[:, j, k] = coeff = np.where(used, coeff, 0.0)
                g = np.where(used[:, None], g - coeff[:, None] * gk, g)
        residuals[:, j] = g
        h_values[:, j] = TWO_PI_F * _dots(g, g).real
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


class DimensionSum(NamedTuple):
    value: float
    truncation_exact: bool


def dimension_sum(profile: SpectralProfile, xi: float, j_max: int, k_max: int) -> DimensionSum:
    """Truncated lattice sum of |profile(2**j (xi + 2 pi k))|**2.

    `truncation_exact` reports whether the dropped (j, k) terms provably
    vanish for this compactly supported profile.
    """
    ((_, sums, exact),) = _lattice_blocks(profile, np.array([float(xi)]), j_max, k_max)
    return DimensionSum(sums[0].item(), bool(exact[0]))


@dataclass(frozen=True)
class GridRecord:
    xi: float
    xi_text: Optional[str]
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
    profile: SpectralProfile, grid: Iterable[GridPoint], j_max: int, k_max: int, tol: float = 1e-9,
    step: Optional[StepFunction] = None,
) -> AgreementReport:
    """Check rank == round(lattice sum) on a grid, and both == the exact count
    when the profile is an MSF indicator and the grid point is exact.

    Grid points should avoid 0 and, for MSF profiles, the breakpoints of the
    exact step function (use `dimension.midpoint_grid`).  The exact counts are
    read from `step` when given: the dimension function of the profile's set
    on a window holding every exact grid point, such as the one the grid was
    made from.  Otherwise `dimension.dimension_values` builds one.
    """
    points = list(grid)
    xs = np.array([float(p) for p in points])
    ranks, totals, truncation = [], [], []
    for fibers, sums, complete in _lattice_blocks(profile, xs, j_max, k_max, tol):
        _, h_values, _, max_scale = _orthogonalize(fibers, tol)
        ranks += np.sum(h_values > tol * max_scale[:, None], axis=1).tolist()
        totals += sums.tolist()
        truncation += complete.tolist()
    msf = profile.kind == "msf" and profile.msf_set is not None
    exact_points = [p for p in points if isinstance(p, RationalPi)]
    if not msf:
        counts = iter(())
    elif step is not None:
        counts = (step.value_at(p) for p in exact_points)
    else:
        counts = iter(dimension_values(profile.msf_set, exact_points))
    records = []
    for point, rank, total, truncation_exact in zip(points, ranks, totals, truncation):
        xi_text = exact = None
        if isinstance(point, RationalPi):
            xi_text, exact = point.pi_text(), next(counts, None)
        agree = rank == round(total) and (exact is None or rank == exact)
        records.append(GridRecord(float(point), xi_text, rank, total, exact, agree, truncation_exact))
    return AgreementReport(tuple(records))


def uniform_grid(window: IntervalSet, count: int) -> list[float]:
    """Midpoints of `count` equal cells spread over the window pieces (floats)."""
    _require_grid_size(count)
    per_piece = -(-count // len(window)) if window else 0
    points = []
    for iv in window:
        lo, hi = float(iv.lo), float(iv.hi)
        width = (hi - lo) / per_piece
        points.extend(lo + width * (i + 0.5) for i in range(per_piece))
    return points
