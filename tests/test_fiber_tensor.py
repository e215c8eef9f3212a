"""The batched fiber tensor against the per-point loops it replaced.

Every field is compared with np.array_equal or ==, so the batched path must
reproduce the reference bit for bit, on the grids the tests, the CLI and the
numeric benchmark use.
"""

import math
from functools import lru_cache

import numpy as np
import pytest

import wavemult.multiplicity as multiplicity
from wavemult.dimension import midpoint_grid
from wavemult.exact import RationalPi
from wavemult.multiplicity import (
    SpectralProfile,
    gram_schmidt,
    meyer_profile,
    msf_profile,
    uniform_grid,
    verify_m_equals_d,
)
from wavemult.parsing import parse_set
from wavemult.wavelet_sets import CATALOG_NAMES, catalog

from _oracles import (
    brute_dimension_count,
    full_band_meyer,
    loop_dimension_sum,
    loop_gram_schmidt,
    pairwise_orthogonalize,
)

WINDOW = parse_set("[-1pi,-1/64pi),[1/64pi,1pi)")
PROFILES = (*CATALOG_NAMES, "meyer", "sampled", "wide")
DEPTHS = ((12, 8), (10, 8), (8, 4))
STATE_FIELDS = ("fibers", "residuals", "h_values", "eta")


def sampled(xs, values):
    """The piecewise-linear interpolation of `values` at the increasing `xs`, 0 outside them."""
    def ev(x):
        return (np.interp(x, xs, values.real, left=0.0, right=0.0)
                + 1j * np.interp(x, xs, values.imag, left=0.0, right=0.0))

    return SpectralProfile("sampled", ev, max(abs(xs[0]), abs(xs[-1])))


@lru_cache(maxsize=None)
def profile_and_grid(name):
    """The profile and its grid: 512 midpoints for MSF sets, 1024 (Meyer) or
    512 (sampled Meyer) uniform points otherwise.  "wide" samples seeded random
    amplitudes on [-200, 200], so that most lattice terms are nonzero and the
    order of every sum shows in its last bits."""
    if name == "meyer":
        return meyer_profile(), tuple(uniform_grid(WINDOW, 1024))
    if name == "sampled":
        xs = np.linspace(-3 * math.pi, 3 * math.pi, 4001)
        return sampled(xs, meyer_profile().evaluate_array(xs)), tuple(uniform_grid(WINDOW, 512))
    if name == "wide":
        rng = np.random.default_rng(7)
        xs = np.linspace(-200.0, 200.0, 2001)
        amplitudes = rng.normal(size=xs.size) + 1j * rng.normal(size=xs.size)
        return sampled(xs, amplitudes), tuple(uniform_grid(WINDOW, 256))
    return msf_profile(catalog(name)), tuple(midpoint_grid(catalog(name), WINDOW, 512))


@lru_cache(maxsize=None)
def exact_counts(name):
    """The lattice count at each exact grid point of an MSF profile, else None."""
    profile, grid = profile_and_grid(name)
    if profile.kind != "msf":
        return (None,) * len(grid)
    return tuple(brute_dimension_count(profile.msf_set, point) for point in grid)


@lru_cache(maxsize=None)
def reference(name, j_max, k_max):
    """Per-point states and (xi, xi_pi, rank, sum, exact, agree, truncation) rows."""
    profile, grid = profile_and_grid(name)
    states, rows = [], []
    for point, exact in zip(grid, exact_counts(name)):
        xi = float(point)
        state = loop_gram_schmidt(profile, xi, j_max, k_max)
        total, truncation = loop_dimension_sum(profile, xi, j_max, k_max)
        xi_pi = point if isinstance(point, RationalPi) else None
        agree = state["rank"] == round(total) and (exact is None or state["rank"] == exact)
        states.append(state)
        rows.append((xi, xi_pi, state["rank"], total, exact, agree, truncation))
    return states, rows


def record_rows(report):
    return [
        (r.xi, r.xi_pi, r.rank, r.dim_sum, r.exact, r.agree, r.truncation_exact)
        for r in report.records
    ]


def assert_rows_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        # The sums compare as floats; a nan sum would need its own rule.
        assert g == w and all(type(a) is type(b) for a, b in zip(g, w)), (g, w)


@pytest.mark.parametrize("j_max, k_max", DEPTHS)
@pytest.mark.parametrize("name", PROFILES)
class TestAgainstPerPointLoops:
    def test_batched_states(self, name, j_max, k_max):
        profile, grid = profile_and_grid(name)
        states, _ = reference(name, j_max, k_max)
        xi = np.array([float(p) for p in grid])
        blocks = multiplicity._lattice_blocks(profile, xi, j_max, k_max, 1e-9)
        fibers = np.concatenate([block_fibers for block_fibers, _, _ in blocks])
        residuals, h_values, eta, max_scale = multiplicity._orthogonalize(fibers, 1e-9)
        got = dict(zip(STATE_FIELDS, (fibers, residuals, h_values, eta)))
        for field in STATE_FIELDS:
            want = np.array([s[field] for s in states])
            assert np.array_equal(got[field], want), field
        assert max_scale.tolist() == [s["max_scale"] for s in states]

    def test_gram_schmidt_states(self, name, j_max, k_max):
        profile, grid = profile_and_grid(name)
        states, _ = reference(name, j_max, k_max)
        for point, want in list(zip(grid, states))[::16]:
            state = gram_schmidt(profile, float(point), j_max, k_max)
            for field in STATE_FIELDS:
                assert np.array_equal(getattr(state, field), want[field]), (field, point)
            assert state.max_scale == want["max_scale"]
            assert state.rank == want["rank"]
            assert state.truncation_exact is want["truncation_exact"]

    def test_dimension_sums(self, name, j_max, k_max):
        profile, grid = profile_and_grid(name)
        _, rows = reference(name, j_max, k_max)
        xi = np.array([float(p) for p in grid])
        blocks = multiplicity._lattice_blocks(profile, xi, j_max, k_max, 1e-9)
        _, sums, complete = (np.concatenate(field) for field in zip(*blocks))
        assert list(zip(sums.tolist(), complete.tolist())) == [(row[3], row[6]) for row in rows]

    def test_records(self, name, j_max, k_max):
        profile, grid = profile_and_grid(name)
        _, rows = reference(name, j_max, k_max)
        assert_rows_equal(record_rows(verify_m_equals_d(profile, grid, j_max, k_max)), rows)


@pytest.mark.parametrize("name", ["journe", "meyer"])
def test_small_blocks_match_one_block(monkeypatch, name):
    profile, grid = profile_and_grid(name)
    monkeypatch.setattr(multiplicity, "BLOCK_ELEMENTS", 12 * 17 * len(grid))
    whole = record_rows(verify_m_equals_d(profile, grid, 12, 8))
    # 12 * 17 elements per point: blocks of 3 points, the last one short.
    monkeypatch.setattr(multiplicity, "BLOCK_ELEMENTS", 12 * 17 * 3)
    assert_rows_equal(record_rows(verify_m_equals_d(profile, grid, 12, 8)), whole)


def test_one_point_must_fit_the_block(monkeypatch):
    monkeypatch.setattr(multiplicity, "BLOCK_ELEMENTS", 12 * 17 - 1)
    with pytest.raises(multiplicity.PreconditionError):
        gram_schmidt(meyer_profile(), 1.0, 12, 8)


# The deepest levels a block admits at K = 8, where the per-pair recurrence cost most.
DEEP_DEPTHS = ((48, 8), (90, 8))


def thinned(name):
    """About 8 points of the profile's grid, evenly spaced."""
    profile, grid = profile_and_grid(name)
    return profile, grid[:: len(grid) // 8]


@pytest.mark.parametrize("j_max, k_max", DEEP_DEPTHS)
@pytest.mark.parametrize("name", PROFILES)
def test_deep_levels_match_per_point_loops(name, j_max, k_max):
    profile, grid = thinned(name)
    xi = np.array([float(p) for p in grid])
    blocks = list(multiplicity._lattice_blocks(profile, xi, j_max, k_max, 1e-9))
    fibers, sums, complete = (np.concatenate(field) for field in zip(*blocks))
    outputs = dict(zip(STATE_FIELDS, (fibers, *multiplicity._orthogonalize(fibers, 1e-9)[:3])))
    rows = []
    for i, point in enumerate(grid):
        want = loop_gram_schmidt(profile, xi[i], j_max, k_max)
        state = gram_schmidt(profile, xi[i], j_max, k_max)
        for field in STATE_FIELDS:
            assert np.array_equal(outputs[field][i], want[field]), (field, point)
            assert np.array_equal(getattr(state, field), want[field]), (field, point)
        assert (state.max_scale, state.rank) == (want["max_scale"], want["rank"])
        total, truncation = loop_dimension_sum(profile, xi[i], j_max, k_max)
        assert (sums[i].item(), bool(complete[i])) == (total, truncation)
        exact = brute_dimension_count(profile.msf_set, point) if profile.kind == "msf" else None
        agree = want["rank"] == round(total) and (exact is None or want["rank"] == exact)
        xi_pi = point if isinstance(point, RationalPi) else None
        rows.append((xi[i].item(), xi_pi, want["rank"], total, exact, agree, truncation))
    assert_rows_equal(record_rows(verify_m_equals_d(profile, grid, j_max, k_max)), rows)


@pytest.mark.parametrize("j_max, k_max", DEPTHS + DEEP_DEPTHS)
@pytest.mark.parametrize("name", PROFILES)
def test_recurrence_matches_the_pairwise_one_on_every_block(name, j_max, k_max):
    """All four outputs, bit for bit, block by block as verify_m_equals_d forms them."""
    profile, grid = thinned(name) if (j_max, k_max) in DEEP_DEPTHS else profile_and_grid(name)
    xi = np.array([float(p) for p in grid])
    for fibers, _, _ in multiplicity._lattice_blocks(profile, xi, j_max, k_max, 1e-9):
        got = multiplicity._orthogonalize(fibers, 1e-9)
        for field, a, b in zip(("residuals", "h_values", "eta", "max_scale"), got,
                               pairwise_orthogonalize(fibers, 1e-9)):
            assert np.array_equal(a, b), field


def meyer_lattice_points(j_max, k_max, grid):
    """Every lattice point 2**j (xi + 2 pi k) the fibers of the grid evaluate."""
    xi = np.array([float(p) for p in grid])
    shifts = 2.0 * math.pi * np.arange(-k_max, k_max + 1)
    dilations = np.array([2.0**level for level in range(1, j_max + 1)])[:, None]
    return (dilations * (xi[:, None] + shifts)[:, None, :]).ravel()


def test_meyer_on_its_band_edges():
    edges = np.array([sign * c * math.pi / 3 for sign in (1, -1) for c in (2, 4, 8)])
    x = np.concatenate([edges, np.nextafter(edges, math.inf), np.nextafter(edges, -math.inf)])
    got = meyer_profile().evaluate_array(x)
    assert np.array_equal(got, full_band_meyer(x))
    outside = (np.abs(x) < 2 * np.pi / 3) | (np.abs(x) > 8 * np.pi / 3)
    assert np.count_nonzero(outside) == 4 and np.all(got[outside] == 0)
    assert np.all(got[np.abs(x) == 8 * np.pi / 3] != 0)  # the outer band is closed


@pytest.mark.parametrize("j_max, k_max", DEPTHS + DEEP_DEPTHS)
def test_meyer_on_the_sweep_lattice(j_max, k_max):
    _, grid = profile_and_grid("meyer")
    x = meyer_lattice_points(j_max, k_max, grid[:: 8 if j_max > 12 else 1])
    assert np.array_equal(meyer_profile().evaluate_array(x), full_band_meyer(x))


# The live levels (1-based) of a hand-built block at J = 12: none, one, a first live level
# above 1, live levels with dead ones between them, and all J.
LIVE_LEVELS = {
    "none": (),
    "one": (5,),
    "first_above_1": tuple(range(4, 13)),
    "gaps": (2, 5, 6, 10),
    "all": tuple(range(1, 13)),
}
BLOCK_XI = np.linspace(0.3, 2.9, 7)


def lattice_lookup(live):
    """A profile reading seeded amplitudes at the lattice points 2**j (xi + 2 pi k) of
    BLOCK_XI on the `live` levels, and 0 everywhere else.  Odd points drop one live level
    each, and at point 2 the last live level is a multiple of the first, so that a live
    level can also fail the tolerance."""
    rng = np.random.default_rng(len(live) + 32)
    shifts = 2.0 * math.pi * np.arange(-8, 9)
    lookup = {}
    for i, x in enumerate(BLOCK_XI):
        dropped = live[i % len(live)] if live and i % 2 else None
        for level in live:
            if level == dropped:
                continue
            values = rng.normal(size=shifts.size) + 1j * rng.normal(size=shifts.size)
            if level == live[0]:
                first = values
            elif i == 2 and level == live[-1]:
                values = first * 2.0 ** ((live[0] - level) / 2) * (0.5 - 0.25j)
            lookup.update(zip((2.0**level * (x + shifts)).tolist(), values.tolist()))

    def ev(x):
        return np.array([lookup.get(point, 0j) for point in x.tolist()], dtype=complex)

    return SpectralProfile("lookup", ev, max(map(abs, lookup), default=0.0))


@pytest.mark.parametrize("case", list(LIVE_LEVELS))
def test_bounded_recurrence_on_hand_built_blocks(case):
    """Only the levels from the first live one to the last take recurrence steps; every
    output is bit for bit the per-pair recurrence's and the per-point loop's."""
    live = LIVE_LEVELS[case]
    profile = lattice_lookup(live)
    ((fibers, _, _),) = multiplicity._lattice_blocks(profile, BLOCK_XI, 12, 8, 1e-9)
    assert np.flatnonzero(fibers.any(axis=(0, 2))).tolist() == [level - 1 for level in live]
    got = multiplicity._orthogonalize(fibers, 1e-9)
    for field, a, b in zip(("residuals", "h_values", "eta", "max_scale"), got,
                           pairwise_orthogonalize(fibers, 1e-9)):
        assert np.array_equal(a, b), field
    outputs = dict(zip(STATE_FIELDS, (fibers, *got[:3])))
    for i, xi in enumerate(BLOCK_XI.tolist()):
        want = loop_gram_schmidt(profile, xi, 12, 8)
        state = gram_schmidt(profile, xi, 12, 8)
        for field in STATE_FIELDS:
            assert np.array_equal(outputs[field][i], want[field]), (field, i)
            assert np.array_equal(getattr(state, field), want[field]), (field, i)
        assert (state.max_scale, state.rank) == (want["max_scale"], want["rank"])
        dropped, dependent = bool(live) and i % 2 == 1, i == 2 and len(live) > 1
        assert want["rank"] == len(live) - dropped - dependent


@pytest.mark.parametrize("name", PROFILES)
def test_profile_vanishes_past_its_radius(name):
    """The fibers evaluate only |x| <= support_radius: every in-repo profile reads 0 just
    past it and on a seeded log-uniform sweep out to the deepest lattice point of J = 90."""
    profile, _ = profile_and_grid(name)
    radius = profile.support_radius
    rng = np.random.default_rng(321)
    beyond = np.exp(rng.uniform(math.log(radius), math.log(2.0**91 * 20 * math.pi), 4000))
    beyond = beyond[beyond > radius]
    x = np.concatenate([[np.nextafter(radius, math.inf), np.nextafter(-radius, -math.inf)],
                        beyond, -beyond])
    assert beyond.size > 3900
    assert not profile.evaluate_array(x).any()
