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
from wavemult.dimension import dimension_at, midpoint_grid
from wavemult.exact import RationalPi
from wavemult.multiplicity import (
    dimension_sum,
    gram_schmidt,
    meyer_profile,
    msf_profile,
    sampled_profile,
    uniform_grid,
    verify_m_equals_d,
)
from wavemult.parsing import parse_set
from wavemult.wavelet_sets import CATALOG_NAMES, catalog

from _oracles import loop_dimension_sum, loop_gram_schmidt

WINDOW = parse_set("[-1pi,-1/64pi),[1/64pi,1pi)")
PROFILES = (*CATALOG_NAMES, "meyer", "sampled", "wide")
DEPTHS = ((12, 8), (10, 8), (8, 4))
STATE_FIELDS = ("fibers", "residuals", "h_values", "eta")


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
        return sampled_profile(xs, meyer_profile().evaluate_array(xs)), tuple(uniform_grid(WINDOW, 512))
    if name == "wide":
        rng = np.random.default_rng(7)
        xs = np.linspace(-200.0, 200.0, 2001)
        amplitudes = rng.normal(size=xs.size) + 1j * rng.normal(size=xs.size)
        return sampled_profile(xs, amplitudes), tuple(uniform_grid(WINDOW, 256))
    return msf_profile(catalog(name)), tuple(midpoint_grid(catalog(name), WINDOW, 512))


@lru_cache(maxsize=None)
def reference(name, j_max, k_max):
    """Per-point states and (xi, xi_text, rank, sum, exact, agree, truncation) rows."""
    profile, grid = profile_and_grid(name)
    states, rows = [], []
    for point in grid:
        xi = float(point)
        state = loop_gram_schmidt(profile, xi, j_max, k_max)
        total, truncation = loop_dimension_sum(profile, xi, j_max, k_max)
        exact = xi_text = None
        if isinstance(point, RationalPi):
            xi_text = point.pi_text()
            if profile.kind == "msf":
                exact = dimension_at(profile.msf_set, point)
        agree = state["rank"] == round(total) and (exact is None or state["rank"] == exact)
        states.append(state)
        rows.append((xi, xi_text, state["rank"], total, exact, agree, truncation))
    return states, rows


def record_rows(report):
    return [
        (r.xi, r.xi_text, r.rank, r.dim_sum, r.exact, r.agree, r.truncation_exact)
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
        for point, row in list(zip(grid, rows))[::16]:
            assert dimension_sum(profile, float(point), j_max, k_max) == (row[3], row[6])

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
