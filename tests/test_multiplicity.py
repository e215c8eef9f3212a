import math
import re
from fractions import Fraction

import numpy as np
import pytest

import wavemult.multiplicity as multiplicity
from wavemult.dimension import MAX_GRID, dimension_step_function, dimension_values, midpoint_grid
from wavemult.exact import IntervalSet, PreconditionError, RationalPi
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

from _oracles import brute_dimension_count, pivoted_gram_rank


def rp(num, den=1):
    return RationalPi.of(num, den)


FULL_WINDOW = parse_set("[-1pi,-1/64pi),[1/64pi,1pi)")
ZERO_PROFILE = msf_profile(IntervalSet.empty())


def lattice_record(profile, xi, j_max, k_max):
    """The grid record of one point: its lattice sum `dim_sum` and `truncation_exact`."""
    (record,) = verify_m_equals_d(profile, [xi], j_max, k_max).records
    return record


def catalog_profiles():
    profiles = [(name, msf_profile(catalog(name))) for name in CATALOG_NAMES]
    profiles.append(("meyer", meyer_profile()))
    return profiles


def counted_msf_profile(W):
    """W's MSF profile, and the list of the sizes of the arrays it is evaluated on."""
    calls = []
    profile = msf_profile(W)
    counted = SpectralProfile("msf", lambda x: calls.append(x.size) or profile.evaluate_array(x),
                              profile.support_radius, msf_set=W)
    return counted, calls


def grid_for(name, profile, count=64):
    if profile.kind == "msf":
        return midpoint_grid(profile.msf_set, FULL_WINDOW, count)
    return uniform_grid(FULL_WINDOW, count)


class TestProfiles:
    def test_msf_indicator_values(self, w1):
        profile = msf_profile(w1)
        assert profile.evaluate(float(rp(2))) == 1.0
        assert profile.evaluate(float(rp(1, 2))) == 0.0
        assert profile.evaluate(float(rp(15, 8))) == 1.0  # lo endpoint included
        assert profile.evaluate(float(rp(15, 4))) == 0.0  # hi endpoint excluded

    def test_meyer_band_edges(self):
        m = meyer_profile()
        assert abs(m.evaluate(2 * math.pi / 3)) == pytest.approx(0.0, abs=1e-12)
        assert abs(m.evaluate(4 * math.pi / 3)) == pytest.approx(1.0, abs=1e-12)
        assert abs(m.evaluate(8 * math.pi / 3)) == pytest.approx(0.0, abs=1e-12)
        assert m.evaluate(math.pi / 2) == 0.0
        assert m.evaluate(3 * math.pi) == 0.0

    def test_meyer_bell_identity(self):
        m = meyer_profile()
        xs = np.linspace(2 * math.pi / 3, 4 * math.pi / 3, 2001)
        ident = np.abs(m.evaluate_array(xs)) ** 2 + np.abs(m.evaluate_array(2 * xs)) ** 2
        assert float(np.max(np.abs(ident - 1))) < 1e-12

    def test_meyer_phase_is_unimodular(self):
        m = meyer_profile()
        x = 1.7 * math.pi
        value = m.evaluate(x)
        assert value == pytest.approx(abs(value) * np.exp(0.5j * x))


class TestFiber:
    def test_shannon_single_entry(self, shannon):
        state = gram_schmidt(msf_profile(shannon), float(rp(1, 2)), 1, 4)
        expected = np.zeros(9, dtype=complex)
        expected[4] = math.sqrt(2)
        assert np.array_equal(state.fibers[0], expected)
        # At J = 1 the level rule 2**(J+1) * dist > support cannot rule out level 2.
        assert not state.truncation_exact

    def test_zero_profile(self):
        state = gram_schmidt(ZERO_PROFILE, 0.4, 3, 4)
        assert not state.fibers[2].any()

    def test_meyer_level3_vanishes(self):
        state = gram_schmidt(meyer_profile(), float(rp(1, 2)), 3, 4)
        assert not state.fibers[2].any()
        assert state.truncation_exact

    def test_truncation_flag_covers_levels(self):
        # At xi = pi/64 the Meyer support reaches level 7: J = 2 drops rank, J = 12 does not.
        xi = float(rp(1, 64))
        short = gram_schmidt(meyer_profile(), xi, 2, 8)
        assert short.rank == 0
        assert not short.truncation_exact
        deep = gram_schmidt(meyer_profile(), xi, 12, 8)
        assert deep.rank == 1
        assert deep.truncation_exact
        for j_max in (1, 2, 6, 7, 12):
            flag = gram_schmidt(meyer_profile(), xi, j_max, 8).truncation_exact
            assert flag is lattice_record(meyer_profile(), xi, j_max, 8).truncation_exact

    @pytest.mark.parametrize("xi_pi", [3, -3, 5, -5])
    def test_truncation_flag_outside_the_principal_window(self, xi_pi):
        """Off [-pi, pi) a dropped |k| > K term can land nearer 0 than any kept one: the flag
        holds only where every dropped term, evaluated directly over a wide range, vanishes."""
        profile, xi, j_max = meyer_profile(), xi_pi * math.pi, 4
        flags = []
        for k_max in range(1, 8):
            dropped = [2.0**j * (xi + 2 * math.pi * k) for j in range(1, j_max + 12)
                       for k in range(-60, 61) if abs(k) > k_max or j > j_max]
            flag = lattice_record(profile, xi, j_max, k_max).truncation_exact
            assert flag is gram_schmidt(profile, xi, j_max, k_max).truncation_exact
            assert not flag or not profile.evaluate_array(dropped).any(), k_max
            flags.append(flag)
        assert flags[0] is False and flags[-1] is True

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            gram_schmidt(ZERO_PROFILE, 0.1, 0, 4)
        with pytest.raises(PreconditionError):
            gram_schmidt(ZERO_PROFILE, 0.1, 1, 0)


class TestDepthPreconditions:
    @pytest.mark.parametrize(
        "j_max, k_max, tol",
        [(0, 4, 1e-9), (1024, 4, 1e-9), (1100, 8, 1e-9), (4, 0, 1e-9), (4, -3, 1e-9),
         (4, 4, 0.0), (4, 4, -1e-9), (4, 4, float("nan")), (1023, 600, 1e-9), (2, 10**6, 1e-9)],
    )
    def test_gram_schmidt_and_grid_reject(self, j_max, k_max, tol):
        with pytest.raises(PreconditionError):
            gram_schmidt(meyer_profile(), 1.0, j_max, k_max, tol)
        with pytest.raises(PreconditionError):
            verify_m_equals_d(meyer_profile(), [1.0], j_max, k_max, tol)

    def test_infinite_tol_rejected(self):
        # Every h_j is finite, so an infinite tolerance would count no rank at all.
        with pytest.raises(PreconditionError, match="finite tol > 0"):
            gram_schmidt(meyer_profile(), 1.0, 4, 4, math.inf)
        with pytest.raises(PreconditionError, match="finite tol > 0"):
            verify_m_equals_d(meyer_profile(), [1.0], 4, 4, math.inf)

    @pytest.mark.parametrize("j_max, k_max", [(0, 4), (4, -3), (1024, 4), (4, 10**6)])
    def test_dimension_sum_rejects(self, j_max, k_max):
        with pytest.raises(PreconditionError):
            lattice_record(meyer_profile(), 1.0, j_max, k_max)

    def test_empty_grid_is_still_validated(self):
        with pytest.raises(PreconditionError):
            verify_m_equals_d(meyer_profile(), [], 12, 0)

    def test_deepest_fitting_level_accepted(self):
        deepest = math.isqrt(multiplicity.BLOCK_ELEMENTS)  # J * max(J, 3) <= budget at K = 1
        assert lattice_record(ZERO_PROFILE, 1.0, deepest, 1).dim_sum == 0.0
        with pytest.raises(PreconditionError):
            lattice_record(ZERO_PROFILE, 1.0, deepest + 1, 1)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_deepest_float_level_accepted(self, monkeypatch):
        monkeypatch.setattr(multiplicity, "BLOCK_ELEMENTS", 1 << 20)
        assert lattice_record(ZERO_PROFILE, 1.0, 1023, 1).dim_sum == 0.0

    @pytest.mark.parametrize("count", [0, -5])
    def test_grid_sizes_below_one_rejected(self, shannon, count):
        with pytest.raises(PreconditionError):
            uniform_grid(FULL_WINDOW, count)
        with pytest.raises(PreconditionError):
            midpoint_grid(shannon, FULL_WINDOW, count)

    @pytest.mark.parametrize("count", [MAX_GRID + 1, 10**8])
    def test_grid_sizes_above_cap_rejected(self, shannon, count):
        with pytest.raises(PreconditionError):
            uniform_grid(FULL_WINDOW, count)
        with pytest.raises(PreconditionError):
            midpoint_grid(shannon, FULL_WINDOW, count)

    @pytest.mark.parametrize("count", [10.0, 2.5, Fraction(8), "8"])
    def test_non_integer_grid_sizes_rejected(self, count):
        with pytest.raises(PreconditionError, match=re.escape(f"grid size must be an integer in 1..{MAX_GRID}, got {count!r}")):
            uniform_grid(FULL_WINDOW, count)

    def test_largest_grid_accepted(self):
        assert len(uniform_grid(FULL_WINDOW, MAX_GRID)) == MAX_GRID

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_points_rejected(self, value):
        with pytest.raises(PreconditionError, match=f"grid point {value!r} is not finite"):
            gram_schmidt(meyer_profile(), value, 12, 8)
        with pytest.raises(PreconditionError, match=f"grid point {value!r} is not finite"):
            verify_m_equals_d(meyer_profile(), [value], 12, 8)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_rejected_before_any_block(self, value):
        """The bad point sits in the third block of 40; no block's profile is evaluated."""
        calls = []

        def ev(x):
            calls.append(x.size)
            return meyer_profile().evaluate_array(x)

        profile = SpectralProfile("counted", ev, 8 * math.pi / 3)
        grid = uniform_grid(FULL_WINDOW, 100) + [value]
        with pytest.raises(PreconditionError, match="not finite"):
            verify_m_equals_d(profile, grid, 12, 8)
        assert calls == []

    @pytest.mark.parametrize("point, message", [(rp(3), r"xi must lie in \[-pi, pi\)"),
                                                (rp(0), "not evaluated at 0")], ids=["outside", "zero"])
    def test_bad_exact_point_rejected_before_any_block(self, journe, point, message):
        """The exact counts are read first: a bad point after 256 good ones evaluates no block."""
        profile, calls = counted_msf_profile(journe)
        with pytest.raises(PreconditionError, match=message):
            verify_m_equals_d(profile, midpoint_grid(journe, FULL_WINDOW, 256) + [point], 12, 8)
        assert calls == []

    def test_msf_set_not_a_wavelet_set_rejected_before_any_block(self, journe):
        profile, calls = counted_msf_profile(parse_set("[1pi,3pi)"))
        with pytest.raises(PreconditionError, match="not a wavelet set"):
            verify_m_equals_d(profile, midpoint_grid(journe, FULL_WINDOW, 256), 12, 8)
        assert calls == []


class TestSupportRadius:
    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
    def test_invalid_radius_rejected(self, radius):
        with pytest.raises(PreconditionError, match="support_radius"):
            SpectralProfile("bad", meyer_profile().evaluate_array, radius)

    def test_zero_radius_accepted(self):
        assert ZERO_PROFILE.support_radius == 0.0
        assert SpectralProfile("zero", ZERO_PROFILE.evaluate_array, 0).support_radius == 0.0

    def test_lattice_point_on_the_closed_end_counts(self, shannon):
        """At xi = -pi the level-1, k = 0 point is exactly -2 pi = -R, inside [-2pi, -pi)."""
        profile = msf_profile(shannon)
        state = gram_schmidt(profile, -math.pi, 12, 8)
        assert -2 * math.pi == -profile.support_radius
        assert state.fibers[0, 8] == math.sqrt(2)
        assert np.count_nonzero(state.fibers) == 1
        assert state.rank == 1


class TestGramSchmidt:
    def test_shannon_weights(self, shannon):
        state = gram_schmidt(msf_profile(shannon), float(rp(1, 2)), 4, 4)
        assert state.h_values[0] == pytest.approx(4 * math.pi)
        assert state.h_values[1] == 0.0
        assert state.h_values[2] == 0.0
        assert state.h_values[3] == 0.0
        assert state.rank == 1

    def test_zero_profile_all_zero(self):
        state = gram_schmidt(ZERO_PROFILE, 0.3, 5, 4)
        assert not state.h_values.any()
        assert state.rank == 0

    def test_first_residual_is_first_fiber(self):
        for _, profile in catalog_profiles():
            state = gram_schmidt(profile, 0.41, 6, 6)
            assert np.array_equal(state.residuals[0], state.fibers[0])

    def test_h_nonnegative_everywhere(self):
        for name, profile in catalog_profiles():
            for xi in grid_for(name, profile, 32):
                state = gram_schmidt(profile, float(xi), 8, 6)
                assert (state.h_values >= 0).all()

    def test_residual_orthogonality(self):
        for name, profile in catalog_profiles():
            for xi in grid_for(name, profile, 64):
                state = gram_schmidt(profile, float(xi), 10, 8)
                usable = np.flatnonzero(state.usable)
                for a in usable:
                    for b in usable:
                        if a >= b:
                            continue
                        ga, gb = state.residuals[a], state.residuals[b]
                        bound = 1e-9 * np.linalg.norm(ga) * np.linalg.norm(gb)
                        assert abs(np.vdot(ga, gb)) <= bound, (name, xi)

    def test_eta_reconstruction(self):
        for name, profile in catalog_profiles():
            for xi in grid_for(name, profile, 32):
                state = gram_schmidt(profile, float(xi), 10, 8)
                for j in range(10):
                    recon = state.residuals[j] + state.eta[j, :j] @ state.residuals[:j]
                    err = np.linalg.norm(state.fibers[j] - recon)
                    scale = np.linalg.norm(state.fibers[j])
                    assert err <= 1e-9 * max(scale, 1e-30), (name, xi, j)


class TestRank:
    def test_shannon_rank_one(self, shannon):
        assert gram_schmidt(msf_profile(shannon), float(rp(1, 2)), 8, 8).rank == 1

    def test_journe_rank_two_point(self, journe):
        sf = dimension_step_function(journe, parse_set("[1/8pi,1pi)"))
        region = next(piece for piece, value in sf.pairs if value == 2)
        xi = (region.pieces[0].lo + region.pieces[0].hi) * Fraction(1, 2)
        assert brute_dimension_count(journe, xi) == 2
        assert gram_schmidt(msf_profile(journe), float(xi), 12, 8).rank == 2

    def test_zero_profile_rank_zero(self):
        assert gram_schmidt(ZERO_PROFILE, 0.9, 6, 4).rank == 0

    def test_rank_matches_pivoted_gram_oracle(self):
        for name, profile in catalog_profiles():
            for xi in grid_for(name, profile, 64):
                state = gram_schmidt(profile, float(xi), 10, 8)
                assert state.rank == pivoted_gram_rank(state.fibers, 1e-9), (name, xi)

    def test_scaling_invariance(self, journe):
        base = msf_profile(journe)
        points = [float(x) for x in midpoint_grid(journe, FULL_WINDOW, 16)]
        for factor in (2.0, 0.5, 1e3, 1e-3, -3.0, 1j, 0.25 - 0.6j):
            scaled = SpectralProfile(
                "scaled",
                lambda x, f=factor: f * base.evaluate_array(x),
                base.support_radius,
            )
            for xi in points:
                assert gram_schmidt(scaled, xi, 12, 8).rank == gram_schmidt(base, xi, 12, 8).rank


class TestDimensionSum:
    def test_shannon_exact_count(self, shannon):
        result = lattice_record(msf_profile(shannon), float(rp(1, 2)), 8, 8)
        assert result.dim_sum == 1.0
        assert result.truncation_exact

    def test_msf_sums_are_exact_lattice_counts(self):
        for name in CATALOG_NAMES:
            W = catalog(name)
            profile = msf_profile(W)
            for got in verify_m_equals_d(profile, midpoint_grid(W, FULL_WINDOW, 32), 12, 8).records:
                assert got.dim_sum == float(brute_dimension_count(W, got.xi_pi)), (name, got.xi_pi)
                assert got.truncation_exact

    def test_meyer_near_one(self):
        result = lattice_record(meyer_profile(), float(rp(1, 2)), 4, 4)
        assert result.dim_sum == pytest.approx(1.0, abs=1e-9)
        assert result.truncation_exact

    def test_zero_profile(self):
        assert lattice_record(ZERO_PROFILE, 0.7, 6, 4).dim_sum == 0.0

    def test_truncation_flag_reports_insufficient_depth(self):
        # at xi = pi/64 the support still reaches level 7, so j_max = 2 is short
        result = lattice_record(meyer_profile(), float(rp(1, 64)), 2, 4)
        assert not result.truncation_exact


class TestAgreement:
    def test_w1_all_ones(self, w1):
        grid = midpoint_grid(w1, FULL_WINDOW, 64)
        report = verify_m_equals_d(msf_profile(w1), grid, 12, 8)
        assert report.all_agree
        assert len(report.records) >= 64
        assert {r.rank for r in report.records} == {1}
        assert {r.exact for r in report.records} == {1}

    def test_journe_matches_step_function(self, journe):
        grid = midpoint_grid(journe, parse_set("[1/8pi,1pi)"), 64)
        report = verify_m_equals_d(msf_profile(journe), grid, 12, 8)
        assert report.all_agree
        assert {r.rank for r in report.records} == {0, 1, 2}

    def test_exact_column_from_one_call(self, journe, monkeypatch):
        calls = []

        def counted(W, points):
            calls.append(list(points))
            return dimension_values(W, points)

        monkeypatch.setattr(multiplicity, "dimension_values", counted)
        exact = midpoint_grid(journe, FULL_WINDOW, 16)
        grid = [float(exact[0]), *exact[1:], 0.5]
        report = verify_m_equals_d(msf_profile(journe), grid, 12, 8)
        assert calls == [exact[1:]]
        assert [r.exact for r in report.records] == [
            None, *(brute_dimension_count(journe, xi) for xi in exact[1:]), None
        ]
        assert report.all_agree

    def test_float_grid_needs_no_wavelet_set(self):
        report = verify_m_equals_d(msf_profile(parse_set("[1pi,3pi)")), [0.5, 1.5], 8, 4)
        assert [r.exact for r in report.records] == [None, None]

    def test_meyer_constant_one(self):
        grid = uniform_grid(FULL_WINDOW, 32)
        report = verify_m_equals_d(meyer_profile(), grid, 8, 4)
        assert report.all_agree
        assert {r.rank for r in report.records} == {1}
        assert all(r.exact is None for r in report.records)
