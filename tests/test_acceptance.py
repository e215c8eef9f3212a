"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All comparisons on the exact side are rational equalities with zero
tolerance; the numerical side uses the stated relative tolerance 1e-9.
"""

import itertools
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from wavemult.dimension import (
    dimension_integral,
    dimension_step_function,
    midpoint_grid,
)
from wavemult.exact import Interval, IntervalSet, RationalPi, TWO_PI
from wavemult.multiplicity import (
    gram_schmidt,
    meyer_profile,
    msf_profile,
    uniform_grid,
    verify_m_equals_d,
)
from wavemult.parsing import parse_set
from wavemult.sigma import (
    build_sigma,
    compose,
    compose_power,
    power_in_local_commutant,
)
from wavemult.wavelet_sets import CATALOG_NAMES, catalog, is_wavelet_set

from _oracles import pivoted_gram_rank


def rp(num, den=1):
    return RationalPi.of(num, den)


FULL_WINDOW = parse_set("[-1pi,-1/64pi),[1/64pi,1pi)")
POS_WINDOW = parse_set("[1/64pi,1pi)")
NEG_WINDOW = parse_set("[-1pi,-1/64pi)")


@contextmanager
def criterion(number, label, budget=None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed >= budget:
            print(f"ACCEPTANCE {number} [{label}]: FAIL (took {elapsed:.3f}s, budget {budget}s)")
            raise AssertionError(f"criterion {number} exceeded its {budget}s budget")
        print(f"ACCEPTANCE {number} [{label}]: PASS ({elapsed:.3f}s)")
    except AssertionError:
        if time.perf_counter() - start < (budget or math.inf):
            print(f"ACCEPTANCE {number} [{label}]: FAIL")
        raise


def test_criterion_1_sigma_reproduction(w1, w2):
    with criterion(1, "sigma reproduction", budget=1.0):
        sigma = build_sigma(w1, w2)
        cases = [
            (iv.lo, iv.hi, shift) for iv, shift in sigma.mapping.cases()
        ]
        assert cases == [
            (rp(-1, 4), rp(-1, 8), rp(-2)),
            (rp(15, 8), rp(17, 8), rp(-4)),
            (rp(17, 8), rp(18, 8), rp(-2)),
            (rp(18, 8), rp(30, 8), rp(-6)),
        ]


def test_criterion_2_counterexample_reproduction(paper_sigma):
    with criterion(2, "second power leaves the commutant", budget=1.0):
        squared = compose_power(paper_sigma, 2)
        a_lo, a_hi = rp(17, 8), rp(273, 128)
        shift_on_a = next(
            s for iv, s in squared.cases() if iv.lo <= a_lo and a_hi <= iv.hi
        )
        assert shift_on_a == rp(-9, 4)
        assert not power_in_local_commutant(paper_sigma, 2).in_commutant
        assert power_in_local_commutant(paper_sigma, 1).in_commutant


def test_criterion_3_wavelet_set_verification(w1):
    with criterion(3, "catalog verification and perturbation", budget=1.0):
        for name in CATALOG_NAMES:
            W = catalog(name)
            report = is_wavelet_set(W)
            assert report.is_translation_congruent, name
            assert report.is_dilation_congruent, name
            assert W.measure() == TWO_PI, name
        first = w1.pieces[0]
        perturbed = IntervalSet.from_intervals(
            [Interval(first.lo, first.hi + rp(1, 64))] + list(w1.pieces[1:])
        )
        assert not is_wavelet_set(perturbed).accepted


def test_criterion_4_core_equivalence_exact(w1, w2):
    with criterion(4, "mirror pair core equivalent, constant 1"):
        for window in (POS_WINDOW, NEG_WINDOW):
            f1 = dimension_step_function(w1, window)
            f2 = dimension_step_function(w2, window)
            assert f1 == f2
            assert f1.constant_value() == 1


def test_criterion_5_m_equals_d_sweep():
    with criterion(5, "rank = lattice sum = exact count on grids", budget=10.0):
        for name in ("shannon", "journe", "paper_w1"):
            W = catalog(name)
            for window in (POS_WINDOW, NEG_WINDOW):
                grid = midpoint_grid(W, window, 64)
                assert len(grid) >= 64
                report = verify_m_equals_d(msf_profile(W), grid, 12, 8, tol=1e-9)
                assert report.all_agree, (name, report.disagreements[:3])
                for record in report.records:
                    assert record.exact is not None
                    assert record.rank == record.exact == round(record.dim_sum)
        meyer = meyer_profile()
        for window in (POS_WINDOW, NEG_WINDOW):
            report = verify_m_equals_d(meyer, uniform_grid(window, 64), 8, 4, tol=1e-9)
            assert report.all_agree
            assert all(r.rank == 1 for r in report.records)


def test_criterion_6_dimension_integral_identity():
    with criterion(6, "integral partial sums reach 2 pi"):
        for name in CATALOG_NAMES:
            report = dimension_integral(catalog(name), terms=30)
            assert report.limit == TWO_PI
            sums = report.partial_sums
            assert all(a < b for a, b in zip(sums, sums[1:]))
            assert all(s < report.limit for s in sums)
            assert (report.limit - sums[-1]).coef <= TWO_PI.coef * Fraction(2) ** -29


def test_criterion_7_gram_schmidt_suite():
    with criterion(7, "orthogonality, reconstruction, rank oracle"):
        profiles = [(n, msf_profile(catalog(n))) for n in CATALOG_NAMES]
        profiles.append(("meyer", meyer_profile()))
        for name, profile in profiles:
            if profile.kind == "msf":
                grid = [float(x) for x in midpoint_grid(profile.msf_set, FULL_WINDOW, 64)]
            else:
                grid = uniform_grid(FULL_WINDOW, 64)
            for xi in grid:
                state = gram_schmidt(profile, xi, 10, 8, tol=1e-9)
                assert (state.h_values >= 0).all()
                usable = np.flatnonzero(state.usable)
                for a, b in itertools.combinations(usable, 2):
                    ga, gb = state.residuals[a], state.residuals[b]
                    assert abs(np.vdot(ga, gb)) <= 1e-9 * np.linalg.norm(ga) * np.linalg.norm(gb)
                for j in range(10):
                    recon = state.residuals[j] + state.eta[j, :j] @ state.residuals[:j]
                    err = np.linalg.norm(state.fibers[j] - recon)
                    assert err <= 1e-9 * max(np.linalg.norm(state.fibers[j]), 1e-30)
                assert state.rank == pivoted_gram_rank(state.fibers, 1e-9), (name, xi)


def test_criterion_8_round_trip_and_measure():
    with criterion(8, "inverses compose to identity; powers preserve measure"):
        for a, b in itertools.permutations(CATALOG_NAMES, 2):
            forward = build_sigma(catalog(a), catalog(b))
            backward = build_sigma(catalog(b), catalog(a))
            assert compose(forward.mapping, backward.mapping).pairs == (
                (catalog(a), RationalPi.of(0)),
            )
        for a, b in (("paper_w1", "paper_w2"), ("shannon", "journe")):
            sigma = build_sigma(catalog(a), catalog(b))
            for power in range(1, 5):
                composed = compose_power(sigma, power)
                assert composed.domain == sigma.w1
                assert composed.domain.measure() == TWO_PI
                assert composed.image.measure() == TWO_PI
