"""Exact and numerical wavelet multiplicity toolkit.

Exact side: rational-pi interval calculus, wavelet-set verification,
translation-map construction and composition, and integer-valued dimension
step functions.  Numerical side: frequency-domain fibers, Gram-Schmidt
multiplicity ranks, and lattice dimension sums, cross-checked against the
exact counts for MSF profiles.
"""

from .exact import (
    Interval,
    IntervalSet,
    PreconditionError,
    RationalPi,
    PI,
    TWO_PI,
    MINUS_PI,
    ZERO,
)
from .parsing import SetSyntaxError, parse_scalar, parse_set
from .wavelet_sets import (
    CATALOG_NAMES,
    PRINCIPAL_WINDOW,
    PiecewiseTranslation,
    WaveletSetReport,
    catalog,
    dilation_congruence,
    is_wavelet_set,
    translation_congruence,
)
from .sigma import (
    CommutantVerdict,
    SigmaMap,
    build_sigma,
    compose,
    compose_power,
    dyadic_extension,
    extension_at,
    power_in_local_commutant,
)
from .dimension import (
    DimensionIntegral,
    StepFunction,
    core_equivalence_regions,
    core_equivalent_exact,
    dimension_at,
    dimension_integral,
    dimension_step_function,
    midpoint_grid,
    mra_consistent,
)
from .multiplicity import (
    AgreementReport,
    DimensionSum,
    GramSchmidtState,
    SpectralProfile,
    dimension_sum,
    gram_schmidt,
    meyer_profile,
    msf_profile,
    sampled_profile,
    uniform_grid,
    verify_m_equals_d,
)

__version__ = "0.1.0"
