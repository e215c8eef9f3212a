"""Exact and numerical wavelet multiplicity toolkit.

Exact side: rational-pi interval calculus, wavelet-set verification,
translation-map construction and composition, and integer-valued dimension
step functions.  Numerical side: frequency-domain fibers, Gram-Schmidt
multiplicity ranks, and lattice dimension sums, cross-checked against the
exact counts for MSF profiles.
"""

# `exact.__all__` also names `cover`, the weighted walk, which the package keeps internal.
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
# Each module's `__all__` is its public API; the package republishes it.
from .parsing import *
from .wavelet_sets import *

__version__ = "0.1.0"

# The names of `sigma`, `dimension` and `multiplicity` load their module on
# first access (PEP 562): a process compiles only the layers it uses, and
# `import wavemult` and the exact side never import numpy, which `multiplicity`
# needs.  Each of the three modules takes its `__all__` from `_LAZY`.
_NUMERIC = (
    "AgreementReport", "DimensionSum", "GramSchmidtState", "GridRecord", "SpectralProfile",
    "dimension_sum", "gram_schmidt", "meyer_profile", "msf_profile", "sampled_profile",
    "uniform_grid", "verify_m_equals_d",
)
_LAZY = {
    "sigma": ("SigmaMap", "CommutantVerdict", "build_sigma", "compose", "dyadic_extension",
              "compose_power", "power_in_local_commutant"),
    "dimension": ("StepFunction", "DimensionIntegral", "dimension_function",
                  "dimension_step_function", "dimension_values", "dimension_integral",
                  "core_equivalence_regions", "mra_consistent", "midpoint_grid"),
    "multiplicity": _NUMERIC,
}
_HOME = {name: module for module, names in _LAZY.items() for name in (module, *names)}

__all__ = sorted({name for name in globals() if not name.startswith("_")} | set(_HOME))


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if home not in globals():  # importing a submodule binds it here
        import importlib

        importlib.import_module(f".{home}", __name__)
    module = globals()[home]
    return module if name == home else getattr(module, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
