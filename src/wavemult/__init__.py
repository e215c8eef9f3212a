"""Exact and numerical wavelet multiplicity toolkit.

Exact side: rational-pi interval calculus, wavelet-set verification,
translation-map construction and composition, and integer-valued dimension
step functions.  Numerical side: frequency-domain fibers, Gram-Schmidt
multiplicity ranks, and lattice dimension sums, cross-checked against the
exact counts for MSF profiles.
"""

# `exact.__all__` also names the sweep kernel, which the package keeps internal.
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
from .sigma import *
from .dimension import *

__version__ = "0.1.0"

# The numeric names load `multiplicity`, and numpy with it, on first access
# (PEP 562), so `import wavemult` and the exact side never import numpy.
_NUMERIC = (
    "AgreementReport", "DimensionSum", "GramSchmidtState", "GridRecord", "SpectralProfile",
    "dimension_sum", "gram_schmidt", "meyer_profile", "msf_profile", "sampled_profile",
    "uniform_grid", "verify_m_equals_d",
)

__all__ = sorted(
    {name for name in globals() if not name.startswith("_")} | {"multiplicity", *_NUMERIC}
)


def __getattr__(name: str):
    if name == "multiplicity" or name in _NUMERIC:
        import importlib

        module = importlib.import_module(".multiplicity", __name__)
        return module if name == "multiplicity" else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
