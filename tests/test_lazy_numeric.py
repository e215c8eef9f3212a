"""The numeric layer, and numpy with it, loads only when a numeric name is used.

`import wavemult`, `import wavemult.cli` and every exact CLI command run
without numpy; the package still exports the numeric names, which load
`wavemult.multiplicity` on first access.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import wavemult

PACKAGE_ROOT = str(Path(wavemult.__file__).resolve().parents[1])

NUMERIC_NAMES = {
    "AgreementReport", "DimensionSum", "GramSchmidtState", "GridRecord", "SpectralProfile",
    "dimension_sum", "gram_schmidt", "meyer_profile", "msf_profile", "sampled_profile",
    "uniform_grid", "verify_m_equals_d",
}

# `from wavemult import *`: 40 exact names and modules, the 12 numeric names
# (`multiplicity.__all__`) and the `multiplicity` module.
STAR_NAMES = NUMERIC_NAMES | {
    "CATALOG_NAMES", "CommutantVerdict", "DimensionIntegral", "Interval", "IntervalSet",
    "MINUS_PI", "PI", "PRINCIPAL_WINDOW", "PiecewiseTranslation", "PreconditionError",
    "RationalPi", "SetSyntaxError", "SigmaMap", "StepFunction", "TWO_PI", "WaveletSetReport",
    "ZERO", "build_sigma", "catalog", "compose", "compose_power", "core_equivalence_regions",
    "core_equivalent_exact", "dilation_congruence", "dimension", "dimension_integral",
    "dimension_step_function", "dimension_values", "dyadic_extension", "exact",
    "is_wavelet_set", "midpoint_grid", "mra_consistent", "multiplicity", "parse_scalar",
    "parse_set", "parsing", "power_in_local_commutant", "sigma", "translation_congruence",
    "wavelet_sets",
}

CHILD = textwrap.dedent(
    """
    import contextlib, io, json, sys

    import wavemult
    import wavemult.cli as cli

    def run(*args):
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                cli.main(list(args))
            except SystemExit as stop:
                return stop.code
        return 0  # a command that returns exits 0, as under `python -m wavemult`

    codes = [
        run("catalog"),
        run("verify-set", "--name", "shannon"),
        run("sigma", "--w1", "paper_w1", "--w2", "paper_w2", "--power", "2"),
        run("dimfn", "--set", "journe", "--window", "[1/8pi,1pi)"),
        run("core-equiv", "--a", "paper_w1", "--b", "paper_w2", "--window", "[1/64pi,1pi)"),
        run("verify-set", "--set", "[1pi,"),
        run("sigma", "--w1", "paper_w1", "--w2", "[1pi,2pi)"),
    ]
    exact_numpy = "numpy" in sys.modules
    codes.append(run("multiplicity", "--wavelet", "meyer", "--xi", "1/3pi"))
    print(json.dumps({"codes": codes, "exact_numpy": exact_numpy,
                      "numeric_numpy": "numpy" in sys.modules}))
    """
)


def test_exact_commands_never_import_numpy():
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 1, 0, 0, 2, 3, 0]
    assert result["exact_numpy"] is False
    assert result["numeric_numpy"] is True


def test_numeric_names_resolve_to_the_multiplicity_module():
    import wavemult.multiplicity as multiplicity

    assert wavemult.verify_m_equals_d is multiplicity.verify_m_equals_d
    assert wavemult.multiplicity is multiplicity
    assert set(wavemult._NUMERIC) == set(multiplicity.__all__)
    for name in NUMERIC_NAMES:
        assert getattr(wavemult, name) is getattr(multiplicity, name)


def test_star_import_and_dir_keep_every_name():
    namespace = {}
    exec("from wavemult import *", namespace)
    assert set(namespace) - {"__builtins__"} == STAR_NAMES
    assert set(wavemult.__all__) == STAR_NAMES
    assert NUMERIC_NAMES <= set(dir(wavemult))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        wavemult.no_such_name
    assert not hasattr(wavemult, "no_such_name")
