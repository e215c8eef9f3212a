"""The numeric layer, and numpy with it, loads only when a numeric name is used.

`import wavemult`, `import wavemult.cli` and every exact CLI command run
without numpy, and `sigma` and `dimension` load only for the commands that
run them; the package still exports every name, which loads its module on
first access.  A numeric command starts numpy with one OpenBLAS thread unless
the caller set a thread count.
"""

import importlib
import inspect
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
    "AgreementReport", "GramSchmidtState", "GridRecord", "SpectralProfile", "gram_schmidt",
    "meyer_profile", "msf_profile", "uniform_grid", "verify_m_equals_d",
}

# `from wavemult import *`: 37 exact names and modules, the 9 numeric names
# (`multiplicity.__all__`) and the `multiplicity` module.
STAR_NAMES = NUMERIC_NAMES | {
    "CATALOG_NAMES", "CommutantVerdict", "DimensionIntegral", "Interval", "IntervalSet",
    "MINUS_PI", "PI", "PiecewiseTranslation", "PreconditionError",
    "RationalPi", "SetSyntaxError", "SigmaMap", "StepFunction", "TWO_PI", "WaveletSetReport",
    "ZERO", "build_sigma", "catalog", "compose", "compose_power", "core_equivalence_regions",
    "dimension", "dimension_function", "dimension_integral", "dimension_step_function",
    "dimension_values", "dyadic_extension", "exact", "is_wavelet_set", "midpoint_grid",
    "mra_consistent", "multiplicity", "parse_scalar", "parse_set", "parsing",
    "power_in_local_commutant", "sigma", "wavelet_sets",
}

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# Runs the commands of argv[1] (a JSON list of argument lists) in order in one
# interpreter and prints which watched modules were loaded after `import
# wavemult`, after `import wavemult.cli` and after each command, together with
# each command's exit code and the OPENBLAS_NUM_THREADS it left.
CHILD = textwrap.dedent(
    """
    import contextlib, io, json, os, sys

    WATCHED = ("wavemult.sigma", "wavemult.dimension", "wavemult.multiplicity", "csv", "numpy")

    def loaded():
        return [name for name in WATCHED if name in sys.modules]

    import wavemult
    after_import = loaded()
    import wavemult.cli as cli

    def run(args):
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                cli.main(args)
            except SystemExit as stop:
                return stop.code
        return 0  # a command that returns exits 0, as under `python -m wavemult`

    result = {"import": after_import, "cli": loaded(), "runs": []}
    for args in json.loads(sys.argv[1]):
        code = run(args)
        result["runs"].append([code, loaded(), os.environ.get("OPENBLAS_NUM_THREADS")])
    print(json.dumps(result))
    """
)

CATALOG = ["catalog"]
VERIFY = ["verify-set", "--name", "shannon"]
SIGMA = ["sigma", "--w1", "paper_w1", "--w2", "paper_w2", "--power", "2"]
DIMFN = ["dimfn", "--set", "journe", "--window", "[1/8pi,1pi)"]
CORE_EQUIV = ["core-equiv", "--a", "paper_w1", "--b", "paper_w2", "--window", "[1/64pi,1pi)"]
MULTIPLICITY = ["multiplicity", "--wavelet", "meyer", "--xi", "1/3pi"]


def run_child(*commands, **env) -> dict:
    """Run `commands` in one fresh interpreter with no BLAS thread variable set but `env`."""
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    clean = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(commands)], capture_output=True,
                          text=True, env={**clean, "PYTHONPATH": path, **env}, check=True)
    return json.loads(proc.stdout)


def test_exact_commands_never_import_numpy():
    result = run_child(CATALOG, VERIFY, SIGMA, DIMFN, CORE_EQUIV, ["verify-set", "--set", "[1pi,"],
                       ["sigma", "--w1", "paper_w1", "--w2", "[1pi,2pi)"], MULTIPLICITY)
    codes = [code for code, _, _ in result["runs"]]
    assert codes == [0, 0, 1, 0, 0, 2, 3, 0]
    assert "numpy" not in result["runs"][-2][1]
    assert "numpy" in result["runs"][-1][1]


def test_each_command_loads_only_the_layers_it_runs():
    result = run_child(CATALOG, VERIFY, SIGMA)
    assert result["import"] == result["cli"] == []
    assert [loaded for _, loaded, _ in result["runs"]] == [[], [], ["wavemult.sigma"]]
    result = run_child(DIMFN, CORE_EQUIV)
    assert [loaded for _, loaded, _ in result["runs"]] == [["wavemult.dimension"]] * 2


@pytest.mark.parametrize("env, threads", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "3"}, "3"),
                                          ({"OMP_NUM_THREADS": "2"}, None), ({"GOTO_NUM_THREADS": "2"}, None)],
                         ids=["default", "openblas-set", "omp-set", "goto-set"])
def test_numeric_commands_start_one_blas_thread_unless_the_user_chose(env, threads):
    [(code, loaded, blas)] = run_child(MULTIPLICITY, **env)["runs"]
    assert code == 0 and "numpy" in loaded
    assert blas == threads


def test_numeric_names_resolve_to_the_multiplicity_module():
    import wavemult.multiplicity as multiplicity

    assert wavemult.verify_m_equals_d is multiplicity.verify_m_equals_d
    assert wavemult.multiplicity is multiplicity
    assert set(wavemult._LAZY["multiplicity"]) == set(multiplicity.__all__)
    for name in NUMERIC_NAMES:
        assert getattr(wavemult, name) is getattr(multiplicity, name)


def public_definitions(module) -> set:
    """Names of the public functions and classes that `module` itself defines."""
    return {name for name, obj in vars(module).items() if not name.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == module.__name__}


@pytest.mark.parametrize("name", ["parsing", "wavelet_sets", "sigma", "dimension"])
def test_each_exact_name_is_declared_once_and_republished(name):
    module = importlib.import_module(f"wavemult.{name}")
    assert public_definitions(module) <= set(module.__all__)
    for attr in module.__all__:
        assert getattr(wavemult, attr) is getattr(module, attr), attr


def test_numeric_names_are_declared_once():
    import wavemult.multiplicity as multiplicity

    assert public_definitions(multiplicity) == set(wavemult._LAZY["multiplicity"]) == set(multiplicity.__all__)


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
