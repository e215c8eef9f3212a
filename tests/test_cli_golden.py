"""Golden CLI outputs: stdout bytes, exit code and `--csv` file bytes of fixed commands.

Each case runs in-process through `cli.main`, and again as ``python -m wavemult`` in a
fresh interpreter with ``PYTHONPATH=src``: there the command loads only the modules it
uses, and numpy starts under the CLI's default of one BLAS thread.  The numeric cases
run a third time with ``OPENBLAS_NUM_THREADS=2``, which the CLI keeps.
`{csv}` in the arguments stands for a temporary CSV path, whose bytes are compared
with ``golden/NAME.csv``.  To re-record after an intended output change, run
``PYTHONPATH=src python tests/test_cli_golden.py``.  The README's Python example runs
in a fresh interpreter too, and its printed answers are checked.
"""

import io
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from wavemult import cli

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

CASES = [
    # The README examples; the Meyer one also writes its CSV.
    ("readme_catalog", ["catalog"], 0),
    ("readme_verify_name", ["verify-set", "--name", "shannon"], 0),
    ("readme_verify_expr", ["verify-set", "--set", "[-1/4pi,-1/8pi),[15/8pi,15/4pi)"], 0),
    ("readme_sigma_square", ["sigma", "--w1", "paper_w1", "--w2", "paper_w2", "--power", "2"], 1),
    ("readme_dimfn_exact", ["dimfn", "--set", "journe", "--window", "[1/8pi,1pi)", "--csv", "{csv}"], 0),
    ("readme_dimfn_msf", ["dimfn", "--wavelet", "msf:journe", "--grid", "64"], 0),
    ("readme_dimfn_meyer",
     ["dimfn", "--wavelet", "meyer", "--grid", "32", "--J", "8", "--K", "4", "--csv", "{csv}"], 0),
    ("readme_multiplicity", ["multiplicity", "--wavelet", "msf:journe", "--xi", "1/12pi"], 0),
    ("readme_core_equiv",
     ["core-equiv", "--a", "paper_w1", "--b", "paper_w2", "--window", "[1/64pi,1pi)"], 0),
    ("sigma_paper_w1_paper_w2", ["sigma", "--w1", "paper_w1", "--w2", "paper_w2"], 0),
    ("sigma_journe_paper_w2", ["sigma", "--w1", "journe", "--w2", "paper_w2"], 0),
    ("sigma_paper_power8", ["sigma", "--w1", "paper_w1", "--w2", "paper_w2", "--power", "8"], 1),
    ("sigma_shannon_journe_power12", ["sigma", "--w1", "shannon", "--w2", "journe", "--power", "12"], 1),
    ("sigma_journe_paper_w2_power5", ["sigma", "--w1", "journe", "--w2", "paper_w2", "--power", "5"], 1),
    ("dimfn_msf_paper_w1", ["dimfn", "--wavelet", "msf:paper_w1", "--grid", "256", "--csv", "{csv}"], 0),
    ("multiplicity_meyer", ["multiplicity", "--wavelet", "meyer", "--xi", "1/3pi"], 0),
    ("core_equiv_journe_shannon",
     ["core-equiv", "--a", "journe", "--b", "shannon", "--window", "[1/8pi,1pi)"], 1),
    ("parse_error", ["verify-set", "--set", "[1pi,1pi)"], 2),
    ("precondition_error", ["verify-set", "--set", "[-1/4pi,1/4pi)"], 3),
]


def run_case(args, csv_path):
    """Run one case in-process: (exit code, stdout bytes, CSV bytes or None)."""
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit) as stop:
        cli.main([a.format(csv=csv_path) for a in args])
    written = csv_path.read_bytes() if "{csv}" in args else None
    return stop.value.code, out.getvalue().encode(), written


def run_fresh(args, csv_path, **env):
    """Run one case as ``python -m wavemult``, with no BLAS thread variable set but `env`."""
    clean = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    proc = subprocess.run([sys.executable, "-m", "wavemult", *[a.format(csv=csv_path) for a in args]],
                          env={**clean, "PYTHONPATH": str(SRC), **env}, capture_output=True, timeout=120)
    assert proc.stderr == b""
    written = csv_path.read_bytes() if "{csv}" in args else None
    return proc.returncode, proc.stdout, written


def check(name, code, got) -> None:
    got_code, stdout, written = got
    assert got_code == code
    assert stdout == (GOLDEN / f"{name}.out").read_bytes()
    if written is not None:
        assert written == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("name, args, code", CASES, ids=[case[0] for case in CASES])
def test_golden_output(tmp_path, name, args, code):
    check(name, code, run_case(args, tmp_path / "out.csv"))


@pytest.mark.parametrize("name, args, code", CASES, ids=[case[0] for case in CASES])
def test_golden_output_in_a_fresh_process(tmp_path, name, args, code):
    check(name, code, run_fresh(args, tmp_path / "out.csv"))


NUMERIC_CASES = [case for case in CASES if "--wavelet" in case[1]]


@pytest.mark.parametrize("name, args, code", NUMERIC_CASES, ids=[case[0] for case in NUMERIC_CASES])
def test_numeric_golden_output_with_two_blas_threads(tmp_path, name, args, code):
    check(name, code, run_fresh(args, tmp_path / "out.csv", OPENBLAS_NUM_THREADS="2"))


def test_readme_python_example(tmp_path):
    readme = (ROOT / "README.md").read_text()
    (example,) = readme.split("```python\n")[1:]
    proc = subprocess.run([sys.executable, "-c", example.split("```")[0]], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.splitlines()[-3:] == ["[1/8pi,2/7pi),[4/7pi,6/7pi)", "False", "True"]


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, args, code in CASES:
        got_code, stdout, written = run_case(args, GOLDEN / f"{name}.csv")
        if got_code != code:
            sys.exit(f"{name}: exit code {got_code}, expected {code}")
        (GOLDEN / f"{name}.out").write_bytes(stdout)


if __name__ == "__main__":
    record()
