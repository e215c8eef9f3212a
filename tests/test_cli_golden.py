"""Golden CLI outputs: stdout bytes, exit code and `--csv` file bytes of fixed commands.

Each case runs in-process through `cli.main`.  `{csv}` in the arguments stands for a
temporary CSV path, whose bytes are compared with ``golden/NAME.csv``.  To re-record
after an intended output change, run ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from wavemult import cli

GOLDEN = Path(__file__).parent / "golden"

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


@pytest.mark.parametrize("name, args, code", CASES, ids=[case[0] for case in CASES])
def test_golden_output(tmp_path, name, args, code):
    got_code, stdout, written = run_case(args, tmp_path / "out.csv")
    assert got_code == code
    assert stdout == (GOLDEN / f"{name}.out").read_bytes()
    if written is not None:
        assert written == (GOLDEN / f"{name}.csv").read_bytes()


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, args, code in CASES:
        got_code, stdout, written = run_case(args, GOLDEN / f"{name}.csv")
        if got_code != code:
            sys.exit(f"{name}: exit code {got_code}, expected {code}")
        (GOLDEN / f"{name}.out").write_bytes(stdout)


if __name__ == "__main__":
    record()
