import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wavemult
from wavemult import cli, dimension
from wavemult.parsing import parse_set
from wavemult.wavelet_sets import CATALOG_NAMES, catalog

# The child imports the same wavemult as the tests, installed or not.
PACKAGE_ROOT = str(Path(wavemult.__file__).resolve().parents[1])
CHILD_PATH = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "wavemult", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": CHILD_PATH},
    )
    payload = json.loads(proc.stdout) if proc.stdout.strip() else None
    return proc.returncode, payload


def test_catalog_lists_names_and_round_trips():
    code, payload = run_cli("catalog")
    assert code == 0
    assert set(payload) == set(CATALOG_NAMES)
    for name, text in payload.items():
        assert parse_set(text) == catalog(name)


def test_verify_set_accepted():
    code, payload = run_cli("verify-set", "--name", "shannon")
    assert code == 0
    assert payload["accepted"] is True
    assert payload["translation_congruent"] is True
    assert payload["dilation_congruent"] is True
    assert payload["measure"] == "2 pi"
    assert payload["failure_regions"] == ""
    assert parse_set(payload["set"]) == catalog("shannon")


def test_verify_set_rejected_exit_one():
    code, payload = run_cli("verify-set", "--set", "[1pi,2pi)")
    assert code == 1
    assert payload["accepted"] is False
    assert payload["failure_regions"] != ""


def test_verify_set_usage_errors():
    code, payload = run_cli("verify-set")
    assert code == 2
    assert payload["error"] == "usage"
    code, payload = run_cli("verify-set", "--name", "nope")
    assert code == 2
    assert payload["error"] == "usage"


def test_parse_error_exit_two():
    code, payload = run_cli("verify-set", "--set", "[1pi,1pi)")
    assert code == 2
    assert payload["error"] == "parse"
    assert "empty interval" in payload["detail"]


def test_precondition_error_exit_three():
    code, payload = run_cli("verify-set", "--set", "[-1/4pi,1/4pi)")
    assert code == 3
    assert payload["error"] == "precondition"


def test_overlong_integer_literal_exit_two():
    code, payload = run_cli("verify-set", "--set", "[1pi,1" + "0" * 5000 + "pi)")
    assert code == 2
    assert payload["error"] == "parse"
    assert "integer literal too long (at position 5)" in payload["detail"]


BIG = "1" + "0" * 400  # 10**400 pi has no finite float


@pytest.mark.parametrize(
    "args",
    [
        ["verify-set", "--set", f"[1pi,{BIG}pi)"],
        ["multiplicity", "--wavelet", "meyer", "--xi", f"{BIG}pi"],
        ["dimfn", "--wavelet", f"msf:[1pi,{BIG}pi)"],
    ],
    ids=["verify-set", "multiplicity", "dimfn"],
)
def test_value_without_finite_float_exit_three(args):
    code, payload = run_cli(*args)
    assert code == 3
    assert payload == {"error": "precondition", "detail": "value too large for a float"}


def test_sigma_map_output():
    code, payload = run_cli("sigma", "--w1", "paper_w1", "--w2", "paper_w2")
    assert code == 0
    assert parse_set(payload["w1"]) == catalog("paper_w1")
    shifts = {entry["shift"] for entry in payload["map"]}
    assert shifts == {"-2 pi", "-4 pi", "-6 pi"}
    for entry in payload["map"]:
        assert parse_set(entry["piece"]).subset_of(catalog("paper_w1"))


def test_sigma_power_two_false_verdict():
    code, payload = run_cli("sigma", "--w1", "paper_w1", "--w2", "paper_w2", "--power", "2")
    assert code == 1
    assert payload["in_commutant"] is False
    assert payload["witness"]["shift"] == "-9/4 pi"
    assert payload["witness"]["piece"] == "[17/8pi,273/128pi)"


def test_sigma_power_one_true_verdict():
    code, payload = run_cli("sigma", "--w1", "paper_w1", "--w2", "paper_w2", "--power", "1")
    assert code == 0
    assert payload["in_commutant"] is True
    assert "witness" not in payload


def test_sigma_power_beyond_cap_exit_three():
    code, payload = run_cli("sigma", "--w1", "journe", "--w2", "paper_w2", "--power", "5000")
    assert code == 3
    assert payload == {"error": "precondition", "detail": "power must lie in 1..1024, got 5000"}


def test_value_beyond_print_limit_exit_three():
    # Endpoint denominators of 2201 digits parse; the measure's has 4401, too many to print.
    big = 10**2200
    code, payload = run_cli("verify-set", "--set", f"[1/{big + 3}pi,1/{big + 1}pi)")
    assert code == 3
    assert payload["error"] == "precondition"
    assert "digits to print" in payload["detail"]


def test_sigma_rejects_non_wavelet_set():
    code, payload = run_cli("sigma", "--w1", "[1pi,2pi)", "--w2", "paper_w2")
    assert code == 3
    assert payload["error"] == "precondition"


def test_dimfn_exact_mode(tmp_path):
    csv_path = tmp_path / "step.csv"
    code, payload = run_cli(
        "dimfn",
        "--set",
        "paper_w1",
        "--window",
        "[1/64pi,1pi)",
        "--csv",
        str(csv_path),
    )
    assert code == 0
    assert payload["step_function"] == [{"piece": "[1/64pi,pi)", "value": 1}]
    with open(csv_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows[0] == {
        "lo_pi_num": "1",
        "lo_pi_den": "64",
        "hi_pi_num": "1",
        "hi_pi_den": "1",
        "value": "1",
    }


def test_dimfn_numeric_mode_msf():
    code, payload = run_cli("dimfn", "--wavelet", "msf:journe", "--grid", "64")
    assert code == 0
    assert payload["all_agree"] is True
    assert len(payload["records"]) >= 64
    record = payload["records"][0]
    assert {"xi", "rank", "dim_sum", "agree", "xi_pi", "exact"} <= set(record)
    assert all(r["truncation_exact"] is True for r in payload["records"])


def test_dimfn_numeric_csv_carries_truncation(tmp_path):
    csv_path = tmp_path / "grid.csv"
    code, payload = run_cli("dimfn", "--wavelet", "meyer", "--grid", "8", "--csv", str(csv_path))
    assert code == 0
    with open(csv_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert list(rows[0]) == ["xi", "rank", "dim_sum", "exact", "agree", "truncation_exact"]
    assert [row["truncation_exact"] for row in rows] == [
        str(r["truncation_exact"]) for r in payload["records"]
    ]


@pytest.mark.parametrize("wavelet", ["meyer", "msf:journe"])
@pytest.mark.parametrize("grid", ["0", "-5"])
def test_dimfn_grid_below_one_is_precondition_error(wavelet, grid):
    code, payload = run_cli("dimfn", "--wavelet", wavelet, "--grid", grid)
    assert code == 3
    assert payload["error"] == "precondition"


@pytest.mark.parametrize("wavelet", ["meyer", "msf:journe"])
@pytest.mark.parametrize("grid", ["65537", "100000000"])
def test_dimfn_grid_above_cap_is_precondition_error(wavelet, grid):
    code, payload = run_cli("dimfn", "--wavelet", wavelet, "--grid", grid)
    assert code == 3
    assert payload["error"] == "precondition"


@pytest.mark.parametrize(
    "mode", [["--set", "journe", "--window", "[1/8pi,1pi)"], ["--wavelet", "msf:journe", "--grid", "8"]]
)
def test_dimfn_unwritable_csv_is_usage_error(tmp_path, mode):
    # run_cli parses stdout as one JSON object, so no report may precede the error
    code, payload = run_cli("dimfn", *mode, "--csv", str(tmp_path / "missing" / "x.csv"))
    assert code == 2
    assert payload["error"] == "usage"
    assert "x.csv" in payload["detail"]


@pytest.mark.parametrize(
    "depth", [["--J", "1100"], ["--J", "0"], ["--K", "0"], ["--K", "-3"], ["--tol", "0"]]
)
def test_multiplicity_depth_out_of_range_is_precondition_error(depth):
    code, payload = run_cli("multiplicity", "--wavelet", "meyer", "--xi", "1/2pi", *depth)
    assert code == 3
    assert payload["error"] == "precondition"


@pytest.mark.parametrize(
    "args", [["dimfn", "--wavelet", "meyer", "--grid", "4"], ["multiplicity", "--wavelet", "meyer", "--xi", "1/3pi"]]
)
def test_infinite_tol_is_precondition_error(args):
    # an infinite tolerance would count no rank and report a false disagreement
    code, payload = run_cli(*args, "--tol", "inf")
    assert code == 3
    assert payload["error"] == "precondition"
    assert "finite tol > 0" in payload["detail"]


def test_dimfn_msf_builds_one_step_function(monkeypatch, capsys):
    calls = []
    build = dimension.dimension_step_function

    def counted(W, query):
        calls.append(query)
        return build(W, query)

    monkeypatch.setattr(dimension, "dimension_step_function", counted)
    monkeypatch.setattr(cli, "dimension_step_function", counted)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["dimfn", "--wavelet", "msf:journe", "--grid", "64"])
    assert exit_info.value.code == 0
    assert json.loads(capsys.readouterr().out)["all_agree"] is True
    assert len(calls) == 1


def test_dimfn_numeric_mode_meyer():
    code, payload = run_cli("dimfn", "--wavelet", "meyer", "--grid", "32", "--J", "8", "--K", "4")
    assert code == 0
    assert payload["all_agree"] is True
    assert {r["rank"] for r in payload["records"]} == {1}


def test_dimfn_mode_confusion_is_usage_error():
    code, payload = run_cli("dimfn")
    assert code == 2
    code, payload = run_cli("dimfn", "--set", "paper_w1")
    assert code == 2


def test_multiplicity_command():
    code, payload = run_cli("multiplicity", "--wavelet", "msf:journe", "--xi", "1/12pi")
    assert code == 0
    assert payload["rank"] == 2
    assert len(payload["h"]) == 12
    assert all(h >= 0 for h in payload["h"])
    assert payload["truncation_exact"] is True


def test_core_equiv_true(tmp_path):
    code, payload = run_cli(
        "core-equiv",
        "--a",
        "paper_w1",
        "--b",
        "paper_w2",
        "--window",
        "[1/64pi,1pi)",
    )
    assert code == 0
    assert payload["core_equivalent"] is True
    assert payload["differing_regions"] == ""


def test_core_equiv_false():
    code, payload = run_cli(
        "core-equiv", "--a", "shannon", "--b", "journe", "--window", "[1/8pi,1pi)"
    )
    assert code == 1
    assert payload["core_equivalent"] is False
    assert parse_set(payload["differing_regions"]) == parse_set("[1/8pi,2/7pi),[4/7pi,6/7pi)")


def run_main(capsys, *args):
    """Run `cli.main` in-process: (exit code, stdout)."""
    with pytest.raises(SystemExit) as stop:
        cli.main(list(args))
    return stop.value.code, capsys.readouterr().out


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_step_function_serialization_rows(tmp_path, capsys):
    csv_path = tmp_path / "step.csv"
    code, out = run_main(capsys, "dimfn", "--set", "journe", "--window", "[1/8pi,1pi)",
                         "--csv", str(csv_path))
    assert code == 0
    rows = read_csv(csv_path)
    assert rows[0] == {
        "lo_pi_num": "1",
        "lo_pi_den": "8",
        "hi_pi_num": "2",
        "hi_pi_den": "7",
        "value": "2",
    }
    json_obj = json.loads(out)["step_function"]
    assert {entry["value"] for entry in json_obj} == {0, 1, 2}


def test_report_serialization(tmp_path, capsys):
    # the grid is midpoint_grid(shannon, [-pi,-1/64pi) u [1/64pi,pi), 8)
    csv_path = tmp_path / "grid.csv"
    code, out = run_main(capsys, "dimfn", "--wavelet", "msf:shannon", "--grid", "8",
                         "--J", "8", "--K", "4", "--csv", str(csv_path))
    assert code == 0
    obj = json.loads(out)["records"]
    keys = {"xi", "rank", "dim_sum", "agree", "truncation_exact", "xi_pi", "exact"}
    assert keys == set(obj[0])
    assert obj[0]["truncation_exact"] is True
    rows = read_csv(csv_path)
    assert list(rows[0]) == ["xi", "rank", "dim_sum", "exact", "agree", "truncation_exact"]
    assert [record for record in obj if not record["agree"]] == []


@pytest.mark.parametrize("option", [["--grid", "0"], ["--J", "5000"], ["--K", "3"], ["--tol", "-1"]],
                         ids=["grid", "J", "K", "tol"])
def test_dimfn_numeric_option_in_exact_mode_is_usage_error(monkeypatch, capsys, option):
    def no_work(W, query):
        raise AssertionError("the step function was built")

    monkeypatch.setattr(cli, "dimension_step_function", no_work)
    code, out = run_main(capsys, "dimfn", "--set", "journe", "--window", "[1/8pi,1pi)", *option)
    assert code == 2
    detail = f"{option[0]} goes with --wavelet only, not with --set"
    assert json.loads(out) == {"error": "usage", "detail": detail}


def test_multiplicity_certificate_covers_levels():
    code, payload = run_cli("multiplicity", "--wavelet", "meyer", "--xi", "1/64pi", "--J", "2")
    assert code == 0
    assert payload["rank"] == 0
    assert payload["truncation_exact"] is False


def test_verify_set_accepts_catalog_name():
    code, payload = run_cli("verify-set", "--set", "shannon")
    assert code == 0
    assert payload["accepted"] is True
    assert parse_set(payload["set"]) == catalog("shannon")


def test_dimfn_numeric_window_is_usage_error(monkeypatch, capsys):
    def no_work(selector):
        raise AssertionError("the profile was built")

    monkeypatch.setattr(cli, "_resolve_profile", no_work)
    code, out = run_main(capsys, "dimfn", "--wavelet", "meyer", "--window", "[1/8pi,1pi)")
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "usage"
    assert "--window needs --set" in payload["detail"]


@pytest.mark.parametrize(
    "args, head, body",
    [(["--help"], "Usage: wavemult [OPTIONS] COMMAND", "Commands:"),
     (["sigma", "--help"], "Usage: wavemult sigma [OPTIONS]", "--power INTEGER")],
    ids=["group", "sigma"],
)
def test_help_prints_click_text(capsys, args, head, body):
    code, out = run_main(capsys, *args)
    assert code == 0
    assert out.startswith(head)
    assert body in out


def test_no_arguments_is_usage_error(capsys):
    code, out = run_main(capsys)
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "usage"
    assert payload["detail"].startswith("Usage: wavemult")


def test_unknown_command_is_usage_error(capsys):
    code, out = run_main(capsys, "bogus")
    assert code == 2
    assert json.loads(out) == {"error": "usage", "detail": "No such command 'bogus'."}


@pytest.mark.parametrize(
    "mode", [["--set", "journe", "--window", "[1/8pi,1pi)"], ["--wavelet", "meyer", "--grid", "4"]]
)
def test_unwritable_csv_prints_only_the_error(tmp_path, capsys, mode):
    path = tmp_path / "missing" / "x.csv"
    code, out = run_main(capsys, "dimfn", *mode, "--csv", str(path))
    assert code == 2
    payload = json.loads(out)  # one JSON document: no report precedes the error
    assert payload["error"] == "usage"
    assert payload["detail"].startswith("cannot write CSV file")
    assert not path.parent.exists()
