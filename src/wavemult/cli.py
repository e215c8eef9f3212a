"""Command-line front end: parse set expressions, run the analyses, emit JSON/CSV.

Exit codes: 0 success or true verdict, 1 false verdict, 2 usage or parse
error, 3 precondition error.  Failures print a machine-readable
``{"error": ..., "detail": ...}`` object.
"""

from __future__ import annotations

import csv
import json
import sys
from typing import Optional

import click

from .exact import IntervalSet, PreconditionError
from .parsing import SetSyntaxError, parse_scalar, parse_set
from .wavelet_sets import CATALOG_NAMES, catalog, is_wavelet_set
from .sigma import build_sigma, power_in_local_commutant
from .dimension import (
    core_equivalence_regions,
    dimension_step_function,
    midpoint_grid,
)
from .multiplicity import (
    SpectralProfile,
    gram_schmidt,
    meyer_profile,
    msf_profile,
    uniform_grid,
    verify_m_equals_d,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3

DEFAULT_NUMERIC_WINDOW = "[-1pi,-1/64pi),[1/64pi,1pi)"


def _emit(obj) -> None:
    click.echo(json.dumps(obj, indent=2))


def _resolve_set(text: str) -> IntervalSet:
    """Accept either a catalog name or a set expression."""
    if text in CATALOG_NAMES:
        return catalog(text)
    return parse_set(text)


def _resolve_profile(selector: str) -> SpectralProfile:
    if selector == "meyer":
        return meyer_profile()
    if selector.startswith("msf:"):
        return msf_profile(_resolve_set(selector[len("msf:"):]))
    raise click.UsageError(
        f"unknown wavelet selector {selector!r}; use msf:NAME_OR_EXPR or meyer"
    )


def _write_csv(path: str, rows: list[dict], columns: list[str]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


@click.group()
def cli() -> None:
    """Exact and numerical wavelet multiplicity toolkit."""


@cli.command("catalog")
def catalog_cmd() -> None:
    """List the named wavelet sets and their canonical forms."""
    _emit({name: catalog(name).to_text() for name in CATALOG_NAMES})


@cli.command("verify-set")
@click.option("--name", "name", default=None, help="Catalog name to verify.")
@click.option("--set", "expr", default=None, help="Set expression to verify.")
def verify_set_cmd(name: Optional[str], expr: Optional[str]) -> None:
    """Run both wavelet-set congruence checks; exit 0 iff accepted."""
    if (name is None) == (expr is None):
        raise click.UsageError("provide exactly one of --name or --set")
    W = catalog(name) if name is not None else parse_set(expr)
    report = is_wavelet_set(W)
    obj = {
        "set": W.to_text(),
        "accepted": report.accepted,
        "translation_congruent": report.is_translation_congruent,
        "dilation_congruent": report.is_dilation_congruent,
        "measure": W.measure().shift_text(),
        "measure_float": float(W.measure()),
        "failure_regions": report.failure_regions.to_text(),
    }
    if report.tau_witness is not None:
        obj["tau"] = report.tau_witness.to_json_obj()
    _emit(obj)
    sys.exit(EXIT_OK if report.accepted else EXIT_FALSE)


@cli.command("dimfn")
@click.option("--set", "expr", default=None, help="Wavelet set (name or expression): exact mode.")
@click.option("--window", "window_expr", default=None, help="Query window expression (exact mode).")
@click.option("--wavelet", "wavelet", default=None, help="msf:NAME_OR_EXPR or meyer: numerical mode.")
@click.option("--grid", "grid_n", default=64, show_default=True, help="Grid points (numerical mode).")
@click.option("--J", "j_max", default=12, show_default=True, help="Largest dilation level.")
@click.option("--K", "k_max", default=8, show_default=True, help="Fiber truncation radius.")
@click.option("--tol", default=1e-9, show_default=True, help="Relative rank tolerance.")
@click.option("--csv", "csv_path", default=None, type=click.Path(), help="Also write CSV rows here.")
def dimfn_cmd(expr, window_expr, wavelet, grid_n, j_max, k_max, tol, csv_path) -> None:
    """Exact step function of an MSF set, or a numerical grid report."""
    if (expr is None) == (wavelet is None):
        raise click.UsageError("provide either --set/--window (exact) or --wavelet (numerical)")
    if expr is not None:
        if window_expr is None:
            raise click.UsageError("exact mode needs --window")
        W = _resolve_set(expr)
        window = parse_set(window_expr)
        step = dimension_step_function(W, window)
        _emit(
            {
                "set": W.to_text(),
                "window": window.to_text(),
                "step_function": step.to_json_obj(),
            }
        )
        if csv_path:
            _write_csv(
                csv_path,
                step.to_csv_rows(),
                ["lo_pi_num", "lo_pi_den", "hi_pi_num", "hi_pi_den", "value"],
            )
        sys.exit(EXIT_OK)

    profile = _resolve_profile(wavelet)
    window = parse_set(DEFAULT_NUMERIC_WINDOW)
    msf = profile.kind == "msf"
    grid = midpoint_grid(profile.msf_set, window, grid_n) if msf else uniform_grid(window, grid_n)
    report = verify_m_equals_d(profile, grid, j_max, k_max, tol)
    _emit(
        {
            "wavelet": wavelet,
            "window": window.to_text(),
            "J": j_max,
            "K": k_max,
            "tol": tol,
            "records": report.to_json_obj(),
            "all_agree": report.all_agree,
        }
    )
    if csv_path:
        _write_csv(csv_path, report.to_csv_rows(), list(report.CSV_COLUMNS))
    sys.exit(EXIT_OK if report.all_agree else EXIT_FALSE)


@cli.command("multiplicity")
@click.option("--wavelet", required=True, help="msf:NAME_OR_EXPR or meyer.")
@click.option("--xi", "xi_expr", required=True, help="Base point, e.g. '1/2pi'.")
@click.option("--J", "j_max", default=12, show_default=True)
@click.option("--K", "k_max", default=8, show_default=True)
@click.option("--tol", default=1e-9, show_default=True)
def multiplicity_cmd(wavelet, xi_expr, j_max, k_max, tol) -> None:
    """Numerical multiplicity at one base point, with the weight list h_j."""
    profile = _resolve_profile(wavelet)
    xi = parse_scalar(xi_expr)
    state = gram_schmidt(profile, float(xi), j_max, k_max, tol)
    _emit(
        {
            "wavelet": wavelet,
            "xi": xi.shift_text(),
            "xi_float": float(xi),
            "rank": state.rank,
            "h": [float(h) for h in state.h_values],
            "truncation_exact": state.truncation_exact,
        }
    )
    sys.exit(EXIT_OK)


@cli.command("sigma")
@click.option("--w1", required=True, help="Source wavelet set (name or expression).")
@click.option("--w2", required=True, help="Target wavelet set (name or expression).")
@click.option("--power", default=None, type=int, help="Also compose this power and test it.")
def sigma_cmd(w1, w2, power) -> None:
    """Canonical 2*pi-translation bijection w1 -> w2; optionally test a power."""
    sigma = build_sigma(_resolve_set(w1), _resolve_set(w2))
    obj = sigma.to_json_obj()
    if power is None:
        _emit(obj)
        sys.exit(EXIT_OK)
    verdict = power_in_local_commutant(sigma, power)
    obj.update(verdict.to_json_obj())
    _emit(obj)
    sys.exit(EXIT_OK if verdict.in_commutant else EXIT_FALSE)


@cli.command("core-equiv")
@click.option("--a", "a_expr", required=True, help="First wavelet set (name or expression).")
@click.option("--b", "b_expr", required=True, help="Second wavelet set (name or expression).")
@click.option("--window", "window_expr", required=True, help="Query window expression.")
def core_equiv_cmd(a_expr, b_expr, window_expr) -> None:
    """Compare exact dimension functions on a window; exit 0 iff identical."""
    a = _resolve_set(a_expr)
    b = _resolve_set(b_expr)
    window = parse_set(window_expr)
    differing = core_equivalence_regions(a, b, window)
    equivalent = differing.is_empty
    _emit(
        {
            "a": a.to_text(),
            "b": b.to_text(),
            "window": window.to_text(),
            "core_equivalent": equivalent,
            "differing_regions": differing.to_text(),
        }
    )
    sys.exit(EXIT_OK if equivalent else EXIT_FALSE)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        return cli.main(args=argv, prog_name="wavemult", standalone_mode=False)
    except SetSyntaxError as err:
        _emit({"error": "parse", "detail": str(err)})
        sys.exit(EXIT_USAGE)
    except KeyError as err:
        _emit({"error": "usage", "detail": str(err.args[0]) if err.args else str(err)})
        sys.exit(EXIT_USAGE)
    except PreconditionError as err:
        _emit({"error": "precondition", "detail": str(err)})
        sys.exit(EXIT_PRECONDITION)
    except click.UsageError as err:
        _emit({"error": "usage", "detail": err.format_message()})
        sys.exit(EXIT_USAGE)
    except click.ClickException as err:
        _emit({"error": "usage", "detail": err.format_message()})
        sys.exit(err.exit_code)


if __name__ == "__main__":
    main()
