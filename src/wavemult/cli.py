"""Command-line front end: parse set expressions, run the analyses, emit JSON/CSV.

Exit codes: 0 success or true verdict, 1 false verdict, 2 usage or parse
error, 3 precondition error.  Failures print a machine-readable
``{"error": ..., "detail": ...}`` object.  Each command returns its payload
and exit code; only `main` prints and exits.  This module alone defines the
output formats: every JSON payload is built here from the library's data, and
so are the two CSV tables under the headers below.
"""

from __future__ import annotations

import csv
import json
import sys
from operator import attrgetter
from typing import TYPE_CHECKING, NoReturn, Optional

import click
from click.core import ParameterSource

from .exact import IntervalSet, PreconditionError, RationalPi
from .parsing import SetSyntaxError, parse_scalar, parse_set
from .wavelet_sets import CATALOG_NAMES, PiecewiseTranslation, catalog, is_wavelet_set
from .sigma import build_sigma, power_in_local_commutant
from .dimension import core_equivalence_regions, dimension_step_function

# The numeric commands import `multiplicity`, and numpy with it, where they
# use it, so the exact commands never load numpy.
if TYPE_CHECKING:
    from .multiplicity import SpectralProfile

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3

DEFAULT_NUMERIC_WINDOW = "[-1pi,-1/64pi),[1/64pi,1pi)"
NUMERIC_ONLY = ("grid_n", "j_max", "k_max", "tol")  # dimfn options that need --wavelet

# CSV headers of the exact step function and of the numeric grid report (`GridRecord` fields).
STEP_CSV_COLUMNS = ("lo_pi_num", "lo_pi_den", "hi_pi_num", "hi_pi_den", "value")
GRID_CSV_COLUMNS = ("xi", "rank", "dim_sum", "exact", "agree", "truncation_exact")

# What every command returns: its JSON payload and its exit code.
Result = tuple[dict, int]


def _emit(obj) -> None:
    click.echo(json.dumps(obj, indent=2))


def _resolve_set(text: str) -> IntervalSet:
    """Accept either a catalog name or a set expression."""
    if text in CATALOG_NAMES:
        return catalog(text)
    return parse_set(text)


def _resolve_profile(selector: str) -> SpectralProfile:
    from .multiplicity import meyer_profile, msf_profile

    if selector == "meyer":
        return meyer_profile()
    if selector.startswith("msf:"):
        return msf_profile(_resolve_set(selector[len("msf:"):]))
    raise click.UsageError(
        f"unknown wavelet selector {selector!r}; use msf:NAME_OR_EXPR or meyer"
    )


def _shift_entry(piece, shift: RationalPi) -> dict:
    """JSON entry of one piece (an Interval or an IntervalSet) and its shift."""
    return {"piece": piece.to_text(), "shift": shift.shift_text(), "shift_float": float(shift)}


def _map_entries(mapping: PiecewiseTranslation) -> list[dict]:
    return [_shift_entry(piece, shift) for piece, shift in mapping.pairs]


def _write_csv(path: str, columns: tuple[str, ...], rows) -> None:
    """Write the rows under the header `columns`; a None cell is written empty."""
    try:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(columns)
            writer.writerows(rows)
    except OSError as err:
        raise click.UsageError(f"cannot write CSV file {path!r}: {err.strerror or err}") from None


@click.group()
def cli() -> None:
    """Exact and numerical wavelet multiplicity toolkit."""


@cli.command("catalog")
def catalog_cmd() -> Result:
    """List the named wavelet sets and their canonical forms."""
    return {name: catalog(name).to_text() for name in CATALOG_NAMES}, EXIT_OK


@cli.command("verify-set")
@click.option("--name", "name", default=None, help="Catalog name to verify.")
@click.option("--set", "expr", default=None, help="Set expression to verify.")
def verify_set_cmd(name: Optional[str], expr: Optional[str]) -> Result:
    """Run both wavelet-set congruence checks; exit 0 iff accepted."""
    if (name is None) == (expr is None):
        raise click.UsageError("provide exactly one of --name or --set")
    W = catalog(name) if name is not None else _resolve_set(expr)
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
        obj["tau"] = _map_entries(report.tau_witness)
    return obj, EXIT_OK if report.accepted else EXIT_FALSE


@cli.command("dimfn")
@click.option("--set", "expr", default=None, help="Wavelet set (name or expression): exact mode.")
@click.option("--window", "window_expr", default=None, help="Query window expression (exact mode).")
@click.option("--wavelet", "wavelet", default=None, help="msf:NAME_OR_EXPR or meyer: numerical mode.")
@click.option("--grid", "grid_n", default=64, show_default=True, help="Grid points (numerical mode).")
@click.option("--J", "j_max", default=12, show_default=True, help="Largest dilation level.")
@click.option("--K", "k_max", default=8, show_default=True, help="Fiber truncation radius.")
@click.option("--tol", default=1e-9, show_default=True, help="Relative rank tolerance.")
@click.option("--csv", "csv_path", default=None, type=click.Path(), help="Also write CSV rows here.")
def dimfn_cmd(expr, window_expr, wavelet, grid_n, j_max, k_max, tol, csv_path) -> Result:
    """Exact step function of an MSF set, or a numerical grid report."""
    if (expr is None) == (wavelet is None):
        raise click.UsageError("provide either --set/--window (exact) or --wavelet (numerical)")
    if expr is not None:
        ctx = click.get_current_context()
        given = [param.opts[0] for param in ctx.command.params if param.name in NUMERIC_ONLY
                 and ctx.get_parameter_source(param.name) is ParameterSource.COMMANDLINE]
        if given:
            raise click.UsageError(f"{given[0]} goes with --wavelet only, not with --set")
        if window_expr is None:
            raise click.UsageError("exact mode needs --window")
        W = _resolve_set(expr)
        window = parse_set(window_expr)
        step = dimension_step_function(W, window)
        if csv_path:
            rows = ((iv.lo.num, iv.lo.den, iv.hi.num, iv.hi.den, value) for iv, value in step.rows())
            _write_csv(csv_path, STEP_CSV_COLUMNS, rows)
        return {
            "set": W.to_text(),
            "window": window.to_text(),
            "step_function": [{"piece": piece.to_text(), "value": value} for piece, value in step.pairs],
        }, EXIT_OK
    if window_expr is not None:
        raise click.UsageError(f"--window needs --set; numerical mode uses {DEFAULT_NUMERIC_WINDOW}")

    from .multiplicity import uniform_grid, verify_m_equals_d

    profile = _resolve_profile(wavelet)
    window = parse_set(DEFAULT_NUMERIC_WINDOW)
    if profile.kind == "msf":
        # One exact step function gives both the grid and the exact counts.
        step = dimension_step_function(profile.msf_set, window)
        grid = step.midpoint_grid(grid_n)
    else:
        step, grid = None, uniform_grid(window, grid_n)
    report = verify_m_equals_d(profile, grid, j_max, k_max, tol, step)
    if csv_path:
        _write_csv(csv_path, GRID_CSV_COLUMNS, map(attrgetter(*GRID_CSV_COLUMNS), report.records))
    records = []
    for r in report.records:
        record = {k: getattr(r, k) for k in ("xi", "rank", "dim_sum", "agree", "truncation_exact")}
        if r.xi_text is not None:
            record["xi_pi"] = r.xi_text
        if r.exact is not None:
            record["exact"] = r.exact
        records.append(record)
    return {
        "wavelet": wavelet,
        "window": window.to_text(),
        "J": j_max,
        "K": k_max,
        "tol": tol,
        "records": records,
        "all_agree": report.all_agree,
    }, EXIT_OK if report.all_agree else EXIT_FALSE


@cli.command("multiplicity")
@click.option("--wavelet", required=True, help="msf:NAME_OR_EXPR or meyer.")
@click.option("--xi", "xi_expr", required=True, help="Base point, e.g. '1/2pi'.")
@click.option("--J", "j_max", default=12, show_default=True)
@click.option("--K", "k_max", default=8, show_default=True)
@click.option("--tol", default=1e-9, show_default=True)
def multiplicity_cmd(wavelet, xi_expr, j_max, k_max, tol) -> Result:
    """Numerical multiplicity at one base point, with the weight list h_j."""
    from .multiplicity import gram_schmidt

    profile = _resolve_profile(wavelet)
    xi = parse_scalar(xi_expr)
    state = gram_schmidt(profile, float(xi), j_max, k_max, tol)
    return {
        "wavelet": wavelet,
        "xi": xi.shift_text(),
        "xi_float": float(xi),
        "rank": state.rank,
        "h": [float(h) for h in state.h_values],
        "truncation_exact": state.truncation_exact,
    }, EXIT_OK


@cli.command("sigma")
@click.option("--w1", required=True, help="Source wavelet set (name or expression).")
@click.option("--w2", required=True, help="Target wavelet set (name or expression).")
@click.option("--power", default=None, type=int, help="Also compose this power and test it.")
def sigma_cmd(w1, w2, power) -> Result:
    """Canonical 2*pi-translation bijection w1 -> w2; optionally test a power."""
    sigma = build_sigma(_resolve_set(w1), _resolve_set(w2))
    obj = {"w1": sigma.w1.to_text(), "w2": sigma.w2.to_text(), "map": _map_entries(sigma.mapping)}
    if power is None:
        return obj, EXIT_OK
    verdict = power_in_local_commutant(sigma, power)
    obj.update(power=verdict.power, composed=_map_entries(verdict.composed),
               in_commutant=verdict.in_commutant)
    if verdict.witness is not None:
        obj["witness"] = _shift_entry(*verdict.witness)
    return obj, EXIT_OK if verdict.in_commutant else EXIT_FALSE


@cli.command("core-equiv")
@click.option("--a", "a_expr", required=True, help="First wavelet set (name or expression).")
@click.option("--b", "b_expr", required=True, help="Second wavelet set (name or expression).")
@click.option("--window", "window_expr", required=True, help="Query window expression.")
def core_equiv_cmd(a_expr, b_expr, window_expr) -> Result:
    """Compare exact dimension functions on a window; exit 0 iff identical."""
    a = _resolve_set(a_expr)
    b = _resolve_set(b_expr)
    window = parse_set(window_expr)
    differing = core_equivalence_regions(a, b, window)
    equivalent = differing.is_empty
    return {
        "a": a.to_text(),
        "b": b.to_text(),
        "window": window.to_text(),
        "core_equivalent": equivalent,
        "differing_regions": differing.to_text(),
    }, EXIT_OK if equivalent else EXIT_FALSE


def main(argv: Optional[list[str]] = None) -> NoReturn:
    """Run one command, print its JSON answer or error, and exit with its code."""
    try:
        result = cli.main(args=argv, prog_name="wavemult", standalone_mode=False)
    except SetSyntaxError as err:
        result = {"error": "parse", "detail": str(err)}, EXIT_USAGE
    except KeyError as err:
        result = {"error": "usage", "detail": str(err.args[0]) if err.args else str(err)}, EXIT_USAGE
    except PreconditionError as err:
        result = {"error": "precondition", "detail": str(err)}, EXIT_PRECONDITION
    except click.ClickException as err:  # usage errors included, exit 2
        result = {"error": "usage", "detail": err.format_message()}, err.exit_code
    # `--help` has printed click's text, and click returns only its exit code.
    payload, code = (None, result) if isinstance(result, int) else result
    if payload is not None:
        _emit(payload)
    sys.exit(code)


if __name__ == "__main__":
    main()
