"""Command-line driver: single evaluations, sweeps, and cross-verification.

Commands
    exact     closed-form average mutual information with its breakdown
    series    divergent large-N expansion, superasymptotically truncated
    integral  convergent Bose-Einstein integral route
    oracle    Haar Monte Carlo sampling statistics
    verify    run every route and check the cross-route agreement criteria
    sweep     tabulate routes over dimension ranges

Exit codes: 0 success, 2 invalid input (including ``series`` or
``integral`` on a swapped triple, d_A d_B > d_E, and any triple with
N >= 2**1024), 3 numerical failure
(quadrature tolerance unattainable, validity violation, worker failure),
4 verification failure, 5 output I/O error.

Output is deterministic for identical argv and environment: CSV/JSON use
round-trip-exact float text, and no timestamps are emitted.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from . import __version__
from .dims import _KEY_LIMIT, RNG_IDENTITY, Dimensions, _oracle_refusal, leading_order
from .errors import (
    DomainError,
    HaarMIError,
    InvalidDimensionError,
    RegimeError,
)
from .integral import _TOL_DEFAULT, _deficit, _j_rows, compute_J
from .page import (
    MutualInformationBreakdown,
    mutual_information_exact,
    mutual_information_rational,
)
from .series import K_MAX_DEFAULT, _check_k_max, expand

if TYPE_CHECKING:
    from .sampling import HaarSampleStats

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY_FAILED = 4
EXIT_IO = 5

#: Environment override for the default --seed.
SEED_ENV = "HAAR_MI_SEED"

CSV_COLUMNS = [
    "dA",
    "dB",
    "dE",
    "N",
    "regime",
    "I_exact",
    "I_diag",
    "Delta_ev",
    "I_leading",
    "I_series_opt",
    "series_err",
    "I_integral",
    "J",
    "bound_deficit",
    "oracle_mean",
    "oracle_stderr",
]

_CSV_DIGITS = 17
_TABLE_DIGITS = 10


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation parameters for one command; the defaults are
    the parser's."""

    command: str
    tol: float
    k_max: int
    n_samples: int
    seed: int
    workers: int
    output_format: str
    d_a: int | None = None
    d_b: int | None = None
    d_e: int | None = None
    da_range: tuple[int, int] | None = None
    db_range: tuple[int, int] | None = None
    de_range: tuple[int, int] | None = None
    de_mult_range: tuple[int, int] | None = None
    output_path: str | None = None


@dataclass
class RunResult:
    """Rows in the common column schema plus command-specific extras."""

    rows: list[dict] = field(default_factory=list)
    checks: list[dict] | None = None
    table_lines: list[str] = field(default_factory=list)


def _parse_span(text: str) -> tuple[int, int]:
    """Inclusive integer range: '3' -> (3, 3); '2..4' -> (2, 4)."""
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed range {text!r}") from None
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"empty or non-positive range {text!r}")
    return lo, hi


def _seed(text: str) -> int:
    """A seed from ``--seed`` or, as the option's string default, from
    ``$HAAR_MI_SEED``: an integer in 0 .. 2**64 - 1."""
    try:
        seed = int(text)
        if 0 <= seed < _KEY_LIMIT:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"must be an integer in 0 .. 2**64 - 1, from the option or "
        f"${SEED_ENV}; got {text!r}"
    )


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=_TOL_DEFAULT,
                        help="relative quadrature tolerance (default %(default)s)")
    common.add_argument("--kmax", dest="k_max", type=int, default=K_MAX_DEFAULT,
                        help="number of series terms (default %(default)s)")
    common.add_argument("--samples", dest="n_samples", type=int, default=20000,
                        help="Monte Carlo sample count (default %(default)s)")
    common.add_argument("--seed", type=_seed, default=os.environ.get(SEED_ENV, "42"),
                        help=f"RNG seed (default 42, or ${SEED_ENV})")
    common.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                        help="Monte Carlo worker threads (default: CPU count)")
    common.add_argument("--format", dest="output_format",
                        choices=("table", "csv", "json"), default="table",
                        help="output format (default %(default)s)")
    common.add_argument("--out", dest="output_path", default=None,
                        help="write output to this path instead of stdout")

    single = argparse.ArgumentParser(add_help=False)
    single.add_argument("--da", dest="d_a", metavar="DA", type=int,
                        required=True, help="dimension of A")
    single.add_argument("--db", dest="d_b", metavar="DB", type=int,
                        required=True, help="dimension of B")
    single.add_argument("--de", dest="d_e", metavar="DE", type=int,
                        required=True, help="dimension of the environment E")

    parser = argparse.ArgumentParser(
        prog="haarmi",
        description="Average mutual information of Haar-random bipartite "
                    "pure states, by four independent routes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("exact", "closed-form value with diagonal/eigenvector breakdown"),
        ("series", "superasymptotically truncated large-N expansion"),
        ("integral", "convergent integral route with strict-bound deficit"),
        ("oracle", "Haar Monte Carlo sampling statistics"),
        ("verify", "cross-check all routes and report pass/fail"),
    ):
        sub.add_parser(name, parents=[common, single], help=help_text)

    sweep = sub.add_parser("sweep", parents=[common],
                           help="tabulate routes over dimension ranges")
    sweep.add_argument("--da", dest="da_range", metavar="DA", type=_parse_span,
                       required=True, help="range for d_A, e.g. 2..4 or 3")
    sweep.add_argument("--db", dest="db_range", metavar="DB", type=_parse_span,
                       required=True, help="range for d_B")
    group = sweep.add_mutually_exclusive_group(required=True)
    group.add_argument("--de", dest="de_range", metavar="DE", type=_parse_span,
                       help="explicit range for d_E (may leave the "
                            "factorised regime)")
    group.add_argument("--de-mult", dest="de_mult_range", metavar="DE_MULT",
                       type=_parse_span,
                       help="range of multipliers m, with d_E = m*d_A*d_B "
                            "(factorised by construction)")
    return parser


def parse_args(argv: list[str]) -> RunConfig:
    """Parse and validate argv into a RunConfig (usage errors exit 2)."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not 0.0 < args.tol < 1.0:
        parser.error("--tol must be in (0, 1)")
    try:
        _check_k_max(args.k_max)
    except DomainError as exc:
        parser.error(f"--kmax: {exc}")
    if args.command in ("oracle", "verify") and args.n_samples < 2:
        parser.error("--samples must be >= 2 for oracle and verify")
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    if args.command != "sweep" and min(args.d_a, args.d_b, args.d_e) < 1:
        parser.error("--da, --db and --de must be >= 1")
    return RunConfig(**vars(args))


def _format_number(value, digits: int) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return format(value, f".{digits}g")


def _empty_row(dims: Dimensions) -> dict:
    row = {name: None for name in CSV_COLUMNS}
    row.update(
        dA=dims.d_a, dB=dims.d_b, dE=dims.d_e, N=dims.n,
        regime=dims.regime_label,
    )
    return row


def _fill_exact(row: dict, dims: Dimensions) -> MutualInformationBreakdown:
    breakdown = mutual_information_exact(dims)
    row.update(
        I_exact=breakdown.total,
        I_diag=breakdown.i_diag,
        Delta_ev=breakdown.delta_ev,
        I_leading=leading_order(dims),
    )
    return breakdown


def _fill_series(row: dict, dims: Dimensions, k_max: int):
    expansion = expand(dims, k_max)
    row.update(
        I_leading=expansion.leading,
        I_series_opt=expansion.value_at_optimal,
        series_err=expansion.error_estimate,
    )
    return expansion


def _has_j(dims: Dimensions) -> bool:
    """Whether the integral route computes J: in the factorised regime,
    unless a dimension is 1 (su = 0, and the route is exactly 0)."""
    return dims.factorised_regime and dims.d_a > 1 and dims.d_b > 1


def _j_value(dims: Dimensions, tol: float) -> float | None:
    """J of a single triple by :func:`compute_J`, or None without one."""
    return compute_J(dims, tol).value if _has_j(dims) else None


def _fill_integral(row: dict, dims: Dimensions, j: float | None) -> None:
    """The integral route's columns from J (None where a dimension is 1)."""
    lead = leading_order(dims)
    if j is None:
        row.update(I_integral=0.0, bound_deficit=0.0, I_leading=lead)
        return
    deficit = _deficit(dims, j)
    row.update(I_integral=lead - deficit, J=j, bound_deficit=deficit, I_leading=lead)


def _strict_bound(row: dict) -> tuple[str, str]:
    """Status and detail of the strict bound ``<I> < su/(2N)`` on a row with
    J: it holds when ``Jhat > 0``, for ``J = Jhat/(C d_e)^2``."""
    j = row["J"]
    # the quadrature raises where Jhat is 0, so J = +0.0 is a positive Jhat
    # that underflowed (C d_e past about 2**537): the sign survives underflow
    status = "pass" if j >= 0.0 and math.copysign(1.0, j) > 0.0 else "fail"
    claim = "(> 0)" if j else "(J underflows to 0)"
    return status, f"bound_deficit = {row['bound_deficit']:.6e} {claim}"


def _fill_analytic(row: dict, dims: Dimensions, k_max: int, j: float | None) -> None:
    """The exact route, plus the series and integral routes where they are
    defined (the factorised regime), the latter from J."""
    _fill_exact(row, dims)
    if dims.factorised_regime:
        _fill_series(row, dims, k_max)
        _fill_integral(row, dims, j)


def run_oracle(
    dims: Dimensions, n_samples: int, seed: int, workers: int = 1
) -> HaarSampleStats:
    """:func:`haarmi.sampling.run_oracle`, imported (with numpy) on the first
    call, so the commands that do not sample never load it.  A module-level
    name only because perfbench's tracer wraps ``haarmi.cli.run_oracle``."""
    from .sampling import run_oracle as sample

    return sample(dims, n_samples, seed, workers)


def _fill_oracle(row: dict, dims: Dimensions, config: RunConfig) -> HaarSampleStats:
    stats = run_oracle(dims, config.n_samples, config.seed, config.workers)
    row.update(
        oracle_mean=stats.mean_mutual_information,
        oracle_stderr=stats.stderr_mutual_information,
    )
    return stats


def _kv_lines(pairs: list[tuple[str, object]]) -> list[str]:
    width = max(len(key) for key, _ in pairs)
    return [
        f"{key.ljust(width)}  {_format_number(value, _TABLE_DIGITS)}"
        for key, value in pairs
    ]


def _row_pairs(row: dict, *names: str) -> list[tuple[str, object]]:
    return [(name, row[name]) for name in names]


# Each single-triple view fills ``row``, may append verify checks, and
# returns the table pairs that follow the ``dims`` line.


def _exact_view(row, dims, config, checks):
    g_value = _fill_exact(row, dims).g_value
    pairs = _row_pairs(row, "regime", "I_exact", "I_diag", "Delta_ev", "I_leading")
    if g_value is not None:
        pairs.append(("g_value", g_value))
    return pairs


def _series_view(row, dims, config, checks):
    expansion = _fill_series(row, dims, config.k_max)
    return _row_pairs(row, "I_leading", "I_series_opt", "series_err") + [
        ("optimal_k", expansion.optimal_k),
        ("divergence_k", expansion.divergence_k
         if expansion.divergence_k is not None else "none"),
    ]


def _integral_view(row, dims, config, checks):
    dims.require_factorised("integral")
    _fill_integral(row, dims, _j_value(dims, config.tol))
    shown = row if row["J"] is not None else dict(row, J="n/a (dimension 1)")
    return _row_pairs(shown, "I_integral", "J", "I_leading", "bound_deficit")


#: The ``oracle`` table: each label and the HaarSampleStats field it shows;
#: the Bloch-sector fields are None, and not shown, when ``d_a = 1``.
_ORACLE_TABLE = (
    ("samples", "n_samples"), ("seed", "seed"), ("rng", "rng"),
    ("mean_I", "mean_mutual_information"),
    ("stderr_I", "stderr_mutual_information"),
    ("mean_S_A", "mean_entropy_a"), ("mean_S_B", "mean_entropy_b"),
    ("mean_S_AB", "mean_entropy_ab"), ("mean_purity_A", "mean_purity_a"),
    ("mean_diag_S_A", "mean_diagonal_entropy_a"),
    ("mean_diag_2nd_A", "mean_diagonal_second_moment_a"),
    ("cartan_var", "cartan_var"), ("offdiag_var", "offdiag_var"),
)


def _oracle_view(row, dims, config, checks):
    stats = _fill_oracle(row, dims, config)
    pairs = [(label, getattr(stats, name)) for label, name in _ORACLE_TABLE]
    return [(label, value) for label, value in pairs if value is not None]


def _verify_view(row, dims, config, checks):
    _fill_analytic(row, dims, config.k_max, _j_value(dims, config.tol))
    exact_value = row["I_exact"]
    rational_value = float(mutual_information_rational(dims))

    def record(name: str, status: str, detail: str) -> None:
        checks.append({"name": name, "status": status, "detail": detail})

    def compare(name: str, label: str, value: float, band: float,
                band_text: str = "") -> None:
        diff = abs(exact_value - value)
        record(name, "pass" if diff <= band else "fail",
               f"|exact - {label}| = {diff:.3e} (<= {band_text}{band:.3e})")

    # Every band scales with |I|, which falls like 1/N.  A band is 0 when a
    # dimension is 1; the values are then exactly 0.0.
    compare("rational_route", "rational", rational_value,
            1e-13 * abs(rational_value))

    if dims.factorised_regime:
        # The floor keeps a tolerance below binary64 noise from failing.
        compare("integral_route", "integral", row["I_integral"],
                max(1e-14, 10.0 * config.tol) * abs(exact_value))
        # The superasymptotic error estimate can sit far below binary64
        # summation noise; the floor keeps the check meaningful there.
        compare("series_route", "series_opt", row["I_series_opt"],
                max(2.0 * row["series_err"], 2e-15 * abs(exact_value)))

        if row["J"] is None:
            record("strict_bound", "skipped",
                   "a dimension is 1: <I> = leading order = 0")
        else:
            record("strict_bound", *_strict_bound(row))
    else:
        for name in ("integral_route", "series_route", "strict_bound"):
            record(name, "skipped", "swapped regime: factorised-only route")

    # The oracle's own admission rule: skipped exactly where it refuses.
    refusal = _oracle_refusal(dims)
    cells = {}
    if refusal:
        _, reason, short = refusal
        record("oracle_3se", "skipped", reason)
        cells = dict.fromkeys(("oracle_mean", "oracle_stderr"), f"n/a ({short})")
    else:
        stats = _fill_oracle(row, dims, config)
        compare("oracle_3se", "oracle_mean", stats.mean_mutual_information,
                3.0 * stats.stderr_mutual_information, "3*SE = ")

    shown = dict(row, I_rational=rational_value, **cells)
    return _row_pairs(shown, "regime", "I_exact", "I_rational", "I_series_opt",
                      "I_integral", "oracle_mean", "oracle_stderr")


_SINGLE_VIEWS = {
    "exact": _exact_view,
    "series": _series_view,
    "integral": _integral_view,
    "oracle": _oracle_view,
    "verify": _verify_view,
}


def _run_single(config: RunConfig) -> RunResult:
    """One triple: its row, its table (``dims`` line, the view's pairs, then
    any check lines) and its checks."""
    dims = Dimensions(config.d_a, config.d_b, config.d_e)
    row = _empty_row(dims)
    checks: list[dict] = []
    pairs = _SINGLE_VIEWS[config.command](row, dims, config, checks)
    lines = _kv_lines(
        [("dims", f"({dims.d_a}, {dims.d_b}, {dims.d_e})  N={dims.n}"), *pairs]
    )
    if checks:
        lines.append("")
        lines.extend(
            f"[{check['status'].upper():>7}] {check['name']}: {check['detail']}"
            for check in checks
        )
    return RunResult(rows=[row], checks=checks or None, table_lines=lines)


def _run_sweep(config: RunConfig) -> RunResult:
    grid = []
    da_lo, da_hi = config.da_range
    db_lo, db_hi = config.db_range
    for d_a in range(da_lo, da_hi + 1):
        for d_b in range(db_lo, db_hi + 1):
            if config.de_mult_range is not None:
                mult_lo, mult_hi = config.de_mult_range
                de_values = [m * d_a * d_b for m in range(mult_lo, mult_hi + 1)]
            else:
                de_values = range(config.de_range[0], config.de_range[1] + 1)
            grid.extend(Dimensions(d_a, d_b, d_e) for d_e in de_values)
    # Every row's J from one quadrature; none, and no numpy, if no row has J.
    with_j = [dims for dims in grid if _has_j(dims)]
    js = iter(_j_rows(with_j, config.tol) if with_j else ())
    rows = []
    for dims in grid:
        row = _empty_row(dims)
        _fill_analytic(row, dims, config.k_max, next(js).value if _has_j(dims) else None)
        rows.append(row)
    if config.output_format != "table":
        return RunResult(rows=rows)

    header = CSV_COLUMNS
    body = [
        [_format_number(row[name], _TABLE_DIGITS) for name in header]
        for row in rows
    ]
    widths = [
        max(len(header[i]), max((len(line[i]) for line in body), default=0))
        for i in range(len(header))
    ]
    lines = ["  ".join(name.ljust(widths[i]) for i, name in enumerate(header))]
    for line in body:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)))
    return RunResult(rows=rows, table_lines=lines)


def emit(result: RunResult, output_format: str, metadata: dict) -> str:
    """Serialize rows (and verify checks) to table, CSV or JSON text."""
    if output_format == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for row in result.rows:
            lines.append(
                ",".join(_format_number(row[name], _CSV_DIGITS)
                         for name in CSV_COLUMNS)
            )
        return "\n".join(lines) + "\n"
    if output_format == "json":
        payload: dict = {"metadata": metadata, "rows": result.rows}
        if result.checks is not None:
            payload["checks"] = result.checks
        return json.dumps(payload, indent=2) + "\n"
    lines = list(result.table_lines)
    lines.append("")
    lines.append(
        f"version {metadata['version']}  seed {metadata['seed']}  "
        f"tol {metadata['tol']:g}"
    )
    return "\n".join(lines) + "\n"


def run(config: RunConfig) -> int:
    """Execute a validated config; returns the process exit code."""
    try:
        result = (_run_sweep(config) if config.command == "sweep"
                  else _run_single(config))
    except (InvalidDimensionError, DomainError, RegimeError) as exc:
        print(f"haarmi: invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HaarMIError as exc:
        print(f"haarmi: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    metadata = {
        "version": __version__,
        "seed": config.seed,
        "tol": config.tol,
        "rng": RNG_IDENTITY,
    }
    text = emit(result, config.output_format, metadata)
    if config.output_path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(config.output_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"haarmi: cannot write output: {exc}", file=sys.stderr)
            return EXIT_IO

    failed = [c["name"] for c in result.checks or () if c["status"] == "fail"]
    if failed:
        print(f"haarmi: verification failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    config = parse_args(sys.argv[1:] if argv is None else argv)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
