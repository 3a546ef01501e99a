"""Command-line surface: parsing, exit codes, serialization schemas."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from haarmi import (
    NonConvergenceError,
    compute_J,
    Dimensions,
    casimir_counts,
    leading_order,
    mutual_information_exact,
)
from haarmi import cli

CSV_HEADER = (
    "dA,dB,dE,N,regime,I_exact,I_diag,Delta_ev,I_leading,I_series_opt,"
    "series_err,I_integral,J,bound_deficit,oracle_mean,oracle_stderr"
)


SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(*args, env_extra=None):
    env = {k: v for k, v in os.environ.items() if not k.startswith("HAAR_MI_")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "haarmi.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


# ---------------------------------------------------------------------------
# parsing


def test_parse_defaults():
    config = cli.parse_args(["exact", "--da", "2", "--db", "3", "--de", "7"])
    assert config.command == "exact"
    assert (config.d_a, config.d_b, config.d_e) == (2, 3, 7)
    assert config.tol == 1e-14
    assert config.k_max == 40
    assert config.n_samples == 20000
    assert config.seed == 42
    assert config.workers >= 1
    assert config.output_format == "table"
    assert config.output_path is None


def test_parse_sweep_ranges():
    config = cli.parse_args(
        ["sweep", "--da", "2..4", "--db", "3", "--de-mult", "1..4",
         "--format", "csv"]
    )
    assert config.command == "sweep"
    assert config.da_range == (2, 4)
    assert config.db_range == (3, 3)
    assert config.de_mult_range == (1, 4)
    assert config.de_range is None


@pytest.mark.parametrize(
    "argv",
    [
        ["exact", "--da", "0", "--db", "3", "--de", "7"],
        ["exact", "--da", "2", "--db", "3"],  # missing --de
        ["exact", "--da", "2", "--db", "3", "--de", "7", "--tol", "-1"],
        ["exact", "--da", "2", "--db", "3", "--de", "7", "--kmax", "0"],
        ["oracle", "--da", "2", "--db", "3", "--de", "7", "--samples", "1"],
        ["sweep", "--da", "2..x", "--db", "2", "--de-mult", "1..2"],
        ["sweep", "--da", "4..2", "--db", "2", "--de-mult", "1..2"],  # empty
        ["sweep", "--da", "2", "--db", "2"],  # neither --de nor --de-mult
        ["sweep", "--da", "2", "--db", "2", "--de", "2", "--de-mult", "1"],
        ["frobnicate", "--da", "2", "--db", "3", "--de", "7"],
        # k_max = 61 needs B_122, past the Bernoulli table; checked up front
        ["exact", "--da", "2", "--db", "3", "--de", "7", "--kmax", "61"],
        ["sweep", "--da", "2", "--db", "3", "--de", "2..3", "--kmax", "61"],
        # a relative tolerance must lie in (0, 1)
        ["integral", "--da", "2", "--db", "2", "--de", "4", "--tol", "2000"],
        ["exact", "--da", "2", "--db", "3", "--de", "7", "--tol", "1"],
    ],
)
def test_usage_errors_exit_2(argv):
    result = run_cli(*argv)
    assert result.returncode == 2


@pytest.mark.parametrize("argv", [
    [command, "--da", "2", "--db", "3", "--de", "7"]
    for command in ("exact", "series", "integral", "oracle", "verify")
] + [["sweep", "--da", "2", "--db", "3", "--de-mult", "1"]],
    ids=lambda argv: argv[0])
def test_help_names_the_parsed_defaults(argv, capsys):
    """Each subcommand's --help states the defaults parse_args returns.
    Substrings only, with the wrapping undone: argparse's layout varies
    across Python versions."""
    config = cli.parse_args(argv)
    with pytest.raises(SystemExit) as exc:
        cli.parse_args([argv[0], "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for value in (config.tol, config.k_max, config.n_samples, config.seed,
                  config.output_format):
        assert f"(default {value}" in text, value
    assert "$HAAR_MI_SEED" in text and "CPU count" in text
    assert config.workers == (os.cpu_count() or 1)


def test_kmax_limit_is_the_series_limit():
    assert cli.parse_args(["exact", "--da", "2", "--db", "3", "--de", "7",
                           "--kmax", "60"]).k_max == 60
    result = run_cli("exact", "--da", "2", "--db", "3", "--de", "7",
                     "--kmax", "61")
    assert ("k_max=61 needs Bernoulli numbers past the supported limit 120"
            in result.stderr)
    assert result.stdout == ""


def test_seed_environment_override():
    out = run_cli(
        "exact", "--da", "2", "--db", "3", "--de", "7", "--format", "json",
        env_extra={"HAAR_MI_SEED": "7"},
    )
    assert json.loads(out.stdout)["metadata"]["seed"] == 7
    # an explicit flag still wins
    out = run_cli(
        "exact", "--da", "2", "--db", "3", "--de", "7", "--format", "json",
        "--seed", "3", env_extra={"HAAR_MI_SEED": "7"},
    )
    assert json.loads(out.stdout)["metadata"]["seed"] == 3
    # a malformed value is a usage error
    bad = run_cli(
        "exact", "--da", "2", "--db", "3", "--de", "7",
        env_extra={"HAAR_MI_SEED": "oops"},
    )
    assert bad.returncode == 2


# ---------------------------------------------------------------------------
# CSV schema


def test_exact_csv_schema_and_roundtrip():
    result = run_cli("exact", "--da", "2", "--db", "3", "--de", "7",
                     "--format", "csv")
    assert result.returncode == 0
    lines = result.stdout.strip().split("\n")
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert len(fields) == 16
    assert fields[:5] == ["2", "3", "7", "42", "factorised"]
    from haarmi import mutual_information_exact

    expected = mutual_information_exact(Dimensions(2, 3, 7)).total
    assert float(fields[5]) == expected  # 17 digits round-trip exactly
    assert fields[5] == format(expected, ".17g")
    # fields this command does not compute stay empty
    assert fields[9] == "" and fields[14] == "" and fields[15] == ""


def test_series_command_populates_series_fields():
    result = run_cli("series", "--da", "1", "--db", "5", "--de", "9",
                     "--format", "csv")
    assert result.returncode == 0
    fields = result.stdout.strip().split("\n")[1].split(",")
    assert float(fields[9]) == 0.0  # I_series_opt: every term vanishes
    assert float(fields[10]) == 0.0  # series_err
    assert fields[5] == ""  # exact not computed by this command


def test_series_swapped_regime_is_usage_error():
    for command in ("series", "integral"):
        for d_a, d_b, d_e in (("3", "4", "2"), ("1", "5", "3")):
            result = run_cli(command, "--da", d_a, "--db", d_b, "--de", d_e)
            assert result.returncode == 2
            assert result.stdout == ""
            assert "requires the factorised regime" in result.stderr


def test_sweep_csv_factorised_and_swapped_rows():
    result = run_cli("sweep", "--da", "2..3", "--db", "2..3", "--de-mult",
                     "1..2", "--format", "csv")
    assert result.returncode == 0
    lines = result.stdout.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 9  # 2 * 2 * 2 rows
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[4] == "factorised"
        assert fields[11] != "" and fields[12] != ""  # integral and J present
        assert fields[14] == "" and fields[15] == ""  # no oracle in sweeps

    swapped = run_cli("sweep", "--da", "3", "--db", "3", "--de", "2..3",
                      "--format", "csv")
    for line in swapped.stdout.strip().split("\n")[1:]:
        fields = line.split(",")
        assert fields[4] == "swapped"
        assert fields[5] != ""  # exact always present
        for idx in (9, 10, 11, 12, 13):  # series/integral family empty
            assert fields[idx] == ""


def test_sweep_table_aligned_rows_and_footer(capsys):
    argv = ["sweep", "--da", "1..3", "--db", "2", "--de", "3..4"]
    assert cli.run(cli.parse_args(argv)) == 0
    lines = capsys.readouterr().out.split("\n")
    json_config = cli.parse_args([*argv, "--format", "json"])
    swept = cli._run_sweep(json_config)
    assert swept.table_lines == []  # only the table format builds them
    rows = swept.rows
    assert len(rows) == 6

    header = lines[0]
    assert header.split() == cli.CSV_COLUMNS
    starts = [match.start() for match in re.finditer(r"\S+", header)]
    ends = [*starts[1:], None]
    for line, row in zip(lines[1:1 + len(rows)], rows):
        assert len(line) == len(header)
        assert all(line[start - 2:start] == "  " for start in starts[1:])
        cells = [line[start:end].strip() for start, end in zip(starts, ends)]
        assert cells == [cli._format_number(row[name], cli._TABLE_DIGITS)
                         for name in cli.CSV_COLUMNS]
    assert lines[1 + len(rows):] == [
        "", f"version {cli.__version__}  seed 42  tol 1e-14", ""
    ]


def test_sweep_de_mult_always_factorised():
    result = run_cli("sweep", "--da", "2..4", "--db", "2..4", "--de-mult",
                     "1..4", "--format", "csv")
    rows = result.stdout.strip().split("\n")[1:]
    assert len(rows) == 9 * 4
    assert all(row.split(",")[4] == "factorised" for row in rows)


def test_cli_byte_determinism():
    argv = ("sweep", "--da", "2..3", "--db", "2..3", "--de-mult", "1..2",
            "--format", "csv")
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first.stdout == second.stdout
    argv_json = ("oracle", "--da", "2", "--db", "2", "--de", "2",
                 "--samples", "200", "--format", "json")
    assert run_cli(*argv_json).stdout == run_cli(*argv_json).stdout


# ---------------------------------------------------------------------------
# JSON schema


def test_json_mirrors_csv_names_with_metadata():
    result = run_cli("integral", "--da", "2", "--db", "3", "--de", "7",
                     "--format", "json")
    payload = json.loads(result.stdout)
    assert set(payload) == {"metadata", "rows"}
    assert list(payload["rows"][0]) == CSV_HEADER.split(",")
    meta = payload["metadata"]
    assert meta["version"] and meta["rng"]
    assert meta["seed"] == 42 and meta["tol"] == 1e-14
    row = payload["rows"][0]
    expected_j = compute_J(Dimensions(2, 3, 7)).value
    assert row["J"] == expected_j  # json floats round-trip exactly
    assert row["oracle_mean"] is None


def test_json_roundtrip_identity():
    result = run_cli("exact", "--da", "3", "--db", "4", "--de", "2",
                     "--format", "json")
    row = json.loads(result.stdout)["rows"][0]
    from haarmi import mutual_information_exact

    b = mutual_information_exact(Dimensions(3, 4, 2))
    assert row["I_exact"] == b.total
    assert row["I_diag"] == b.i_diag
    assert row["Delta_ev"] == b.delta_ev
    assert row["regime"] == "swapped"


# ---------------------------------------------------------------------------
# table view


def test_exact_table_regime_fields():
    swapped = run_cli("exact", "--da", "3", "--db", "4", "--de", "2")
    assert swapped.returncode == 0
    assert "swapped" in swapped.stdout
    assert "g_value" not in swapped.stdout
    factorised = run_cli("exact", "--da", "2", "--db", "3", "--de", "7")
    assert "g_value" in factorised.stdout
    # the human view rounds to 10 significant digits
    assert format(0.28458368008518736, ".10g") in factorised.stdout


def test_verify_table_lists_checks():
    result = run_cli("verify", "--da", "2", "--db", "3", "--de", "7",
                     "--samples", "2000")
    assert result.returncode == 0
    for name in ("integral_route", "series_route", "strict_bound", "oracle_3se"):
        assert name in result.stdout
    # all four analytic routes are on display
    for label in ("I_exact", "I_rational", "I_series_opt", "I_integral"):
        assert label in result.stdout
    assert "FAIL" not in result.stdout


_ORACLE_LABELS = [
    "dims", "samples", "seed", "rng", "mean_I", "stderr_I", "mean_S_A",
    "mean_S_B", "mean_S_AB", "mean_purity_A", "mean_diag_S_A",
    "mean_diag_2nd_A",
]


@pytest.mark.parametrize("command,triple,labels,fixed", [
    ("series", (2, 3, 7),
     ["dims", "I_leading", "I_series_opt", "series_err", "optimal_k",
      "divergence_k"],
     {"dims": "(2, 3, 7)  N=42"}),
    ("integral", (2, 3, 7),
     ["dims", "I_integral", "J", "I_leading", "bound_deficit"], {}),
    ("integral", (1, 3, 7),
     ["dims", "I_integral", "J", "I_leading", "bound_deficit"],
     {"J": "n/a (dimension 1)", "I_integral": "0", "bound_deficit": "0"}),
    ("oracle", (2, 2, 4), [*_ORACLE_LABELS, "cartan_var", "offdiag_var"],
     {"samples": "600", "seed": "42"}),
    ("oracle", (1, 3, 3), _ORACLE_LABELS, {}),
], ids=["series-2-3-7", "integral-2-3-7", "integral-1-3-7", "oracle-2-2-4",
        "oracle-1-3-3"])
def test_single_triple_table_labels(command, triple, labels, fixed, capsys):
    d_a, d_b, d_e = (str(d) for d in triple)
    config = cli.parse_args([command, "--da", d_a, "--db", d_b, "--de", d_e,
                             "--samples", "600", "--workers", "1"])
    assert cli.run(config) == 0
    table = capsys.readouterr().out.split("\n\n")[0]
    pairs = [line.partition("  ") for line in table.splitlines()]
    assert [label for label, _, _ in pairs] == labels
    values = {label: value.strip() for label, _, value in pairs}
    for label, value in fixed.items():
        assert values[label] == value
    assert all(values[label] != "" for label in labels)


# ---------------------------------------------------------------------------
# verify semantics and exit codes


def test_verify_passes_and_emits_checks_json():
    result = run_cli("verify", "--da", "2", "--db", "3", "--de", "7",
                     "--samples", "2000", "--format", "json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    statuses = {c["name"]: c["status"] for c in payload["checks"]}
    assert statuses == {
        "rational_route": "pass",
        "integral_route": "pass",
        "series_route": "pass",
        "strict_bound": "pass",
        "oracle_3se": "pass",
    }
    row = payload["rows"][0]
    assert all(row[name] is not None for name in CSV_HEADER.split(","))


def test_verify_swapped_regime_skips_factorised_checks():
    result = run_cli("verify", "--da", "3", "--db", "4", "--de", "2",
                     "--samples", "2000", "--format", "json")
    assert result.returncode == 0
    statuses = {c["name"]: c["status"] for c in json.loads(result.stdout)["checks"]}
    assert statuses["rational_route"] == "pass"
    assert statuses["integral_route"] == "skipped"
    assert statuses["series_route"] == "skipped"
    assert statuses["strict_bound"] == "skipped"
    assert statuses["oracle_3se"] == "pass"


@pytest.mark.parametrize("triple,analytic", [
    ((9, 8, 100), "pass"),  # factorised, C^2 = 5184
    ((10, 10, 50), "skipped"),  # swapped, N = 5000
])
def test_verify_above_sampling_cap_skips_oracle(triple, analytic, capsys):
    d_a, d_b, d_e = triple
    c = d_a * d_b
    excess = f"C^2 = {c * c}" if c <= d_e else f"N = {c * d_e}"
    argv = ["--da", str(d_a), "--db", str(d_b), "--de", str(d_e)]
    assert cli.run(cli.parse_args(["verify", *argv, "--format", "json"])) == 0
    payload = json.loads(capsys.readouterr().out)
    checks = {c["name"]: c for c in payload["checks"]}
    assert {name: c["status"] for name, c in checks.items()} == {
        "rational_route": "pass",
        "integral_route": analytic,
        "series_route": analytic,
        "strict_bound": analytic,
        "oracle_3se": "skipped",
    }
    assert checks["oracle_3se"]["detail"] == (
        f"{excess} above the sampling cap 4096"
    )
    row = payload["rows"][0]
    assert row["oracle_mean"] is None and row["oracle_stderr"] is None

    assert cli.run(cli.parse_args(["verify", *argv])) == 0
    lines = capsys.readouterr().out.splitlines()
    for label in ("oracle_mean", "oracle_stderr"):
        line = next(line for line in lines if line.startswith(label + " "))
        assert line.split(None, 1)[1] == f"n/a ({excess} > 4096)"
    # the oracle on its own still refuses the triple
    assert cli.run(cli.parse_args(["oracle", *argv])) == 2
    assert f"{excess} above the sampling cap 4096" in capsys.readouterr().err


def test_verify_runs_oracle_on_factorised_triples_above_n_4096(capsys):
    """The factorised oracle forms a C x C factor, so N = 6000 is sampled."""
    argv = ["--da", "2", "--db", "3", "--de", "1000", "--workers", "2"]
    assert cli.run(cli.parse_args(["verify", *argv, "--format", "json"])) == 0
    payload = json.loads(capsys.readouterr().out)
    statuses = {c["name"]: c["status"] for c in payload["checks"]}
    assert set(statuses.values()) == {"pass"}
    assert payload["rows"][0]["oracle_stderr"] > 0
    assert cli.run(cli.parse_args(["oracle", *argv, "--samples", "600"])) == 0


@pytest.mark.parametrize("triple", [(1, 3, 7), (3, 1, 7)])
def test_verify_dimension_one_skips_strict_bound(triple, capsys):
    # the deficit is exactly 0 when a dimension is 1: no strict bound to check
    d_a, d_b, d_e = (str(d) for d in triple)
    config = cli.parse_args(["verify", "--da", d_a, "--db", d_b, "--de", d_e,
                             "--samples", "2000", "--format", "json"])
    assert cli.run(config) == 0
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["strict_bound"] == {
        "name": "strict_bound",
        "status": "skipped",
        "detail": "a dimension is 1: <I> = leading order = 0",
    }
    assert {c["status"] for name, c in checks.items()
            if name != "strict_bound"} == {"pass"}


def test_verify_fault_injection_exits_4(monkeypatch, capsys):
    real_compute_J = cli.compute_J

    def biased(dims, tol):
        result = real_compute_J(dims, tol)
        return dataclasses.replace(result, value=result.value + 1e-6)

    monkeypatch.setattr(cli, "compute_J", biased)
    config = cli.parse_args(["verify", "--da", "2", "--db", "3", "--de", "7",
                             "--samples", "2000"])
    assert cli.run(config) == 4
    assert "verification failed" in capsys.readouterr().err


@pytest.mark.parametrize("route", ["integral_route", "series_route"])
def test_verify_bands_are_relative(route, monkeypatch, capsys):
    """At (2,2,5000), where I = 2.25e-4, a shift that an absolute band
    (1e-12 for the integral route, 1e-15 + 4e-16 |I| for the series route)
    would pass is over 1e-12 relative to I, and verify fails it."""
    shift = 5e-13 if route == "integral_route" else 5e-16
    if route == "integral_route":
        real_compute_J = cli.compute_J
        su = 9  # (d_A^2 - 1)(d_B^2 - 1); I_integral = lead - 2 su J

        def shifted(dims, tol):
            result = real_compute_J(dims, tol)
            value = result.value - shift / (2 * su)
            return dataclasses.replace(result, value=value)

        monkeypatch.setattr(cli, "compute_J", shifted)
    else:
        real_expand = cli.expand

        def shifted(dims, k_max):
            result = real_expand(dims, k_max)
            sums = [value + shift for value in result.partial_sums]
            return dataclasses.replace(result, partial_sums=sums)

        monkeypatch.setattr(cli, "expand", shifted)
    config = cli.parse_args(["verify", "--da", "2", "--db", "2", "--de", "5000",
                             "--samples", "2000"])
    assert cli.run(config) == 4
    out, err = capsys.readouterr()
    assert f"verification failed: {route}" in err
    difference = float(re.search(rf"{route}: \|[^|]*\| = (\S+)", out).group(1))
    absolute_band = (
        1e-12 if route == "integral_route" else 1e-15 + 4e-16 * 2.25e-4
    )
    assert 0.5 * shift < difference <= absolute_band


def test_verify_rational_mismatch_exits_4(monkeypatch, capsys):
    real_rational = cli.mutual_information_rational

    def off(dims):
        return real_rational(dims) * (1 + Fraction(1, 10**10))

    monkeypatch.setattr(cli, "mutual_information_rational", off)
    config = cli.parse_args(["verify", "--da", "2", "--db", "3", "--de", "7",
                             "--samples", "2000"])
    assert cli.run(config) == 4
    assert "verification failed: rational_route" in capsys.readouterr().err


@pytest.mark.parametrize("output_format", ["table", "json"])
@pytest.mark.parametrize("triple", [
    (5, 13, 65),  # factorised, C^2 = 4225 above the sampling cap
    (10, 10, 50),  # swapped, N = 5000 above the sampling cap
    (1, 3, 7),  # the oracle's mean and SE are exactly 0
])
def test_verify_output_is_pinned(triple, output_format, capsys):
    """verify's whole stdout, check lines included, verbatim at triples
    whose output does not depend on the draws."""
    d_a, d_b, d_e = (str(d) for d in triple)
    config = cli.parse_args(["verify", "--da", d_a, "--db", d_b, "--de", d_e,
                             "--samples", "600", "--workers", "2",
                             "--format", output_format])
    assert cli.run(config) == 0
    golden = GOLDEN / f"verify-{d_a}-{d_b}-{d_e}.{output_format}"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_seed_beyond_64_bits_exits_2(workers, capsys):
    # parse_args rejects such a seed; a config built in code reaches the
    # sampler's own range check, which must not become a worker failure
    config = cli.parse_args(["oracle", "--da", "2", "--db", "2", "--de", "2",
                             "--samples", "10", "--workers", workers])
    config = dataclasses.replace(config, seed=2**64)
    assert cli.run(config) == 2
    assert "invalid input" in capsys.readouterr().err


@pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
@pytest.mark.parametrize("argv", [
    ["exact", "--da", "2", "--db", "3", "--de", "7", "--format", "json"],
    ["sweep", "--da", "2", "--db", "2", "--de-mult", "1", "--format", "csv"],
], ids=["exact", "sweep"])
def test_seed_range_checked_for_every_command(argv, via_env, monkeypatch, capsys):
    def parse(seed):
        if via_env:
            monkeypatch.setenv("HAAR_MI_SEED", str(seed))
            return cli.parse_args(argv)
        return cli.parse_args([*argv, "--seed", str(seed)])

    assert parse(2**64 - 1).seed == 2**64 - 1
    with pytest.raises(SystemExit) as exc:
        parse(2**64)
    assert exc.value.code == 2
    assert "2**64" in capsys.readouterr().err


def test_unwritable_output_exits_5(tmp_path):
    missing_dir = tmp_path / "does-not-exist" / "out.csv"
    result = run_cli("exact", "--da", "2", "--db", "3", "--de", "7",
                     "--format", "csv", "--out", str(missing_dir))
    assert result.returncode == 5


def test_output_file_written(tmp_path):
    target = tmp_path / "row.csv"
    result = run_cli("exact", "--da", "2", "--db", "3", "--de", "7",
                     "--format", "csv", "--out", str(target))
    assert result.returncode == 0
    assert result.stdout == ""
    assert target.read_text().startswith(CSV_HEADER)


def test_numerical_failure_exits_3(monkeypatch):
    def explode(dims, tol):
        raise NonConvergenceError("injected")

    monkeypatch.setattr(cli, "compute_J", explode)
    config = cli.parse_args(["integral", "--da", "2", "--db", "3", "--de", "7"])
    assert cli.run(config) == 3


@pytest.mark.parametrize("tol", ["1e-16", "3e-17"])
def test_integral_at_tight_tolerance_exits_0(tol, capsys):
    """At (3,2,78) two refinements once failed to agree to 1e-16, and the
    command exited 3, though J was right to half an ulp; the fixed plan
    answers, and its I is the closed form's to 1e-15."""
    argv = ["integral", "--da", "3", "--db", "2", "--de", "78", "--tol", tol,
            "--format", "json"]
    assert cli.main(argv) == 0
    row = json.loads(capsys.readouterr().out)["rows"][0]
    exact = mutual_information_exact(Dimensions(3, 2, 78)).total
    assert row["I_integral"] == pytest.approx(exact, rel=1e-15, abs=0)


def test_run_exact_exit_0(capsys):
    config = cli.parse_args(["exact", "--da", "2", "--db", "3", "--de", "7",
                             "--format", "csv"])
    assert cli.run(config) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(CSV_HEADER)


def test_exact_beyond_squared_float_range():
    """N**2 overflows binary64 at d_E = 10**160; the closed form still
    returns the leading order, its value at this N."""
    d_e = 10**160
    result = run_cli("exact", "--da", "2", "--db", "3", "--de", str(d_e),
                     "--format", "json")
    assert result.returncode == 0, result.stderr
    row = json.loads(result.stdout)["rows"][0]
    lead = leading_order(Dimensions(2, 3, d_e))
    assert row["I_exact"] == pytest.approx(lead, rel=1e-15, abs=0)


def test_exact_beyond_float_su():
    """su = (d_A^2 - 1)(d_B^2 - 1) passes 2**1024 at C = 2**512 - 1, a
    factorised triple; g_value is the exact quotient total/su rounded once,
    and exact and sweep both answer."""
    d_a, d_b, d_e = 2**256 - 1, 2**256 + 1, 2**512 - 1
    dims = Dimensions(d_a, d_b, d_e)
    breakdown = mutual_information_exact(dims)
    g_value = float(Fraction(breakdown.total) / casimir_counts(dims).su_product)
    assert breakdown.g_value == g_value
    argv = ["--da", str(d_a), "--db", str(d_b), "--de", str(d_e)]
    results = {command: run_cli(command, *argv) for command in ("exact", "sweep")}
    for result in results.values():
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
    line = next(line for line in results["exact"].stdout.splitlines()
                if line.startswith("g_value "))
    assert line.split()[1] == format(g_value, ".10g")


@pytest.mark.parametrize("command", ["exact", "series", "integral"])
def test_n_beyond_binary64_exits_2(command):
    result = run_cli(command, "--da", "2", "--db", "2", "--de", str(10**320))
    assert result.returncode == 2
    assert result.stdout == ""
    assert "invalid input" in result.stderr and "2**1024" in result.stderr
    assert "Traceback" not in result.stderr


def test_table_footer_metadata():
    result = run_cli("exact", "--da", "2", "--db", "3", "--de", "7")
    footer = result.stdout.strip().split("\n")[-1]
    assert "version" in footer and "seed 42" in footer and "tol" in footer
