"""Self-test of the benchmark's reference, checker and tracer.

Usage (from the repository root): ``python3 perfbench/selftest.py``.
Exits 0 when every check passes.  It runs the CLI only through
``child.py``, as the benchmark does, and perturbs copies of its output;
it never patches the package.
"""

from __future__ import annotations

import json
import math
import sys
import time

import run
from check import check_json_command, check_rational, check_sweep
from reference import Reference, mutual_information_fraction
from tracer import Tracer

SMALL_TRIPLES = [(2, 3, 7), (3, 4, 2), (2, 2, 5), (5, 4, 3), (1, 3, 9), (4, 5, 25)]

results: list[tuple[str, bool]] = []


def expect(label: str, ok: bool) -> None:
    results.append((label, ok))
    print(f"{'PASS' if ok else 'FAIL'}  {label}")


def reference_matches_package() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    from haarmi import Dimensions, mutual_information_rational

    for triple in SMALL_TRIPLES:
        exact = mutual_information_fraction(*triple)
        expect(f"reference {triple} equals mutual_information_rational exactly",
               exact == mutual_information_rational(Dimensions(*triple)))
        decimal_route = Reference(*triple).mutual_information
        expect(f"decimal reference {triple} rounds like the exact one",
               decimal_route == float(exact))


def _replace_field(line: str, index: int, value: str) -> str:
    cells = line.split(",")
    cells[index] = value
    return ",".join(cells)


def checker_counts_perturbations() -> None:
    sweep = run._sweep((2, 3), (2, 3), (1, 2), seed=1)
    record, stdout = run.spawn(sweep.spec())
    refs = {t: Reference(*t) for t in sweep.triples}
    clean = check_sweep(stdout, record["exit"], list(sweep.triples), refs)
    expect("clean sweep output has no failures",
           clean.failed == 0 and clean.attempted == len(sweep.triples))

    lines = stdout.splitlines()
    header = lines[0].split(",")
    column = header.index("I_integral")
    value = float(lines[2].split(",")[column])
    lines[2] = _replace_field(lines[2], column, repr(value * (1 + 1e-9)))
    bad = check_sweep("\n".join(lines) + "\n", 0, list(sweep.triples), refs)
    expect("I_integral off by 1e-9 relative counts one failed row",
           bad.failed == 1 and bad.structural == 0)

    short = check_sweep("\n".join(stdout.splitlines()[:-1]) + "\n", 0,
                        list(sweep.triples), refs)
    expect("a missing row counts one structural failure",
           short.failed == 1 and short.structural == 1)

    crashed = check_sweep(stdout, 3, list(sweep.triples), refs)
    expect("a nonzero exit fails every row of the command",
           crashed.failed == len(sweep.triples))

    verify = run._single("verify", (2, 3, 7), 2000, seed=1)
    record, stdout = run.spawn(verify.spec())
    vrefs = {(2, 3, 7): Reference(2, 3, 7)}
    clean = check_json_command(stdout, record["exit"], [2, 3, 7], vrefs, "verify")
    expect("clean verify output has no failures", clean.failed == 0)
    payload = json.loads(stdout)
    row = payload["rows"][0]
    row["oracle_mean"] += 5 * row["oracle_stderr"]
    bad = check_json_command(json.dumps(payload), 0, [2, 3, 7], vrefs, "verify")
    expect("oracle_mean 5 SE off counts one failed command", bad.failed == 1)
    payload = json.loads(stdout)
    row = payload["rows"][0]
    row["I_series_opt"] += 3 * max(2 * row["series_err"],
                                   1e-15 + 4e-16 * abs(row["I_exact"]))
    bad = check_json_command(json.dumps(payload), 0, [2, 3, 7], vrefs, "verify")
    expect("I_series_opt outside verify's rule counts one failed command",
           bad.failed == 1)
    payload = json.loads(stdout)
    payload["checks"][0]["status"] = "fail"
    bad = check_json_command(json.dumps(payload), 4, [2, 3, 7], vrefs, "verify")
    expect("a verify check with status fail counts one failed command",
           bad.failed == 1 and bad.structural == 0)

    triples = [(2, 3, 7), (2, 2, 5)]
    op = run.Op("rational", "rational", (), tuple(triples), 2)
    record, _ = run.spawn(op.spec())
    exact = {t: mutual_information_fraction(*t) for t in triples}
    clean = check_rational(record["fractions"], 0, triples, exact)
    expect("clean rational output has no failures", clean.failed == 0)
    num, den = record["fractions"][1]
    perturbed = [record["fractions"][0], [format(int(num, 16) + 1, "x"), den]]
    bad = check_rational(perturbed, 0, triples, exact)
    expect("a rational off by one unit of its numerator counts one failure",
           bad.failed == 1)

    limit, run.CHILD_TIMEOUT_S = run.CHILD_TIMEOUT_S, 0.01
    try:
        record, stdout = run.spawn(sweep.spec())
    finally:
        run.CHILD_TIMEOUT_S = limit
    timed_out = check_sweep(stdout, record["exit"], list(sweep.triples), refs)
    expect("a child past its time limit counts structural failures",
           "crashed" in record and timed_out.structural == len(sweep.triples))


def tracer_self_time() -> None:
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        tracer.call("inner", inner)

    tracer.call("outer", outer)
    summary = tracer.summary()
    outer_entry, inner_entry = summary["outer"], summary["inner"]
    expect("self time is duration minus child spans",
           abs(outer_entry["self_s"] - (outer_entry["total_s"] - inner_entry["total_s"]))
           < 1e-9 and 0.005 < outer_entry["self_s"] < 0.05)
    expect("tail is the value with ten beyond it",
           run.tail(list(range(21))) == (10, 50.0))
    expect("tail of fewer than eleven values is the minimum",
           run.tail([3.0, 1.0, 2.0]) == (1.0, 0.0))


def calibration_scaling() -> None:
    ref = run.CALIBRATION_REF_S["python"]
    record = {"kernel": "python", "run_s": 1.0, "setup_s": 0.2,
              "cal_s": [ref, 3 * ref, ref]}
    expect("an operation timed while the kernel ran at half speed counts half",
           all(math.isclose(got, want)
               for got, want in zip(run.scaled(record), (0.5, 0.1))))
    record, _ = run.spawn(run.Op("rational", "rational", (), ((2, 2, 5),), 1).spec())
    expect("the rational route is scaled by the big-integer kernel",
           record["kernel"] == "bigint" and len(record["cal_s"]) == 3)


def main() -> int:
    reference_matches_package()
    checker_counts_perturbations()
    tracer_self_time()
    calibration_scaling()
    failed = [label for label, ok in results if not ok]
    print(f"{len(results) - len(failed)}/{len(results)} self-checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
