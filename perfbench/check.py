"""Output checks: every value the program prints against the exact reference.

An operation is a CSV row for ``sweep``, a command for ``verify`` and
``oracle``, and a triple for the rational route.  It fails on any of:

* a nonzero exit code, unreadable output, or a verify check with status
  ``fail``;
* ``I_exact`` or ``I_integral`` more than ``REL_TOL`` relative from the
  reference;
* ``I_series_opt`` outside verify's own rule
  ``max(2 series_err, 1e-15 + 4e-16 |I|)``;
* ``oracle_mean`` more than ``ORACLE_SE`` standard errors from the
  reference;
* a rational result not exactly equal to the reference.

Failures of the first kind are *structural*: the program did not produce a
checkable answer.  The others are wrong values.  Both are counted.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction

REL_TOL = 1e-12
ORACLE_SE = 4.0


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    structural: int = 0
    problems: list[str] = field(default_factory=list)
    # Worst relative error of I_exact and I_integral among checked values.
    page_rel: float = 0.0
    integral_rel: float = 0.0

    def fail(self, what: str, structural: bool = False) -> None:
        self.failed += 1
        self.structural += structural
        if len(self.problems) < 20:
            self.problems.append(what)

    def merge(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.structural += other.structural
        self.problems.extend(other.problems[: max(0, 20 - len(self.problems))])
        self.page_rel = max(self.page_rel, other.page_rel)
        self.integral_rel = max(self.integral_rel, other.integral_rel)


def _rel(value: float, reference: float) -> float:
    if value == reference:
        return 0.0
    return abs(value - reference) / abs(reference) if reference else float("inf")


def _row_problems(row: dict, ref, verdict: Verdict, oracle_only: bool = False
                  ) -> list[str]:
    """Value checks shared by CSV and JSON rows; ``row`` holds floats or None.
    Every row carries ``I_exact`` except an ``oracle`` command's."""
    problems = []
    exact = ref.mutual_information
    if row.get("I_exact") is None:
        if not oracle_only:
            problems.append("I_exact missing")
    else:
        rel = _rel(row["I_exact"], exact)
        verdict.page_rel = max(verdict.page_rel, rel)
        if rel > REL_TOL:
            problems.append(f"I_exact rel err {rel:.2e}")
    if row.get("I_integral") is not None:
        rel = _rel(row["I_integral"], exact)
        verdict.integral_rel = max(verdict.integral_rel, rel)
        if rel > REL_TOL:
            problems.append(f"I_integral rel err {rel:.2e}")
    if row.get("I_series_opt") is not None:
        bound = max(2.0 * row["series_err"], 1e-15 + 4e-16 * abs(exact))
        diff = abs(row["I_series_opt"] - exact)
        if diff > bound:
            problems.append(f"I_series_opt off by {diff:.2e} > {bound:.2e}")
    if row.get("oracle_mean") is not None:
        if not row.get("oracle_stderr"):
            return problems + ["oracle_stderr missing or zero"]
        z = abs(row["oracle_mean"] - exact) / row["oracle_stderr"]
        if z > ORACLE_SE:
            problems.append(f"oracle_mean {z:.1f} SE from reference")
    return problems


def _dims_of(row: dict) -> tuple[int, int, int]:
    return int(row["dA"]), int(row["dB"]), int(row["dE"])


def check_sweep(stdout: str, exit_code: int, triples: list, refs: dict) -> Verdict:
    verdict = Verdict(attempted=len(triples))
    if exit_code != 0:
        for _ in triples:
            verdict.fail(f"sweep exit code {exit_code}", structural=True)
        return verdict
    rows = list(csv.DictReader(io.StringIO(stdout)))
    for index, triple in enumerate(triples):
        if index >= len(rows):
            verdict.fail(f"{triple}: row missing", structural=True)
            continue
        raw = rows[index]
        try:
            if _dims_of(raw) != tuple(triple):
                verdict.fail(f"{triple}: row is {_dims_of(raw)}", structural=True)
                continue
            row = {key: float(value) if value else None
                   for key, value in raw.items() if key != "regime"}
        except (KeyError, TypeError, ValueError) as exc:
            verdict.fail(f"{triple}: unreadable row ({exc})", structural=True)
            continue
        problems = _row_problems(row, refs[tuple(triple)], verdict)
        if problems:
            verdict.fail(f"{tuple(triple)}: " + "; ".join(problems))
    if len(rows) > len(triples):
        verdict.fail(f"{len(rows) - len(triples)} unexpected rows", structural=True)
    return verdict


def check_json_command(stdout: str, exit_code: int, triple: list, refs: dict,
                       command: str) -> Verdict:
    """One ``verify`` or ``oracle`` command with ``--format json``."""
    verdict = Verdict(attempted=1)
    label = f"{command} {tuple(triple)}"
    try:
        payload = json.loads(stdout)
        row = payload["rows"][0]
        dims = _dims_of(row)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        verdict.fail(f"{label}: unreadable output ({exc}), exit {exit_code}",
                     structural=True)
        return verdict
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if dims != tuple(triple):
        problems.append(f"row is {dims}")
    for check in payload.get("checks") or []:
        if check.get("status") == "fail":
            problems.append(f"check {check.get('name')} failed")
    if row.get("oracle_mean") is None:
        problems.append("oracle_mean missing")
    problems += _row_problems(row, refs[tuple(triple)], verdict,
                              oracle_only=command == "oracle")
    if problems:
        verdict.fail(f"{label}: " + "; ".join(problems),
                     structural=exit_code not in (0, 4))
    return verdict


def check_rational(fractions: list | None, exit_code: int, triples: list,
                   exact: dict) -> Verdict:
    verdict = Verdict(attempted=len(triples))
    if exit_code != 0 or fractions is None or len(fractions) != len(triples):
        for _ in triples:
            verdict.fail(f"rational op exit code {exit_code}", structural=True)
        return verdict
    for triple, (num, den) in zip(triples, fractions):
        value = Fraction(int(num, 16), int(den, 16))
        if value != exact[tuple(triple)]:
            verdict.fail(f"{tuple(triple)}: rational differs from reference "
                         f"by {float(value - exact[tuple(triple)]):.3e}")
    return verdict
