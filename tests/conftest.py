"""Shared pytest plumbing.

The acceptance tests record a one-line verdict per criterion; the lines are
echoed in a dedicated section of the terminal summary so a plain
``pytest -v`` run shows them even though stdout is captured.  Every test
runs without ``$HAAR_MI_SEED``, so a seed exported by the caller changes
no default the tests read.
"""

import pytest

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(autouse=True)
def _no_seed_from_the_environment(monkeypatch):
    monkeypatch.delenv("HAAR_MI_SEED", raising=False)


@pytest.fixture
def acceptance():
    """Return a recorder: ``record(index, label, ok, note="") -> ok``."""

    def record(index: int, label: str, ok: bool, note: str = "") -> bool:
        status = "PASS" if ok else "FAIL"
        suffix = f"  [{note}]" if note else ""
        line = f"{status}  criterion {index:2d}: {label}{suffix}"
        ACCEPTANCE_LINES.append(line)
        print(line)
        return ok

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
