"""Which work loads numpy: the closed form, the series and the rational
route run on the standard library alone; the quadrature and the oracle
import numpy on first use.  Each probe runs in a fresh interpreter, since
the test process has numpy loaded already."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

TRIPLE = ["--da", "2", "--db", "3", "--de", "7"]


def _probe(code: str) -> list[str]:
    """Run ``code`` with ``src`` on the path; its last stdout line, split."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("HAAR_MI_")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=env, check=True)
    return result.stdout.splitlines()[-1].split()


def test_closed_form_series_and_rational_route_load_no_numpy():
    loaded = _probe(f"""
import sys
import haarmi
seen = ["numpy" in sys.modules]
import haarmi.cli as cli
seen.append("numpy" in sys.modules)
for command in ("exact", "series"):
    assert cli.main([command, *{TRIPLE!r}]) == 0
    seen.append("numpy" in sys.modules)
haarmi.mutual_information_rational(haarmi.Dimensions(2, 3, 7))
seen.append("numpy" in sys.modules)
print(*seen)
""")
    assert loaded == ["False"] * 5


@pytest.mark.parametrize("command", [
    ["integral", *TRIPLE],
    ["oracle", *TRIPLE, "--samples", "64", "--workers", "1"],
])
def test_quadrature_and_oracle_load_numpy_on_first_use(command):
    loaded = _probe(f"""
import sys
import haarmi.cli as cli
before = "numpy" in sys.modules
code = cli.main({command!r})
print(before, code, "numpy" in sys.modules)
""")
    assert loaded == ["False", "0", "True"]


def test_sampling_names_resolve_on_first_use():
    loaded = _probe("""
import sys
import haarmi
before = "numpy" in sys.modules
assert "run_oracle" in dir(haarmi) and "HaarSampleStats" in dir(haarmi)
run_oracle, stats = haarmi.run_oracle, haarmi.HaarSampleStats
import haarmi.sampling as sampling
assert run_oracle is sampling.run_oracle and stats is sampling.HaarSampleStats
print(before, "numpy" in sys.modules)
""")
    assert loaded == ["False", "True"]
