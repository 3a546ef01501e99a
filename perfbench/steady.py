"""Steadiness check: the same benchmark code as two sets of runs.

Usage (from the repository root):

    python3 perfbench/steady.py --runs 10 --seconds 30

Each of the two sets runs every workload once per seed, seeds 1 to
``--runs`` in both sets.  For every end-to-end metric and workload it
prints each set's median and spread (inter-quartile range as a share of the
median, quartiles from ``statistics.quantiles(values, n=4)``), and whether
the sets agree within the bound in ``BENCHMARK.json``: every spread within
the bound, and the two medians no further apart than the bound times the
first.  ``not steady`` marks a spread of a third of the bound or more.  Raw
results go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
FIRST_SEED = 1


def spread(values: list[float]) -> float:
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    args = parser.parse_args()
    metrics = {m["name"]: m for m in config["end_to_end"]}

    # values[set][workload][metric] -> list over seeds
    values: list[dict] = []
    for set_index in range(SETS):
        per_workload: dict = {}
        for workload in workloads:
            for seed in range(FIRST_SEED, FIRST_SEED + args.runs):
                result = one_run(workload, seed, args.seconds)
                print(f"set {set_index + 1} {workload} seed {seed}: correct "
                      f"{result['correct']} failed {result['failed']}/"
                      f"{result['attempted']} " + " ".join(
                          f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                      flush=True)
                for name, entry in result["metrics"].items():
                    per_workload.setdefault(workload, {}).setdefault(
                        name, []).append(entry["value"])
        values.append(per_workload)

    all_agree = True
    print(f"\n{'workload':15} {'metric':12} {'bound':>6} " + " ".join(
        f"{'median' + str(i + 1):>12} {'spread' + str(i + 1):>8}"
        for i in range(SETS)) + "  verdict")
    for workload in workloads:
        for name, spec in metrics.items():
            bound = spec["bound"]
            series = [v[workload][name] for v in values]
            medians = [statistics.median(s) for s in series]
            spreads = [spread(s) for s in series]
            first, second = medians
            ok = (all(s <= bound for s in spreads)
                  and abs(second - first) <= bound * abs(first))
            steady = all(s < bound / 3 for s in spreads)
            all_agree = all_agree and ok
            print(f"{workload:15} {name:12} {bound:6.3f} " + " ".join(
                f"{m:12.6g} {s:8.4f}" for m, s in zip(medians, spreads))
                + f"  {'agree' if ok else 'DISAGREE'}{'' if steady else ' (not steady)'}")

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps({"args": vars(args), "values": values}))
    print(f"\nraw values in {path.relative_to(ROOT)}")
    print("all agree" if all_agree else "some metrics DISAGREE")
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
