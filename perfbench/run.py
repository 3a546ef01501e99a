"""haarmi benchmark: end-to-end timings of the CLI and the exact route, plus
a traced run that breaks the time down by module.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

Every operation runs in a fresh interpreter (``perfbench/child.py``) with
``src`` on ``PYTHONPATH`` and BLAS pinned to one thread, so each pass pays
the cold caches a CLI user pays.  Passes repeat until ``--seconds`` have
elapsed.  Every output is checked against an exact reference computed here
without importing haarmi (``perfbench/reference.py``).  End-to-end times
are reported in reference seconds: wall times scaled by a calibration
kernel timed around each operation (see ``scaled``).

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` the run first repeats untraced
passes (for ``trace.overhead_s`` and the worker speed-up), then traced ones,
reports the per-layer metrics, and writes every span of one traced pass to
``.perfbench_out/``.  See ``perfbench/README.md`` for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from check import Verdict, check_json_command, check_rational, check_sweep  # noqa: E402
from reference import Reference, mutual_information_fraction  # noqa: E402

CHILD = HERE / "child.py"
RECORD_TAG = "@perfbench-record "  # as in child.py
OUT_DIR = ROOT / ".perfbench_out"
CHILD_TIMEOUT_S = 120.0
#: A timing tail needs at least this many passes beyond it.
TAIL_BEYOND = 10
#: Untraced runs go on past --seconds until they hold this many passes (so
#: the tail exists), but never past MAX_OVERRUN times --seconds.
MIN_PASSES = TAIL_BEYOND + 1
MAX_OVERRUN = 1.25
#: Share of a traced run spent on untraced passes before tracing starts.
UNTRACED_SHARE = 0.3
#: The end-to-end timings are in reference seconds: wall seconds at the CPU
#: speed where child.py's calibration kernel takes this long.  On a shared
#: host the speed one process gets swings by up to 1.6x within seconds, and
#: the kernel timed around each operation follows that swing.  The rational
#: route is scaled by a big-integer kernel, everything else by an
#: interpreter loop: each moves with the host's load like the work it scales.
CALIBRATION_REF_S = {"python": 0.0065, "bigint": 0.013}

BLAS_PIN = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                 "NUMEXPR_NUM_THREADS")
}


@dataclass(frozen=True)
class Op:
    """One operation of a pass: a CLI command or one rational-route process."""

    kind: str  # "cli" or "rational"
    command: str  # "verify", "oracle", "sweep" or "rational"
    argv: tuple = ()
    triples: tuple = ()
    items: int = 0  # samples, rows or triples

    def spec(self, **flags) -> dict:
        spec = {"kind": self.kind, **flags}
        if self.kind == "cli":
            spec["argv"] = list(self.argv)
        else:
            spec["triples"] = [list(t) for t in self.triples]
        return spec

    def with_workers(self, workers: int) -> "Op":
        argv = list(self.argv)
        argv[argv.index("--workers") + 1] = str(workers)
        return Op(self.kind, self.command, tuple(argv), self.triples, self.items)


def _single(command: str, triple, samples: int, seed: int) -> Op:
    d_a, d_b, d_e = triple
    argv = (command, "--da", str(d_a), "--db", str(d_b), "--de", str(d_e),
            "--samples", str(samples), "--workers", "2", "--seed", str(seed),
            "--format", "json")
    return Op("cli", command, argv, (tuple(triple),), samples)


def _sweep(da: tuple, db: tuple, mult: tuple, seed: int) -> Op:
    triples = tuple(
        (d_a, d_b, m * d_a * d_b)
        for d_a in range(da[0], da[1] + 1)
        for d_b in range(db[0], db[1] + 1)
        for m in range(mult[0], mult[1] + 1)
    )

    def span(lo_hi):
        return f"{lo_hi[0]}..{lo_hi[1]}" if lo_hi[0] != lo_hi[1] else str(lo_hi[0])

    argv = ("sweep", "--da", span(da), "--db", span(db), "--de-mult", span(mult),
            "--seed", str(seed), "--format", "csv")
    return Op("cli", "sweep", argv, triples, len(triples))


def workload_ops(name: str, seed: int) -> list[Op]:
    if name == "verify-small":
        return [_single("verify", (2, 3, 7), 20000, seed),
                _single("verify", (3, 4, 2), 20000, seed)]
    if name == "oracle-large":
        return [_single("oracle", (4, 4, 64), 4096, seed),
                _single("oracle", (8, 8, 16), 1024, seed)]
    if name == "sweep-analytic":
        return [_sweep((2, 6), (2, 6), (1, 16), seed),
                _sweep((3, 3), (5, 5), (64, 128), seed),
                _sweep((20, 20), (20, 20), (1, 2), seed)]
    if name == "exact-rational":
        triples = ((2, 3, 1000), (3, 4, 1000), (4, 5, 1000), (2, 2, 5000))
        return [Op("rational", "rational", (), triples, len(triples))]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("verify-small", "oracle-large", "sweep-analytic", "exact-rational")
ITEM_NAMES = {"verify-small": "samples", "oracle-large": "samples",
              "sweep-analytic": "rows", "exact-rational": "triples"}


# --------------------------------------------------------------------------
# Running operations


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.update(BLAS_PIN)
    env.pop("HAAR_MI_SEED", None)
    env.pop("HAAR_MI_FAULT_J_BIAS", None)
    return env


def spawn(spec: dict) -> tuple[dict, str]:
    """Run one operation in a fresh interpreter; returns (record, stdout)."""
    started = time.perf_counter()
    kernel = "bigint" if spec["kind"] == "rational" else "python"
    # A sampling command runs on both CPUs for up to a second; a longer probe
    # of the CPU speed around it follows it better.
    repeats = 4 if spec.get("argv", [""])[0] in ("verify", "oracle") else 1
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), json.dumps(spec), kernel, str(repeats)],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        exit_code, stderr, stdout = -1, f"timed out after {CHILD_TIMEOUT_S:.0f} s", ""
    else:
        for line in reversed(proc.stderr.splitlines()):
            if line.startswith(RECORD_TAG):
                return json.loads(line[len(RECORD_TAG):]), proc.stdout
        exit_code, stderr, stdout = proc.returncode or -1, proc.stderr, proc.stdout
    # The child died before reporting: count it, and its wall time.
    return {"exit": exit_code, "crashed": stderr[-2000:],
            "run_s": time.perf_counter() - started, "setup_s": None, "cal_s": None,
            "cpu_s": 0.0, "rss_kb": 0, "integral": [], "oracle": []}, stdout


def scaled(record: dict) -> tuple[float, float | None]:
    """(operation time, set-up time) of a record in reference seconds: each
    wall time times the kernel's CALIBRATION_REF_S over the mean kernel time
    just before and after it.  A child that died before reporting has no
    calibration: its wall time counts as it is."""
    cal = record.get("cal_s")
    if not cal:
        return record["run_s"], record["setup_s"]
    ref = CALIBRATION_REF_S[record["kernel"]]
    setup = record["setup_s"] * 2 * ref / (cal[0] + cal[1])
    return record["run_s"] * 2 * ref / (cal[1] + cal[2]), setup


@dataclass
class Pass:
    run_s: float = 0.0  # reference seconds, see scaled()
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    bytes_out: int = 0
    setup_s: list = field(default_factory=list)  # reference seconds
    setup_wall_s: list = field(default_factory=list)
    verdict: Verdict = field(default_factory=Verdict)
    layers: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    quadratures: list = field(default_factory=list)
    oracles: list = field(default_factory=list)
    alloc_peak_b: int = 0
    spans: list = field(default_factory=list)


class Runner:
    """Runs passes over one workload and checks every output once."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.ops = workload_ops(name, seed)
        self.samples = any(op.command in ("verify", "oracle") for op in self.ops)
        self.rational = any(op.command in ("verify", "rational") for op in self.ops)
        started = time.perf_counter()
        triples = sorted({t for op in self.ops for t in op.triples})
        self.refs = {t: Reference(*t) for t in triples}
        self.exact = ({t: mutual_information_fraction(*t) for t in triples}
                      if any(op.kind == "rational" for op in self.ops) else {})
        self.reference_s = time.perf_counter() - started
        self._verdicts: dict = {}
        self.outputs: dict[tuple, set] = {}

    def check(self, index: int, op: Op, record: dict, stdout: str) -> Verdict:
        fractions = record.get("fractions")
        key = (index, record["exit"], hashlib.sha256(stdout.encode()).hexdigest(),
               json.dumps(fractions))
        self.outputs.setdefault((op.command, op.triples), set()).add(key[2:])
        if key not in self._verdicts:
            if op.kind == "rational":
                verdict = check_rational(fractions, record["exit"], list(op.triples),
                                         self.exact)
            elif op.command == "sweep":
                verdict = check_sweep(stdout, record["exit"], list(op.triples),
                                      self.refs)
            else:
                verdict = check_json_command(stdout, record["exit"],
                                             list(op.triples[0]), self.refs,
                                             op.command)
            if "crashed" in record:
                verdict.problems.insert(0, "child crashed: " + record["crashed"])
            self._verdicts[key] = verdict
        return self._verdicts[key]

    def run_pass(self, workers: int | None = None, **flags) -> Pass:
        result = Pass()
        for index, op in enumerate(self.ops):
            if workers is not None and op.command in ("verify", "oracle"):
                op = op.with_workers(workers)
            record, stdout = spawn(op.spec(**flags))
            run_s, setup_s = scaled(record)
            result.run_s += run_s
            result.wall_s += record["run_s"]
            result.cpu_s += record["cpu_s"]
            result.rss_mb = max(result.rss_mb, record["rss_kb"] / 1024.0)
            result.bytes_out += len(stdout.encode())
            if setup_s is not None:
                result.setup_s.append(setup_s)
                result.setup_wall_s.append(record["setup_s"])
            result.verdict.merge(self.check(index, op, record, stdout))
            for name, entry in record.get("layers", {}).items():
                into = result.layers.setdefault(
                    name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                for key in into:
                    into[key] += entry[key]
            for name, value in record.get("counters", {}).items():
                if name.endswith("_max_dim"):
                    result.counters[name] = max(result.counters.get(name, 0), value)
                else:
                    result.counters[name] = result.counters.get(name, 0) + value
            result.quadratures += record["integral"]
            result.oracles += record["oracle"]
            result.alloc_peak_b = max(result.alloc_peak_b, record.get("alloc_peak_b", 0))
            if "spans" in record:
                result.spans.append({"op": list(op.argv) or op.command,
                                     **record["spans"]})
        return result

    def run_until(self, deadline: float, min_passes: int = 1,
                  hard_deadline: float | None = None, **flags) -> list[Pass]:
        """Passes until ``deadline``; then on until ``min_passes`` are done,
        unless ``hard_deadline`` comes first."""
        passes = [self.run_pass(**flags)]
        while True:
            now = time.perf_counter()
            if now >= deadline and (len(passes) >= min_passes
                                    or hard_deadline is None or now >= hard_deadline):
                return passes
            passes.append(self.run_pass(**flags))

    def deterministic(self) -> bool:
        """Each operation printed the same bytes on every pass."""
        return all(len(outputs) == 1 for outputs in self.outputs.values())


# --------------------------------------------------------------------------
# Metrics


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND values beyond it, as
    (value, percentile).  With too few values it is the minimum, as it is
    with TAIL_BEYOND + 1 values, so a run that falls short of that many
    passes does not flip the metric to the other end."""
    ordered = sorted(values)
    index = max(len(ordered) - 1 - TAIL_BEYOND, 0)
    percentile = 100.0 * index / (len(ordered) - 1) if len(ordered) > 1 else 0.0
    return ordered[index], percentile


def _verdict_of(passes: list[Pass]) -> Verdict:
    total = Verdict()
    for p in passes:
        total.merge(p.verdict)
    return total


def end_to_end(runner: Runner, passes: list[Pass]) -> tuple[dict, list[str]]:
    items = sum(op.items for op in runner.ops)
    pass_s = statistics.median(p.run_s for p in passes)
    tail_s, tail_pct = tail([p.run_s for p in passes])
    verdict = _verdict_of(passes)
    setups = [s for p in passes for s in p.setup_s]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (pass_s, "s"),
        "pass_s_tail": (tail_s, "s"),
        "throughput": (items / pass_s, "items/s"),
        "peak_rss_mb": (statistics.median(p.rss_mb for p in passes), "MB"),
        "ok_frac": (1.0 - verdict.failed / verdict.attempted, "ratio"),
    }
    notes = [
        f"passes {len(passes)}; pass_s_tail is p{tail_pct:.0f} "
        f"({min(TAIL_BEYOND, len(passes) - 1)} passes beyond it)",
        f"setup_s is the median of {len(setups)} imports of haarmi.cli",
        "in wall seconds, before scaling by the calibration kernel: pass_s "
        f"{statistics.median(p.wall_s for p in passes):.6g}, setup_s "
        f"{statistics.median(s for p in passes for s in p.setup_wall_s):.6g}",
        f"throughput counts {items} {ITEM_NAMES[runner.name]} per pass",
        f"operations {verdict.attempted}, failed {verdict.failed} "
        f"(fail_frac {verdict.failed / verdict.attempted:.6f}), "
        f"structural {verdict.structural}",
    ]
    return metrics, notes


def _layer(passes: list[Pass], name: str, key: str) -> float:
    return statistics.median(p.layers.get(name, {}).get(key, 0) for p in passes)


def _counter(passes: list[Pass], name: str) -> float:
    return statistics.median(p.counters.get(name, 0) for p in passes)


def per_layer(runner: Runner, untraced: list[Pass], traced: list[Pass],
              one_worker: Pass | None, alloc: Pass | None) -> dict:
    refs = runner.refs
    untraced_s = statistics.median(p.wall_s for p in untraced)
    verdict = _verdict_of(traced)

    def dishonest(p: Pass) -> int:
        count = 0
        for d_a, d_b, d_e, tol, value, err, _evals in p.quadratures:
            if abs(value - refs[(d_a, d_b, d_e)].j) > max(err, tol):
                count += 1
        return count

    def z_max(p: Pass) -> float:
        return max((refs[tuple(s["dims"])].z_max(s) for s in p.oracles), default=0.0)

    def total(name):
        return _layer(traced, name, "total_s")

    def calls(name):
        return _layer(traced, name, "calls")

    cpu = sum(p.cpu_s for p in untraced)
    wall = sum(p.wall_s for p in untraced)
    return {
        "trace.overhead_s": (statistics.median(p.wall_s for p in traced) - untraced_s,
                             "s"),
        "cli.self_s": (_layer(traced, "cli.main", "self_s")
                       + _layer(traced, "cli.run", "self_s"), "s"),
        "cli.emit_s": (total("cli.emit"), "s"),
        "cli.bytes_out": (statistics.median(p.bytes_out for p in traced), "bytes"),
        "page.exact_s": (total("page.exact"), "s"),
        "page.exact_calls": (calls("page.exact"), "count"),
        "special.digamma_s": (total("special.digamma"), "s"),
        "special.digamma_calls": (calls("special.digamma"), "count"),
        "page.max_rel_err": (verdict.page_rel, "ratio"),
        "series.expand_s": (total("series.expand"), "s"),
        "series.expand_calls": (calls("series.expand"), "count"),
        "series.terms": (_counter(traced, "series.terms"), "count"),
        "special.zeta_s": (total("special.zeta"), "s"),
        "special.zeta_calls": (calls("special.zeta"), "count"),
        "integral.compute_J_s": (total("integral.compute_J"), "s"),
        "integral.compute_J_calls": (calls("integral.compute_J"), "count"),
        "integral.evaluations": (statistics.median(
            sum(q[6] for q in p.quadratures) for p in traced), "count"),
        "integral.max_rel_err": (verdict.integral_rel, "ratio"),
        "integral.dishonest_err": (statistics.median(dishonest(p) for p in traced),
                                   "count"),
        "page.rational_s": (total("page.rational"), "s"),
        "page.rational_calls": (calls("page.rational"), "count"),
        "page.rational_alloc_peak_mb": (
            alloc.alloc_peak_b / 2**20 if alloc is not None else 0.0, "MB"),
        "special.harmonic_s": (total("special.harmonic"), "s"),
        "special.harmonic_calls": (calls("special.harmonic"), "count"),
        "sampling.rng_s": (total("sampling.rng"), "s"),
        "sampling.rng_streams": (_counter(traced, "sampling.rng_streams"), "count"),
        "sampling.einsum_s": (total("sampling.einsum"), "s"),
        "sampling.einsum_calls": (calls("sampling.einsum"), "count"),
        "sampling.eigvalsh_s": (total("sampling.eigvalsh"), "s"),
        "sampling.eigvalsh_calls": (calls("sampling.eigvalsh"), "count"),
        "sampling.eigvalsh_max_dim": (_counter(traced, "sampling.eigvalsh_max_dim"),
                                      "count"),
        "sampling.norm_s": (total("sampling.norm"), "s"),
        "sampling.run_oracle_s": (total("sampling.run_oracle"), "s"),
        "sampling.other_s": (_layer(traced, "sampling.run_oracle", "self_s"), "s"),
        "sampling.samples": (_counter(traced, "sampling.samples"), "count"),
        "sampling.z_max": (statistics.median(z_max(p) for p in traced), "sigma"),
        "sampling.worker_speedup": (
            one_worker.wall_s / untraced_s if one_worker is not None else 0.0, "x"),
        "sampling.cpu_per_wall": (cpu / wall if runner.samples else 0.0, "ratio"),
    }


# --------------------------------------------------------------------------
# Machine facts


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts() -> dict:
    record, _ = spawn({"kind": "facts"})
    facts = record.get("facts", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else None,
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": facts.get("numpy"),
        "blas": facts.get("blas"),
        "blas_pin": BLAS_PIN["OPENBLAS_NUM_THREADS"],
        "loadavg_before": list(os.getloadavg()),
    }


# --------------------------------------------------------------------------
# Driver


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    facts = machine_facts()
    runner = Runner(name, seed)
    start = time.perf_counter()
    if not trace:
        passes = runner.run_until(start + seconds, MIN_PASSES,
                                  start + MAX_OVERRUN * seconds)
        metrics, notes = end_to_end(runner, passes)
        checked = passes
    else:
        untraced = runner.run_until(start + UNTRACED_SHARE * seconds)
        one_worker = runner.run_pass(workers=1) if runner.samples else None
        alloc = runner.run_pass(alloc=True) if runner.rational else None
        traced = [runner.run_pass(trace=True, keep_spans=True)]
        traced += runner.run_until(start + seconds, trace=True)
        metrics = per_layer(runner, untraced, traced, one_worker, alloc)
        _, notes = end_to_end(runner, untraced)
        notes.insert(0, f"untraced passes {len(untraced)}, traced passes {len(traced)}")
        checked = untraced + traced + [p for p in (one_worker, alloc) if p]
        spans_file = _write_trace(name, seed, facts, traced)
        notes.append(f"spans of one traced pass written to {spans_file}")
    facts["loadavg_after"] = list(os.getloadavg())
    verdict = _verdict_of(checked)
    deterministic = runner.deterministic()
    return {
        "workload": name,
        "facts": facts,
        "reference_s": runner.reference_s,
        "notes": notes,
        "problems": verdict.problems,
        "deterministic": deterministic,
        "correct": verdict.structural == 0 and deterministic,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": metrics,
    }


def _write_trace(name: str, seed: int, facts: dict, traced: list[Pass]) -> str:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{name}-seed{seed}.json"
    payload = {
        "workload": name,
        "seed": seed,
        "machine": facts,
        "passes": [{"layers": p.layers, "counters": p.counters} for p in traced],
        "spans": traced[0].spans,
    }
    path.write_text(json.dumps(payload))
    return str(path.relative_to(ROOT))


def _print_report(result: dict) -> None:
    print(f"== {result['workload']}")
    print("machine " + json.dumps(result["facts"]))
    print(f"reference computed in {result['reference_s']:.3f} s (outside timing)")
    for note in result["notes"]:
        print("  " + note)
    width = max(len(name) for name in result["metrics"])
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name.ljust(width)}  {value:.6g} {unit}")
    if not result["deterministic"]:
        print("  OUTPUT DIFFERED BETWEEN PASSES")
    for problem in result["problems"][:10]:
        print("  failed: " + problem)


def _result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "haarmi" / "cli.py").is_file():
        print(f"perfbench: no haarmi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names]
    for result in results:
        _print_report(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{name}": entry
                   for r in results for name, entry in r["metrics"].items()}
    print(_result_line(all(r["correct"] for r in results),
                       sum(r["attempted"] for r in results),
                       sum(r["failed"] for r in results), metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
