"""One benchmark operation in a fresh interpreter.

Usage: ``python3 child.py '<json spec>' python|bigint <repeats>`` with
``src`` on ``PYTHONPATH``.
The spec names the operation:

* ``{"kind": "cli", "argv": [...]}`` runs ``haarmi.cli.main(argv)``; the
  CLI writes to this process's stdout exactly as it would for a user;
* ``{"kind": "rational", "triples": [[d_a, d_b, d_e], ...]}`` calls
  ``haarmi.page.mutual_information_rational`` on each triple in turn;
* ``{"kind": "facts"}`` reports the numpy and BLAS versions.

Optional flags: ``trace`` records spans around haarmi's layers,
``keep_spans`` also returns every span, and ``alloc`` measures the
largest tracemalloc peak inside one rational-route call.

The measurement record goes to stderr as the last line, prefixed by
``RECORD_TAG``.  Import time of ``haarmi.cli`` is the set-up time; the
operation time excludes it.

A fixed calibration kernel is timed before the import, between import and
operation, and after the operation (``cal_s``, the mean time of one run of
the kernel), so the parent can express both times relative to the CPU
speed this process got at that moment.  The second argument names the
kernel: ``python`` (~7 ms), an interpreter loop, or ``bigint`` (~13 ms),
big-integer multiplication and division like the rational route's.  The
third says how often it runs at each point.
"""

import sys
import time


def _python_kernel() -> None:
    total, table = 0, {}
    for i in range(1, 40001):
        total += i * i % 7
        table[i & 127] = total


def _bigint_kernel() -> None:
    a, b = 3**20000 + 1, 7**12000 + 3
    for i in range(4):
        c = a * b + i
        a, b = b + c % a, a


KERNEL_NAME = sys.argv[2]
KERNEL = {"python": _python_kernel, "bigint": _bigint_kernel}[KERNEL_NAME]
KERNEL_REPEATS = int(sys.argv[3])


def calibrate() -> float:
    """Mean wall time of one run of the calibration kernel."""
    t0 = time.perf_counter()
    for _ in range(KERNEL_REPEATS):
        KERNEL()
    return (time.perf_counter() - t0) / KERNEL_REPEATS


CAL_BEFORE_SETUP = calibrate()
_t0 = time.perf_counter()
import haarmi.cli  # noqa: E402

SETUP_S = time.perf_counter() - _t0
CAL_AFTER_SETUP = calibrate()

import haarmi.dims  # noqa: E402  (already loaded by haarmi.cli)
import haarmi.page  # noqa: E402
import haarmi.sampling  # noqa: E402
import haarmi.series  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

RECORD_TAG = "@perfbench-record "


def _stats_dict(stats) -> dict:
    out = {"dims": [stats.dims.d_a, stats.dims.d_b, stats.dims.d_e],
           "n_samples": stats.n_samples}
    for name, value in vars(stats).items():
        if isinstance(value, float):
            out[name] = value
    return out


def _install_tracer(record: dict):
    """Wrap haarmi's layer entry points; returns the tracer."""
    import numpy
    from tracer import Tracer, numpy_proxy

    tracer = Tracer()
    cli, page = haarmi.cli, haarmi.page
    quadratures, oracles = record["integral"], record["oracle"]

    def on_compute_j(args, result):
        dims = args[0]
        tol = args[1] if len(args) > 1 else 1e-14
        quadratures.append([dims.d_a, dims.d_b, dims.d_e, tol, result.value,
                            result.error_estimate, result.evaluations])

    def on_expand(_args, result):
        tracer.count("series.terms", len(result.terms))

    def on_oracle(_args, stats):
        tracer.count("sampling.samples", stats.n_samples)
        oracles.append(_stats_dict(stats))

    tracer.wrap(cli, "run", "cli.run")
    tracer.wrap(cli, "emit", "cli.emit")
    tracer.wrap(cli, "compute_J", "integral.compute_J", on_compute_j)
    tracer.wrap(cli, "expand", "series.expand", on_expand)
    tracer.wrap(cli, "mutual_information_exact", "page.exact")
    tracer.wrap(cli, "mutual_information_rational", "page.rational")
    tracer.wrap(page, "mutual_information_rational", "page.rational")
    tracer.wrap(cli, "run_oracle", "sampling.run_oracle", on_oracle)
    tracer.wrap(page, "digamma", "special.digamma")
    tracer.wrap(page, "harmonic_rational", "special.harmonic")
    tracer.wrap(haarmi.series, "zeta_negative_odd", "special.zeta")
    haarmi.sampling.np = numpy_proxy(numpy, tracer)
    return tracer


def _install_alloc_probe(record: dict):
    """Keep in ``record["alloc_peak_b"]`` the largest tracemalloc peak seen
    inside one rational-route call.  Tracing starts at the first call, so
    memory that earlier calls left behind (the harmonic cache) counts, and
    work outside the calls (the oracle in ``verify``) does not."""
    import functools
    import tracemalloc

    record["alloc_peak_b"] = 0
    for module in (haarmi.cli, haarmi.page):
        fn = module.mutual_information_rational

        def probed(*args, _fn=fn, **kwargs):
            if not tracemalloc.is_tracing():
                tracemalloc.start()
            tracemalloc.reset_peak()
            try:
                return _fn(*args, **kwargs)
            finally:
                record["alloc_peak_b"] = max(record["alloc_peak_b"],
                                             tracemalloc.get_traced_memory()[1])

        module.mutual_information_rational = functools.wraps(fn)(probed)
    return tracemalloc


def _facts() -> dict:
    import numpy

    facts = {"numpy": numpy.__version__, "blas": None}
    try:  # show_config(mode=...) needs numpy >= 1.25
        config = numpy.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}".strip()
    except (TypeError, AttributeError):
        pass
    return facts


def _run_op(spec: dict, record: dict, tracer) -> None:
    kind = spec["kind"]
    if kind == "cli":
        try:
            if tracer is None:
                code = haarmi.cli.main(spec["argv"])
            else:
                code = tracer.call("cli.main", haarmi.cli.main, spec["argv"])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        sys.stdout.flush()
        record["exit"] = code
    elif kind == "rational":
        fractions = []
        for d_a, d_b, d_e in spec["triples"]:
            dims = haarmi.dims.Dimensions(d_a, d_b, d_e)
            fractions.append(haarmi.page.mutual_information_rational(dims))
        record["fractions"] = [
            [format(f.numerator, "x"), format(f.denominator, "x")] for f in fractions
        ]
        record["exit"] = 0
    elif kind == "facts":
        record["facts"] = _facts()
        record["exit"] = 0
    else:
        raise ValueError(f"unknown operation kind {kind!r}")


def main() -> None:
    spec = json.loads(sys.argv[1])
    record = {"setup_s": SETUP_S, "integral": [], "oracle": []}
    tracer = _install_tracer(record) if spec.get("trace") else None
    tracemalloc = _install_alloc_probe(record) if spec.get("alloc") else None

    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    _run_op(spec, record, tracer)
    record["run_s"] = time.perf_counter() - t0
    usage1 = resource.getrusage(resource.RUSAGE_SELF)

    record["cpu_s"] = (usage1.ru_utime - usage0.ru_utime
                       + usage1.ru_stime - usage0.ru_stime)
    record["rss_kb"] = usage1.ru_maxrss
    if tracemalloc is not None:
        tracemalloc.stop()
    record["kernel"] = KERNEL_NAME
    record["cal_s"] = [CAL_BEFORE_SETUP, CAL_AFTER_SETUP, calibrate()]
    if tracer is not None:
        record["layers"] = tracer.summary()
        record["counters"] = dict(tracer.counters)
        if spec.get("keep_spans"):
            record["spans"] = tracer.dump()
    sys.stderr.write("\n" + RECORD_TAG + json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
