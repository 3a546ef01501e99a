"""Span recording around haarmi's layer boundaries, installed from outside.

The tracer wraps module attributes after ``haarmi.cli`` is imported; it
never edits the package.  A span is ``(name, start, end, parent, thread)``;
spans live in memory and the caller writes them out when it is done.  A
layer's self time is its span's duration minus the union of the intervals
its child spans cover.  Spans opened on a worker thread with nothing open
on that thread take the main thread's innermost open span as parent, so
the per-chunk work of ``run_oracle`` nests under it.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # Each span: [name_id, start, end, parent span or None, thread_id].
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[list] = []
        self._main_thread = threading.main_thread()

    def _stack(self) -> list[list]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        name_id = self._name_ids.get(name)
        if name_id is None:
            with self._lock:
                name_id = self._name_ids.setdefault(name, len(self.names))
                if name_id == len(self.names):
                    self.names.append(name)
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        span = [name_id, _clock(), None, parent, threading.get_ident()]
        self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = _clock()
        self._stack().pop()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def maximum(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = max(self.counters[name], value)

    def call(self, name: str, fn, *args, **kwargs):
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def wrap(self, module, attr: str, name: str, on_result=None) -> None:
        """Replace ``module.attr`` by a timed forwarder recording span ``name``;
        ``on_result(args, result)`` runs after the span closes."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(module, attr, timed)

    def summary(self) -> dict:
        """Per span name: call count, total duration and self time (seconds)."""
        children: dict[int, list[list]] = defaultdict(list)
        for span in self.spans:
            if span[3] is not None:
                children[id(span[3])].append(span)
        out: dict[str, dict] = {}
        for span in self.spans:
            name_id, start, end = span[0], span[1], span[2]
            entry = out.setdefault(self.names[name_id],
                                   {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            duration = end - start
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - _covered(
                start, end, children.get(id(span), ()))
        return out

    def dump(self) -> dict:
        """Spans as ``[name_id, start, end, parent_index or -1, thread]``."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return {
            "names": self.names,
            "spans": [
                [n, s, e, -1 if p is None else index[id(p)], t]
                for n, s, e, p, t in self.spans
            ],
        }


def _covered(start: float, end: float, spans: list[list]) -> float:
    """Length of ``[start, end]`` covered by the union of the spans."""
    covered = 0.0
    cursor = start
    for _name, s, e, _parent, _thread in sorted(spans, key=lambda sp: sp[1]):
        s, e = max(s, cursor), min(e, end)
        if e > s:
            covered += e - s
            cursor = e
    return covered


class _Forward:
    """Attribute forwarder: ``overrides`` first, then the wrapped object."""

    def __init__(self, target, overrides: dict):
        self._target = target
        self._overrides = overrides

    def __getattr__(self, name):
        try:
            return self._overrides[name]
        except KeyError:
            return getattr(self._target, name)


def numpy_proxy(np, tracer: Tracer):
    """A stand-in for ``numpy`` that times random-stream construction and
    Gaussian draws, ``einsum``, ``linalg.eigvalsh`` and ``linalg.norm``."""
    def timed(name, fn):
        return functools.wraps(fn)(lambda *a, **k: tracer.call(name, fn, *a, **k))

    def make_generator(bit_generator):
        tracer.count("sampling.rng_streams")
        gen = tracer.call("sampling.rng", np.random.Generator, bit_generator)
        return _Forward(gen, {
            "standard_normal": timed("sampling.rng", gen.standard_normal),
        })

    def eigvalsh(a, *args, **kwargs):
        shape = getattr(a, "shape", ())
        if shape:
            tracer.maximum("sampling.eigvalsh_max_dim", shape[-1])
        return tracer.call("sampling.eigvalsh", np.linalg.eigvalsh, a, *args, **kwargs)

    random = _Forward(np.random, {
        "Generator": make_generator,
        "Philox": timed("sampling.rng", np.random.Philox),
    })
    linalg = _Forward(np.linalg, {
        "eigvalsh": eigvalsh,
        "norm": timed("sampling.norm", np.linalg.norm),
    })
    return _Forward(np, {
        "random": random,
        "linalg": linalg,
        "einsum": timed("sampling.einsum", np.einsum),
    })
