"""Outside-in tracing of psalab's public functions.

The benchmark must not edit the package, so spans are recorded by
rebinding the public functions it names to wrappers.  A function is
rebound under every name it is reachable by in the loaded psalab modules:
its defining module, the names that sweeps, cli and config pulled in with
``from .x import y``, and the package re-exports.  Rebinding only the
defining module would miss every call made through an imported name.

Spans are kept in memory while a pass runs: (name, parent span, start,
end).  After the pass they are folded into per-function call counts and
self times, where self time is the span's duration minus the durations of
its wrapped children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "psalab"

def _count_points(counters, result):
    counters["sweeps.points"] += len(getattr(result, "x", ()))


def _count_samples(counters, record):
    counters["beatnote.samples_computed"] += len(getattr(record, "samples", ()))


def _count_bytes(counters, paths):
    counters["serialize.bytes_written"] += sum(path.stat().st_size for path in paths)


# Counters read from a function's return value, outside its span.
_RESULT_HOOKS = {
    "sweeps.run_scan": _count_points,
    "beatnote.synthesize_beatnote": _count_samples,
    "beatnote.cell_off_record": _count_samples,
    "serialize.write_sweep": _count_bytes,
}


class Tracer:
    """Installs span-recording wrappers around the named psalab functions.

    ``functions`` holds ``layer.name`` entries such as ``sweeps.run_scan``.
    A name the package no longer defines is listed in ``absent`` and its
    metrics read as zero; it does not stop the run.
    """

    def __init__(self, functions: tuple[str, ...]):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._wrappers: dict[int, tuple[object, object]] = {}
        self._originals: list[tuple[object, str, object]] = []
        for qualified in functions:
            layer, name = qualified.rsplit(".", 1)
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ModuleNotFoundError:
                module = None
            fn = getattr(module, name, None)
            if not callable(fn):
                self.absent.append(qualified)
                continue
            self._wrappers[id(fn)] = (fn, self._wrap(qualified, fn))

    def _wrap(self, qualified: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counters, hook = self.counters, _RESULT_HOOKS.get(qualified)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (qualified, parent, start, end)
            if hook is not None:
                hook(counters, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every loaded psalab name that refers to a traced function."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._originals.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def take(self) -> tuple[list, Counter]:
        """Return and clear the spans and counters recorded so far."""
        spans, counters = list(self.spans), Counter(self.counters)
        self.spans.clear()
        self.counters.clear()
        return spans, counters


def fold(spans: list) -> tuple[Counter, dict[str, float]]:
    """Per-function call counts and self times of one pass's spans."""
    calls: Counter = Counter()
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    for index, (name, _parent, start, end) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child[index]
    return calls, self_s


def span_dump(spans: list, pass_id: int) -> dict:
    """Compact JSON form of one pass's spans: times in microseconds from its first span."""
    names = sorted({span[0] for span in spans})
    ids = {name: i for i, name in enumerate(names)}
    origin = spans[0][2] if spans else 0.0
    rows = [
        [ids[name], parent, round((start - origin) * 1e6, 3), round((end - start) * 1e6, 3)]
        for name, parent, start, end in spans
    ]
    return {
        "pass": pass_id,
        "names": names,
        "columns": ["name", "parent", "start_us", "duration_us"],
        "spans": rows,
    }
