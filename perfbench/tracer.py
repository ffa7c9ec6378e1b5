"""Time the program's layers from outside, by wrapping their public functions.

Every public function defined in one of the layer modules is replaced by a
timing wrapper at its defining module and at every other ``ageval`` module
that bound it by import (``harness.fbank``, ``measures.resample``, the
package's own re-exports, ...). Calls that go through any of those bindings
are recorded; a refactor that calls a layer some other way shows up as zero
calls, which ``missing`` reports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Callable, Iterable

LAYERS = ("dsp", "am", "measures", "stats", "harness", "fixture", "cli")

# Work counted from a layer's return value: frames through the model, and
# analysis frames STOI correlated.
UNIT_COUNTERS: dict[str, Callable[[object], int]] = {
    "am.forward": lambda result: result.n_frames,
    "measures.stoi": lambda result: result.n_frames_used,
}

# Layers whose per-call durations are kept, for percentiles.
KEEP_SAMPLES = frozenset({"harness.score_utterance"})


class _Record:
    __slots__ = ("calls", "total", "self_time", "units", "samples")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.units = 0
        self.samples: list[float] = []


class Tracer:
    """Inclusive time, self time, call count and work units per layer function.

    Self time is a call's duration minus the durations of the wrapped calls
    made directly inside it. Use as a context manager: bindings are patched
    on entry and restored on exit.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._records: dict[str, _Record] = {}
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        record = self._records.setdefault(name, _Record())
        clock = self._clock
        stack = self._stack
        counter = UNIT_COUNTERS.get(name)
        keep = name in KEEP_SAMPLES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                record.calls += 1
                record.total += elapsed
                record.self_time += elapsed - children[0]
                if keep:
                    record.samples.append(elapsed)
            if counter is not None:
                record.units += counter(result)
            return result

        return traced

    def install(self) -> int:
        """Wrap every public function of the layer modules at every binding; returns bindings patched."""
        wrappers: dict[int, Callable] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"ageval.{layer}")
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "ageval" and not mod_name.startswith("ageval."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj)) if inspect.isfunction(obj) else None
                if wrapper is not None:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        return len(self._patched)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def snapshot(self) -> dict[str, dict]:
        """Plain-data copy of every record that saw at least one call."""
        return {
            name: {
                "calls": r.calls,
                "total": r.total,
                "self": r.self_time,
                "units": r.units,
                "samples": list(r.samples),
            }
            for name, r in self._records.items()
            if r.calls
        }


def missing(trace: dict[str, dict], required: Iterable[str]) -> list[str]:
    """Required layer functions that recorded zero calls."""
    return [name for name in required if not trace.get(name, {}).get("calls")]
