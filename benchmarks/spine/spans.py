"""In-memory spans recorded by shims around public entry points.

A shim is an instance attribute that shadows a bound method of one
object the benchmark built: it records (name, start, end, parent) and
calls the original.  Nothing at class or module level is touched, so
removing the attribute restores the object exactly.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Iterable


class SpanRecorder:
    """Records nested spans; single-threaded, like the code it wraps."""

    def __init__(self) -> None:
        #: One ``[name, start_ns, end_ns, parent_index]`` per call;
        #: parent -1 is the root.
        self.spans: list[list] = []
        #: Calls that raised, by span name.
        self.errors: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str]] = []

    def wrap(self, obj: Any, attr: str, name: str) -> None:
        """Shadow ``obj.attr`` with a recording shim."""
        original = getattr(obj, attr)
        spans, stack, errors = self.spans, self._stack, self.errors
        clock = time.perf_counter_ns

        def shim(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return original(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                spans[index][2] = clock()
                stack.pop()

        setattr(obj, attr, shim)
        self._installed.append((obj, attr))

    def wrap_all(self, targets: Iterable[tuple[Any, str, str]]) -> None:
        for obj, attr, name in targets:
            self.wrap(obj, attr, name)

    def remove(self) -> None:
        """Delete every shim; the objects' own methods show through."""
        for obj, attr in self._installed:
            del obj.__dict__[attr]
        self._installed.clear()


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per-name calls, total and self seconds.

    A span's self time is its duration minus the durations of its
    direct children; a name's totals add up its spans (a span nested in
    one of the same name is counted in both, as a call is).
    """
    child_ns = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for index, (name, start, end, _) in enumerate(spans):
        row = out.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["total_s"] += (end - start) / 1e9
        row["self_s"] += (end - start - child_ns[index]) / 1e9
    return out


def durations_s(spans: list[list], name: str) -> list[float]:
    """Every duration recorded under ``name``, in seconds."""
    return [(end - start) / 1e9 for n, start, end, _ in spans if n == name]
