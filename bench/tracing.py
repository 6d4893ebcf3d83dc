"""In-memory spans around the public functions of the cvarvi modules.

The tracer replaces a function in every module namespace that holds it,
so a call is recorded whether the caller looks the function up in its own
module (``routing.solve_cwe`` calling ``path_cost_field``) or through a
name it imported (``harness`` calling ``sample_path_kappa``). Nothing in
the package itself changes; ``uninstall`` puts every original back.

A span is ``[name, start, end, parent, rep, extra]``: perf-counter seconds,
the index of the enclosing span (-1 at top level), the replication it ran
for (or None) and a small dict of counts taken from the call.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Optional

NAME, START, END, PARENT, REP, EXTRA = range(6)


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.rep: Optional[str] = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.rep, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = self.clock()
        return record

    def _close(self, record: list) -> None:
        record[END] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code; yields its index."""
        index = len(self.spans)
        record = self._open(name)
        try:
            yield index
        finally:
            self._close(record)

    def wrap(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        """`before(args, kwargs)` runs ahead of the span (it may set the
        replication id); `after(args, kwargs, result)` returns the span's
        extra counts and runs once the span is closed."""

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(record)
                record[EXTRA] = {"error": type(exc).__name__}
                raise
            self._close(record)
            if after is not None:
                record[EXTRA] = after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, modules: Iterable, targets: dict[str, tuple]) -> None:
        """targets maps a span name `module.function` to (function, before,
        after). Every module in `modules` whose attribute is that very
        function object gets the wrapper."""
        modules = list(modules)
        for name, (fn, before, after) in targets.items():
            wrapper = self.wrap(name, fn, before, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def write(self, path: Path) -> None:
        """Write every span once, as one JSON document."""
        doc = {"fields": ["name", "start", "end", "parent", "rep", "extra"], "spans": self.spans}
        Path(path).write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    return [
        (s[END] - s[START]) - _covered(children.get(i, []), s[START], s[END])
        for i, s in enumerate(spans)
    ]


def descendants(spans: list[list], root: int) -> list[int]:
    """Indices of root and every span below it (spans are stored in the
    order they were opened, so a child always follows its parent)."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i][PARENT] in inside:
            inside.add(i)
    return sorted(inside)


def outermost(spans: list[list], name: str) -> list[int]:
    """Spans of `name` with no ancestor of the same name, so that
    inclusive times of recursive calls are not counted twice."""
    keep = []
    for i, s in enumerate(spans):
        if s[NAME] != name:
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != name:
            p = spans[p][PARENT]
        if p < 0:
            keep.append(i)
    return keep


class Summary:
    """Per-name aggregates of one list of spans."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.self_s = self_times(spans)
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for i, s in enumerate(spans):
            self.by_name[s[NAME]].append(i)

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, []))

    def total_s(self, name: str) -> float:
        return sum(self.spans[i][END] - self.spans[i][START] for i in outermost(self.spans, name))

    def total_self_s(self, name: str) -> float:
        return sum(self.self_s[i] for i in self.by_name.get(name, []))

    def durations(self, name: str, where: Optional[Callable[[dict], bool]] = None) -> list[float]:
        out = []
        for i in self.by_name.get(name, []):
            extra = self.spans[i][EXTRA] or {}
            if where is None or where(extra):
                out.append(self.spans[i][END] - self.spans[i][START])
        return out

    def extra_sum(self, name: str, key: str) -> float:
        return sum((self.spans[i][EXTRA] or {}).get(key, 0) for i in self.by_name.get(name, []))

    def extra_max(self, name: str, key: str) -> float:
        return max([(self.spans[i][EXTRA] or {}).get(key, 0) for i in self.by_name.get(name, [])] or [0])

    def errors(self, name: str, error: str) -> int:
        return sum(
            1 for i in self.by_name.get(name, []) if (self.spans[i][EXTRA] or {}).get("error") == error
        )

    def subtree_self_s(self, root: int) -> float:
        return sum(self.self_s[i] for i in descendants(self.spans, root))
