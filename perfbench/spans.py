"""In-memory span tracer that wraps the package's public functions by name.

A function is wrapped at every module that binds it: ``map_estimate`` is
looked up through ``protocol``, ``harness``, ``cli`` and the package
``__init__`` as well as ``estimator``, so each of those names is replaced for
the duration of a trace and restored afterwards. Spans stay in memory as
(name, parent, start, end) and are written out once the traced work is done.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from types import ModuleType
from typing import Callable, Iterable, Iterator, Optional

#: a span: [name, parent index (-1 for a root), start s, end s]
Span = list


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(
        self, name: str, fn: Callable, observe: Optional[Callable] = None
    ) -> Callable:
        """``fn`` recording one span per call; ``observe(args, result)`` counts work."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    @contextmanager
    def instrument(
        self, modules: Iterable[ModuleType], targets: dict[str, tuple[ModuleType, str, Optional[Callable]]]
    ) -> Iterator[None]:
        """Wrap each target at every module in ``modules`` that binds it.

        ``targets`` maps a span name to (defining module, attribute, observer).
        """
        modules = list(modules)
        patched: list[tuple[ModuleType, str, Callable]] = []
        try:
            for name, (home, attr, observe) in targets.items():
                original = getattr(home, attr)
                wrapper = self.wrap(name, original, observe)
                for module in modules:
                    for bound, value in list(vars(module).items()):
                        if value is original:
                            patched.append((module, bound, original))
                            setattr(module, bound, wrapper)
            yield
        finally:
            for module, bound, original in reversed(patched):
                setattr(module, bound, original)

    def write_csv(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write("id,name,parent,start_us,end_us\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                handle.write(f"{i},{name},{parent},{start * 1e6:.3f},{end * 1e6:.3f}\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    Children may overlap each other (then their union counts once) and may
    run past their parent (then only the part inside the parent counts).
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, parent, start, end) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, total seconds, self seconds and each call's duration."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for (name, parent, start, end), own in zip(spans, selfs):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += own
        entry["durations"].append(end - start)
    return out
