"""Spans recorded from outside the program, around calls into its layers.

:class:`Tracer` replaces a list of public callables of :mod:`repro`
with wrappers that record one span per call: name, start, end and the
span that was open when the call began.  Uninstalling puts the original
callables back, so untraced runs execute exactly the program's code.
Spans stay in memory and are summarised when the traced round ends.

Every wrapped callable is synchronous.  The server and its clients
share one event loop, but a synchronous call runs to completion without
yielding, so spans nest strictly on a single stack.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Target:
    """One callable to wrap.

    ``owner`` is a module path, optionally followed by ``:Class``;
    ``attr`` names a function of the module or a plain method defined
    on the class.  ``keep_self`` keeps a reference to the first argument
    (the instance) so counters the instance owns can be read after the
    round.  ``tally`` turns each return value into a number that is
    summed per span name.
    """

    owner: str
    attr: str
    name: str
    keep_self: bool = False
    tally: Callable[[Any], float] | None = None


def _resolve(owner: str) -> Any:
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


class Tracer:
    """Install wrappers around *targets*, record spans, summarise them.

    Use as a context manager; the wrappers exist only inside the
    ``with`` block.
    """

    def __init__(self, targets: list[Target]) -> None:
        self.targets = targets
        #: ``[name, start, end, parent_index]`` per call, in start order
        self.spans: list[list] = []
        #: instances seen per span name (``keep_self`` targets)
        self.instances: dict[str, dict[int, Any]] = {}
        #: summed ``tally`` per span name
        self.tallies: dict[str, float] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        instances = self.instances.setdefault(target.name, {})
        tally = target.tally
        name = target.name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if target.keep_self:
                instances[id(args[0])] = args[0]
            if tally is not None:
                self.tallies[name] = self.tallies.get(name, 0.0) + tally(result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        for target in self.targets:
            owner = _resolve(target.owner)
            original = getattr(owner, target.attr)
            self._saved.append((owner, target.attr, original))
            setattr(owner, target.attr, self._wrap(original, target))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``.

        A span's self time is its duration minus the durations of its
        direct child spans (children of a synchronous call never
        overlap one another).
        """
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for index, (name, start, end, _parent) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_s[index]
        return out

    def total(self, name: str) -> float:
        """Summed duration of every span called *name* (0 if none)."""
        return sum(end - start for n, start, end, _ in self.spans if n == name)
