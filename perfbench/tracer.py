"""Timing wrappers for the traced benchmark run.

A layer is one public gpris function.  Its wrapper records calls, total
time and self time (total minus the time of traced calls made inside it),
and optional counters taken from its return value.  ``Tracer.active``
binds the wrappers inside the modules that imported the function by name,
because rebinding only the defining module would miss those calls.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counters: defaultdict = field(default_factory=lambda: defaultdict(float))


class Tracer:
    """Collects per-layer statistics; spans are kept in memory only."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, LayerStats] = {}
        self.flags: list[str] = []
        self._open: list[float] = []   # child time accumulated by each open span
        self._bindings: list[tuple[object, str, object, object]] = []

    def layer(self, name: str) -> LayerStats:
        return self.stats.setdefault(name, LayerStats())

    def wrap(self, name: str, fn, count=None):
        """Return fn timed as layer `name`; count(counters, result) runs on success."""
        stats = self.layer(name)
        clock, open_spans = self.clock, self._open

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children
            if count is not None:
                count(stats.counters, result)
            return result

        return timed

    def register(self, name: str, home, callers, count=None):
        """Wrap home.<function> for the callers that imported it by name.

        `name` is "<module>.<function>".  The wrapper is bound into the
        callers only inside ``active()``.  Returns the wrapper, or None (and
        records a flag) when the function no longer exists in `home`.
        """
        attr = name.rsplit(".", 1)[1]
        original = getattr(home, attr, None)
        self.layer(name)
        if original is None:
            self.flags.append(f"{name}: vanished from {home.__name__}")
            return None
        wrapped = self.wrap(name, original, count)
        for module in callers:
            if vars(module).get(attr) is original:
                self._bindings.append((module, attr, original, wrapped))
        return wrapped

    @contextmanager
    def active(self):
        """Bind every registered wrapper; restore the originals on exit."""
        for module, attr, _, wrapped in self._bindings:
            setattr(module, attr, wrapped)
        try:
            yield
        finally:
            for module, attr, original, _ in self._bindings:
                setattr(module, attr, original)

    def uncalled(self, expected) -> list[str]:
        """Flags for expected layers that recorded no call."""
        return [f"{name}: expected calls, got 0" for name in expected
                if self.layer(name).calls == 0]

    def unexpected(self, expected) -> list[str]:
        """Flags for layers outside `expected` that recorded calls."""
        return [f"{name}: expected no calls, got {stats.calls}"
                for name, stats in self.stats.items()
                if name not in expected and stats.calls]
