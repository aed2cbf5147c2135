"""In-memory span tracer for the benchmark's traced run.

The tracer replaces a public pamlab function, in every loaded pamlab module
namespace (and every module-level dict, such as ``cli.COMMANDS``) that binds
it, by a wrapper that records one span per call: id, parent id, name, start
and end.  Self time is a span's duration minus the durations of its direct
children; total time sums the outermost calls of a name, so recursion is not
counted twice.  Observers read a call's arguments and result into counters
after the span ends; their cost is left out of every self time, so it shows
only as tracing overhead.  ``uninstall`` restores every binding it replaced.
"""

from __future__ import annotations

import functools
import sys
import time

_clock = time.perf_counter


class Tracer:
    def __init__(self, targets, observers=None):
        """``targets`` maps a module name to the function names to wrap;
        ``observers`` maps ``"<module>.<function>"`` to a callable
        ``(tracer, args, kwargs, result)`` that updates ``tracer.counters``."""
        self.targets = targets
        self.observers = observers or {}
        self._patches = []
        self.reset()

    def reset(self) -> None:
        """Drop the spans, statistics and counters of the previous pass."""
        self.spans = []
        self.stats = {}
        self.counters = {}
        self._stack = []
        self._active = {}
        self._next_id = 0

    # installation ---------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "pamlab" or name.startswith("pamlab."))]
        for mod_name, func_names in self.targets.items():
            home = sys.modules[mod_name]
            short = mod_name.rsplit(".", 1)[-1]
            for func_name in func_names:
                original = getattr(home, func_name)
                wrapper = self._wrap(f"{short}.{func_name}", original)
                for mod in modules:
                    self._rebind(vars(mod), original, wrapper)

    def _rebind(self, namespace: dict, original, wrapper) -> None:
        for key, value in list(namespace.items()):
            if value is original:
                self._patches.append((namespace, key, original))
                namespace[key] = wrapper
            elif type(value) is dict:
                for k2, v2 in list(value.items()):
                    if v2 is original:
                        self._patches.append((value, k2, original))
                        value[k2] = wrapper

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches = []

    # recording ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        observer = self.observers.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._call(name, fn, observer, args, kwargs)

        return traced

    def _call(self, name, fn, observer, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        frame = [span_id, 0.0]           # id, time covered by direct children
        self._stack.append(frame)
        self._active[name] = self._active.get(name, 0) + 1
        start = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _clock()
            self._stack.pop()
            self._active[name] -= 1
            duration = end - start
            if parent is not None:
                parent[1] += duration
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
            st["calls"] += 1
            st["self_s"] += duration - frame[1]
            if self._active[name] == 0:
                st["total_s"] += duration
            self.spans.append((span_id, parent[0] if parent else None, name, start, end))
        if observer is not None:
            t0 = _clock()
            observer(self, args, kwargs, result)
            if parent is not None:
                parent[1] += _clock() - t0
        return result

    def add(self, key: str, value) -> None:
        """Accumulate a counter; ``None`` (attribute gone) is sticky."""
        if value is None or self.counters.get(key, 0) is None:
            self.counters[key] = None
        else:
            self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, key: str, value) -> None:
        """Keep the maximum of a counter; ``None`` is sticky as in ``add``."""
        if value is None or self.counters.get(key, 0) is None:
            self.counters[key] = None
        else:
            self.counters[key] = max(self.counters.get(key, value), value)

    def stat(self, name: str, field: str):
        return self.stats.get(name, {}).get(field, 0)
