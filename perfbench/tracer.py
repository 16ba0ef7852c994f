"""In-memory span tracer that wraps zczpilot functions from outside.

A traced function is named "<module>.<function>" after the module that
defines it.  Installing the tracer replaces every module-level binding of
that function object inside the zczpilot package, so a call is recorded
whichever name the caller looks up (designer imports
power_iteration_opnorm, channel_mse_lemma and optimal_V by name; analysis
imports simulate_training and mmse_estimate the same way).  A name the
module no longer defines is skipped and reported as absent.

Spans are (name, start, end, parent index, root index) rows kept in
lists; self time is a span's duration minus the durations of its direct
children.  The run is single-threaded, so a stack gives the parent.
Calls made outside a root span opened with span() are not recorded.
wrapper_cost() measures what one traced call costs over an untraced one.
"""

import functools
import importlib
import json
import statistics
import sys
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, names, count_first_arg_calls=()):
        self.names = list(names)
        # For these names the first positional argument is a callable whose
        # invocations are counted (power iteration's operator applications).
        self.count_first_arg_calls = set(count_first_arg_calls)
        self.absent = []
        self.arg_calls = {}
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.root = []
        self._stack = []
        self._patched = []

    def _open(self, name):
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.root.append(self.root[self._stack[0]] if self._stack else idx)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name, func):
        count_arg = name in self.count_first_arg_calls

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not self._stack:  # outside the benchmark's root spans
                return func(*args, **kwargs)
            if count_arg and args:
                inner = args[0]

                def counted(*a, **kw):
                    self.arg_calls[name] = self.arg_calls.get(name, 0) + 1
                    return inner(*a, **kw)

                args = (counted,) + args[1:]
            idx = self._open(name)
            try:
                return func(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def install(self):
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "zczpilot" or key.startswith("zczpilot."))
        ]
        for full in self.names:
            mod_name, func_name = full.rsplit(".", 1)
            try:
                home = importlib.import_module(f"zczpilot.{mod_name}")
            except ImportError:
                self.absent.append(full)
                continue
            func = getattr(home, func_name, None)
            if not callable(func):
                self.absent.append(full)
                continue
            traced = self._wrap(full, func)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is func:
                        setattr(mod, attr, traced)
                        self._patched.append((mod, attr, func))

    def uninstall(self):
        for mod, attr, func in reversed(self._patched):
            setattr(mod, attr, func)
        self._patched.clear()

    def durations(self):
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self):
        dur = self.durations()
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def dump(self, path):
        """Write the spans as JSON lines, one per span, in start order."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as fh:
            for i, name in enumerate(self.name):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": self.parent[i],
                    "root": self.root[i],
                    "start_us": round((self.start[i] - t0) * 1e6, 3),
                    "dur_us": round((self.end[i] - self.start[i]) * 1e6, 3),
                }) + "\n")


def wrapper_cost(calls=20000, repeats=5):
    """Seconds one traced call costs over an untraced call: the median over
    repeats of a wrapped no-op timed against the bare no-op, inside a root
    span of a throwaway tracer.  Counted operator applications are not
    included."""
    def noop():
        return None

    probe = Tracer(())
    traced = probe._wrap("noop", noop)
    costs = []
    with probe.span("root"):
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter()
            for _ in range(calls):
                traced()
            t2 = time.perf_counter()
            costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)
