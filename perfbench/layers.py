"""Per-layer tracing for the sphereproj benchmark.

The traced run replaces module-level names that the library looks up at
call time (``sphereproj.iteration.project``, ``WMapping.apply``, ...) with
timing wrappers, and restores them afterwards.  Nothing under ``src/`` is
edited.  A name that no longer exists is reported as absent instead of
failing the run, so the trace survives refactors that rename or delete it.

Spans nest: a span's self time is its duration minus the spans directly
inside it, and a span inside one of the same name is not counted again.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

import numpy as np

# (module, attribute path, span).  Names imported into several modules are
# wrapped in each, because each module looks up its own copy.
TIMED = [
    ("sphereproj.iteration", "project", "regions.project"),
    ("sphereproj.iteration", "make_cn", "regions.cuts"),
    ("sphereproj.iteration", "make_qn", "regions.cuts"),
    ("sphereproj.regions", "Region.__init__", "regions.region"),
    ("sphereproj.iteration", "intersect", "regions.region"),
    ("sphereproj.iteration", "contains", "regions.contains"),
    ("sphereproj.regions", "contains", "regions.contains"),
    ("sphereproj.mappings", "WMapping.apply", "mappings.wmap"),
    ("sphereproj.iteration", "residuals", "mappings.residuals"),
    ("sphereproj.cli", "residuals", "mappings.residuals"),
    ("sphereproj.mappings", "MappingFamily.check_preserves_cap", "mappings.check_cap"),
    ("sphereproj.geometry", "distance", "geometry.distance"),
    ("sphereproj.iteration", "distance", "geometry.distance"),
    ("sphereproj.mappings", "distance", "geometry.distance"),
    ("sphereproj.cli", "distance", "geometry.distance"),
    ("sphereproj.iteration", "geodesic_combine", "geometry.combine"),
    ("sphereproj.mappings", "geodesic_combine", "geometry.combine"),
    ("sphereproj.cli", "parse_config", "cli.parse"),
    ("sphereproj.cli", "build_problem", "cli.build_problem"),
    ("sphereproj.cli", "write_trace_csv", "cli.emit"),
    ("sphereproj.cli", "_write_json", "cli.emit"),
    ("sphereproj.cli", "run", "cli.run"),
]
# Called millions of times per run: counted, not timed.
COUNTED = [("sphereproj.regions", "Halfspace.slack", "regions.slack")]


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.errors = defaultdict(int)
        self.zero_effort = 0
        self.absent: list[str] = []
        self._stack: list[list] = []       # open spans: [name, time of children]
        self._saved: list[tuple] = []

    def span(self, name: str, fn, on_result=None):
        """Wrap fn so that each call records a span called name."""
        stack, calls, total, self_time = self._stack, self.calls, self.total, self.self_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if any(frame[0] == name for frame in stack):
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                calls[name] += 1
                total[name] += dt
                self_time[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if on_result is not None:
                on_result(args, kwargs, out)
            return out

        return wrapper

    def counter(self, name: str, fn):
        """Wrap fn so that calls made inside a library span are counted; the
        benchmark's own checks run outside every span."""
        stack, calls = self._stack, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _project_done(self, args, kwargs, out):
        x = args[1] if len(args) > 1 else kwargs.get("x")
        point = out[0] if isinstance(out, tuple) else out
        if x is not None and np.array_equal(getattr(point, "coords", None), x.coords):
            self.zero_effort += 1

    def install(self):
        for module, path, name in TIMED + COUNTED:
            owner, attr = _resolve(module, path)
            if owner is None:
                self.absent.append(f"{module}.{path}")
                continue
            fn = getattr(owner, attr)
            if (module, path, name) in COUNTED:
                wrapped = self.counter(name, fn)
            else:
                hook = self._project_done if name == "regions.project" else None
                wrapped = self.span(name, fn, hook)
            self._saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)
                                if isinstance(owner, type) else fn))
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "total": dict(self.total),
                "self": dict(self.self_time), "errors": dict(self.errors),
                "zero_effort": self.zero_effort}


_MISSING = object()


def _resolve(module: str, path: str):
    """(owner, attribute) for module + dotted path, or (None, None) if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None, None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    return (owner, attr) if hasattr(owner, attr) else (None, None)
