"""Span tracer that times the package's layers from outside the package.

``Tracer.install`` replaces the public functions of the package modules with
timing wrappers by setting attributes on the module objects, and
``uninstall`` puts the originals back; the package itself holds no timing
code. Calls made through a module attribute (``kernels.simpson(...)``,
``boundary.xi_f_from_fit(...)``) or through a module global resolved at call
time are seen; a reference captured earlier is not, which is why tuples of
wrapped functions (``verification.ALL_CHECKS``) are swapped as well.

Spans keep a per-thread parent stack, because sweeps evaluate points on
worker threads. A span opened on a thread whose stack is empty takes the
innermost open span of the thread that created the tracer as its parent, so a sweep's
point spans belong to the ``cli.main`` call that started the pool. A
span's self time is its duration minus the union of its children's
intervals, which may overlap when the children ran on several threads.
Finished spans are folded into per-name totals at once, so memory stays
flat over long runs.
"""
from __future__ import annotations

import functools
import importlib
import threading
import time
import types

import numpy as np

PACKAGE = "lifshitz_fidelity"
MODULES = ("kernels", "geometry", "boundary", "volume", "duality", "verification", "cli")
#: Names imported into a package module from elsewhere that still get a span.
FOREIGN = (("boundary", "eigvalsh_tridiagonal"),)

QUAD = "kernels.refined_simpson"
SUM = "kernels.simpson"


def covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    run_start = run_end = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        total += run_end - run_start
    return total


class Stat:
    """Totals of one layer function over a traced run."""

    __slots__ = ("calls", "total_s", "self_s", "errors", "points", "bytes_computed")

    def __init__(self):
        self.calls = self.errors = self.points = self.bytes_computed = 0
        self.total_s = self.self_s = 0.0


class _Frame:
    __slots__ = ("name", "start", "children", "final_points", "evaluated_points")

    def __init__(self, name, start):
        self.name = name
        self.start = start
        self.children = []
        self.final_points = 0
        self.evaluated_points = 0


def _array_sizes(args, result):
    """(points, bytes) of a kernel call, computed from its array sizes: points is
    the length of the returned array, or of the first input for a reduction."""
    arrays = [a for a in args if isinstance(a, np.ndarray)]
    nbytes = sum(a.nbytes for a in arrays)
    if isinstance(result, np.ndarray):
        return result.size, nbytes + result.nbytes
    return (arrays[0].size if arrays else 0), nbytes


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.quad_ratios: list[float] = []
        self.absent: list[str] = []
        self._patches = []
        self._lock = threading.Lock()
        self._local = threading.local()
        # spans of threads with an empty stack nest under this thread's innermost span
        self._root_stack = self._stack()

    # ---------- spans ----------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        try:
            return self._root_stack[-1]
        except IndexError:
            return None

    def _finish(self, frame, parent, end, failed, sizes):
        self_s = (end - frame.start) - covered(frame.start, end, frame.children)
        with self._lock:
            st = self.stats.get(frame.name)
            if st is None:
                st = self.stats[frame.name] = Stat()
            st.calls += 1
            st.total_s += end - frame.start
            st.self_s += self_s
            st.errors += failed
            if sizes is not None:
                st.points += sizes[0]
                st.bytes_computed += sizes[1]
            if parent is not None:
                parent.children.append((frame.start, end))
            if frame.name == QUAD and frame.evaluated_points:
                self.quad_ratios.append(frame.final_points / frame.evaluated_points)

    def _count_quad_points(self, stack, name, points):
        # Kernel points inside a refined_simpson call: integrands count as
        # evaluated, and the last Simpson sum is the final refinement level.
        for frame in reversed(stack):
            if frame.name == QUAD:
                if name == SUM:
                    frame.final_points = points
                else:
                    frame.evaluated_points += points
                return

    def wrap(self, name: str, fn):
        is_kernel = name.startswith("kernels.") and name != QUAD

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            frame = _Frame(name, time.perf_counter())
            stack.append(frame)
            failed = 1
            result = None
            try:
                result = fn(*args, **kwargs)
                failed = 0
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                sizes = _array_sizes(args, result) if is_kernel else None
                if sizes is not None:
                    self._count_quad_points(stack, name, sizes[0])
                self._finish(frame, parent, end, failed, sizes)

        return traced

    # ---------- installation ----------

    def install(self):
        """Put the wrappers in place. The first call plans them: every public
        function defined in a layer module, plus ``FOREIGN``. A name the
        package no longer has is recorded in ``absent``, not raised."""
        if not self._patches:
            self._patches = self._plan()
        for mod, attr, _, replacement in self._patches:
            setattr(mod, attr, replacement)

    def uninstall(self):
        for mod, attr, original, _ in reversed(self._patches):
            setattr(mod, attr, original)

    def _plan(self):
        modules = {}
        for short in MODULES:
            try:
                modules[short] = importlib.import_module(f"{PACKAGE}.{short}")
            except ModuleNotFoundError:
                self.absent.append(short)
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__ and id(obj) not in wrappers):
                    wrappers[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        for short, attr in FOREIGN:
            obj = getattr(modules.get(short), attr, None)
            if callable(obj):
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self.wrap(f"{short}.{attr}", obj)
            else:
                self.absent.append(f"{short}.{attr}")
        patches = []
        for mod in modules.values():
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if id(obj) in wrappers:
                    patches.append((mod, attr, obj, wrappers[id(obj)]))
                elif isinstance(obj, tuple) and obj and all(id(f) in wrappers for f in obj):
                    patches.append((mod, attr, obj, tuple(wrappers[id(f)] for f in obj)))
        return patches
