"""Timing spans installed from outside the program, at module attributes.

A Tracer replaces a public function at the module attribute where its caller
looks it up (for example ``sysid.ap_step``) with a wrapper that records one
span per call: wall time, thread CPU time and the wall time of the spans
nested inside it. Each thread accumulates into its own table, created on its
first span, so the hot path takes no lock; ``totals()`` merges the tables
after the traced work has finished.
"""

from __future__ import annotations

import functools
import threading
from time import perf_counter, process_time, thread_time


class SpanStats:
    """Accumulated figures of every call of one traced function."""

    __slots__ = ("calls", "returned", "wall", "cpu", "child", "process_cpu", "top", "raised")

    def __init__(self):
        self.calls = 0
        self.returned = 0
        self.wall = 0.0  # seconds inside the span
        self.cpu = 0.0  # CPU seconds of the calling thread inside the span
        self.child = 0.0  # wall seconds of spans nested in it on the same thread
        self.process_cpu = 0.0  # CPU seconds of the whole process, where requested
        self.top = 0.0  # wall seconds of calls made outside any span on the owner thread
        self.raised: dict[str, int] = {}  # exception class name -> count

    @property
    def self_s(self) -> float:
        return self.wall - self.child

    @property
    def wait_s(self) -> float:
        """Wall time the thread spent off a core: waiting for the GIL or a CPU."""
        return self.wall - self.cpu

    def merge(self, other: "SpanStats") -> None:
        for name in ("calls", "returned", "wall", "cpu", "child", "process_cpu", "top"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for exc_name, count in other.raised.items():
            self.raised[exc_name] = self.raised.get(exc_name, 0) + count


class _ThreadTable:
    __slots__ = ("stats", "stack", "is_owner")

    def __init__(self, is_owner: bool):
        self.stats: dict[str, SpanStats] = {}
        self.stack: list[float] = []  # per open span: wall time of its children so far
        self.is_owner = is_owner


class Tracer:
    """Installs span wrappers and collects their figures; one per traced run."""

    def __init__(self):
        self._local = threading.local()
        self._tables: list[_ThreadTable] = []
        self._owner = threading.get_ident()
        self._installed: list[tuple[object, str, object]] = []

    def _table(self) -> _ThreadTable:
        try:
            return self._local.table
        except AttributeError:
            table = _ThreadTable(threading.get_ident() == self._owner)
            self._local.table = table
            self._tables.append(table)  # once per thread; list.append is atomic
            return table

    def wrap(self, name: str, fn, process_cpu: bool = False):
        """Return ``fn`` wrapped in a span called ``name``."""
        table_of = self._table

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            table = table_of()
            stack = table.stack
            stack.append(0.0)
            p0 = process_time() if process_cpu else 0.0
            c0 = thread_time()
            t0 = perf_counter()
            raised = None
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                raised = type(exc).__name__
                raise
            finally:
                wall = perf_counter() - t0
                cpu = thread_time() - c0
                child = stack.pop()
                if stack:
                    stack[-1] += wall
                stats = table.stats.get(name)
                if stats is None:
                    stats = table.stats[name] = SpanStats()
                stats.calls += 1
                stats.wall += wall
                stats.cpu += cpu
                stats.child += child
                if process_cpu:
                    stats.process_cpu += process_time() - p0
                if not stack and table.is_owner:
                    stats.top += wall
                if raised is None:
                    stats.returned += 1
                else:
                    stats.raised[raised] = stats.raised.get(raised, 0) + 1

        return traced

    def install(self, targets) -> None:
        """Wrap each ``(module, attribute, span name, process_cpu)`` target.

        An attribute the module no longer has is skipped: its span then
        reports zero calls.
        """
        for module, attr, name, process_cpu in targets:
            original = getattr(module, attr, None)
            if original is None:
                continue
            setattr(module, attr, self.wrap(name, original, process_cpu))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def totals(self) -> dict[str, SpanStats]:
        """Figures of every span name, merged over all threads."""
        merged: dict[str, SpanStats] = {}
        for table in self._tables:
            for name, stats in table.stats.items():
                merged.setdefault(name, SpanStats()).merge(stats)
        return merged
