"""Per-layer time split for traced runs.

:class:`LayerClock` wraps the public entry points of each of the
program's modules (``ENTRY_POINTS``) from the benchmark's side, with no
change to the program.  Each wrapped call opens a frame; a frame's
*self time* is its duration minus the frames nested in it, so the self
times of all labels, plus the benchmark's own time between calls
(``trace.unattributed_s``), add up to the traced wall time exactly.
Garbage collection pauses are taken out of whichever frame they
interrupt and booked to ``py.gc_s``.

Threads: the query service runs each script on one of its worker
threads (named ``repro-query-*``) while the caller waits inside
``Session.execute``; a worker's outermost frame is
parented to the caller's innermost frame, so the wait is not counted
twice.  Frames on any other thread (the engine's partition workers)
are ignored: the calling thread's frame already covers their wall
time.

The engine's own spans (``Database(tracing=True)``) give a finer
split of engine time that is reported beside, not inside, the
additive split: :func:`span_times`.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable

#: The benchmark's own time inside an operation, between layer calls.
UNATTRIBUTED = "trace.unattributed_s"
GC = "py.gc_s"

#: (module, attribute, self-time label) for every wrapped entry point.
#: ``Database`` is the engine's facade; its self time (locking,
#: governor window, statement stats) is engine time.
ENTRY_POINTS = (
    ("repro.sql.parser", "parse_statement", "sql.parse_s"),
    ("repro.sql.parser", "parse_script", "sql.parse_s"),
    ("repro.sql.parser", "parse_expression", "sql.parse_s"),
    ("repro.core.model", "parse_percentage_query", "core.codegen_s"),
    ("repro.core.execute", "generate_plan", "core.codegen_s"),
    ("repro.core.execute", "execute_plan", "core.run_s"),
    ("repro.core.execute", "run_resilient", "core.run_s"),
    ("repro.olap.windowgen", "generate_olap_percentage_query",
     "olap.codegen_s"),
    ("repro.api.database", "Database.execute", "engine.exec_s"),
    ("repro.api.database", "Database.execute_statement", "engine.exec_s"),
    ("repro.api.database", "Database.execute_script", "engine.exec_s"),
    ("repro.engine.executor", "Executor.execute", "engine.exec_s"),
    ("repro.storage.engine", "StorageEngine.read_column",
     "storage.read_s"),
    ("repro.storage.engine", "StorageEngine.persist_table",
     "storage.persist_s"),
    ("repro.storage.engine", "StorageEngine.on_create_table",
     "storage.persist_s"),
    ("repro.storage.engine", "StorageEngine.on_replace_table",
     "storage.persist_s"),
    ("repro.storage.engine", "StorageEngine.log_drop_table",
     "storage.persist_s"),
    ("repro.storage.engine", "StorageEngine.log_restore",
     "storage.persist_s"),
    ("repro.storage.engine", "StorageEngine.checkpoint",
     "storage.persist_s"),
    ("repro.service.session", "Session.execute", "service.self_s"),
    ("repro.service.session", "Session.submit", "service.self_s"),
    ("repro.service.scheduler", "Scheduler._run", "service.self_s"),
    ("repro.views.maintenance", "maintain", "views.maintenance_s"),
    ("repro.views.maintenance", "refresh", "views.maintenance_s"),
    ("repro.views.maintenance", "build_matview", "views.maintenance_s"),
    ("repro.views.rewrite", "match_view", "views.rewrite_s"),
    ("repro.views.rewrite", "derive", "views.rewrite_s"),
    ("repro.views.rewrite", "derive_delta", "views.rewrite_s"),
)

#: Every self-time label, in report order.
SELF_TIME_LABELS = tuple(dict.fromkeys(
    [label for _, _, label in ENTRY_POINTS] + [GC, UNATTRIBUTED]))

#: Engine operator spans rolled up into ``engine.<name>_s``.  Nested
#: spans of one group (a grouping set inside its build) count once.
SPAN_GROUPS = {
    "group-by-build": "groupby", "group-by-aggregate": "groupby",
    "grouping-sets-build": "groupby", "grouping-set": "groupby",
    "join": "join", "pivot": "pivot",
}

#: Plan-step purposes the plan runner executes (generation-time
#: ``discover``/``materialize-view`` steps run inside codegen).
STEP_PURPOSES = ("create-temp", "aggregate-fk", "aggregate-fj", "index",
                 "divide", "update-divide", "transpose", "spj-project",
                 "assemble", "missing-rows", "result")

_SERVICE_THREAD_PREFIX = "repro-query"


class LayerClock:
    """Self-time accounting over wrapped entry points (see module
    docstring).  ``install()`` patches, ``uninstall()`` restores."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.parse_bytes = 0
        self.plan_statements = 0
        self.gc_collections = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.main_thread()
        self._main_stack: list[list] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list[list] | None:
        """This thread's frame stack, or None when its frames are not
        counted (see module docstring)."""
        thread = threading.current_thread()
        if thread is self._main:
            return self._main_stack
        if not thread.name.startswith(_SERVICE_THREAD_PREFIX):
            return None
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, stack: list[list], label: str) -> None:
        stack.append([label, time.perf_counter(), 0.0])

    def _exit(self, stack: list[list]) -> None:
        label, start, nested = stack.pop()
        duration = time.perf_counter() - start
        with self._lock:
            self.self_s[label] += duration - nested
            if stack:
                stack[-1][2] += duration
            elif stack is not self._main_stack and self._main_stack:
                self._main_stack[-1][2] += duration

    def op(self) -> "_OpFrame":
        """Context manager around one timed operation: the benchmark's
        own time inside it is ``trace.unattributed_s``."""
        return _OpFrame(self)

    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable, label: str) -> Callable:
        clock = self
        if label == "sql.parse_s":
            def count(args, result):
                clock.parse_bytes += len(args[0])
        elif fn.__name__ == "generate_plan":
            def count(args, result):
                clock.plan_statements += result.statement_count()
        else:
            count = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = clock._stack()
            if stack is None or (not stack and stack is clock._main_stack):
                return fn(*args, **kwargs)
            clock._enter(stack, label)
            try:
                result = fn(*args, **kwargs)
            finally:
                clock._exit(stack)
            if count is not None:
                count(args, result)
            return result
        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        stack = self._stack()
        if not stack:
            return  # between operations: not part of any timed op
        if phase == "start":
            self._enter(stack, GC)
        elif stack[-1][0] == GC:
            self._exit(stack)
            self.gc_collections += 1

    def install(self) -> None:
        """Wrap every entry point, including each ``from x import f``
        alias of it held by another ``repro`` module, and start
        timing garbage collection."""
        for module_name, attr, label in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, name)
            wrapper = self._wrap(original, label)
            self._patch(owner, name, wrapper)
            if not path:
                for module in list(sys.modules.values()):
                    if getattr(module, "__name__", "").startswith("repro") \
                            and module is not owner:
                        for key, value in list(vars(module).items()):
                            if value is original:
                                self._patch(module, key, wrapper)
        gc.callbacks.append(self._on_gc)

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()


class _OpFrame:
    __slots__ = ("_clock",)

    def __init__(self, clock: LayerClock):
        self._clock = clock

    def __enter__(self) -> None:
        self._clock._enter(self._clock._main_stack, UNATTRIBUTED)

    def __exit__(self, *exc: object) -> bool:
        self._clock._exit(self._clock._main_stack)
        return False


def span_times(tracers, into: dict[str, float]) -> None:
    """Add the engine's recorded span durations to ``into``
    (``engine.step_s.<purpose>``, ``engine.<group>_s``) and drop the
    recorded roots, so memory stays flat over a run."""
    for tracer in tracers:
        for root in tracer.roots():
            _walk(root, frozenset(), into)
        tracer.reset()


def _walk(span, open_groups: frozenset, into: dict[str, float]) -> None:
    if span.kind == "plan-step":
        purpose = span.attrs.get("purpose", "")
        key = f"engine.step_s.{purpose}"
        into[key] = into.get(key, 0.0) + span.duration
    group = SPAN_GROUPS.get(span.name) if span.kind == "operator" \
        else None
    if group is not None and group not in open_groups:
        key = f"engine.{group}_s"
        into[key] = into.get(key, 0.0) + span.duration
        open_groups = open_groups | {group}
    for child in span.children:
        _walk(child, open_groups, into)
