"""Layer spans and counters taken from outside the package.

:func:`install` wraps the public functions ``layers.targets()`` lists at every
module of the package that binds them (``itl.tables.scan_valuations`` and the
name ``scan_valuations`` that ``itl.decide`` imported are the same object, so
both get the same wrapper).  A wrapper records a span (name, start, end,
parent, operation id, thread) and feeds the call's arguments and return value
to a counter hook.  Spans stay in memory until :meth:`Tracer.write`.

Threads: each thread keeps its own span stack.  A span opened on a thread with
an empty stack (a ``--jobs`` pool worker) takes as parent the innermost open
span of the thread that runs the operations, which at that moment is blocked
inside ``scan_valuations``.  Self time is a span's duration minus the union of
its children's intervals, so overlapping children on two threads are not
subtracted twice.

A target the package no longer has is skipped and reported in
:attr:`Tracer.missing`; metrics that need it come out absent.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

_clock = time.perf_counter


@dataclass
class Target:
    """One wrapped name: where to find it, what to call its spans, what to count."""

    metric: str
    modules: tuple[str, ...]
    attr: str  # "func", "Class.method" or "Class.property"
    outer_only: bool = False  # recursive function: only the outermost call is a span
    name_of: Optional[Callable[..., str]] = None  # per-call span name from the arguments
    on_enter: Optional[Callable[..., None]] = None
    on_exit: Optional[Callable[..., None]] = None


@dataclass
class Tracer:
    """Spans and counters of one traced run; ``enabled`` switches recording on."""

    names: list[str] = field(default_factory=list)
    spans: list[Optional[tuple]] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    missing: list[str] = field(default_factory=list)
    hook_errors: dict[str, str] = field(default_factory=dict)
    enabled: bool = False
    op_id: int = -1

    def __post_init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._op_stack: list[int] = []
        self._op_thread = threading.get_ident()
        self.context: dict[str, Any] = {}

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        got = self._ids.get(name)
        if got is None:
            with self._lock:
                got = self._ids.setdefault(name, len(self.names))
                if got == len(self.names):
                    self.names.append(name)
        return got

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._op_thread:
            return self._op_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def open(self, name: str) -> tuple[list[int], int]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._op_stack[-1] if self._op_stack else -1
        with self._lock:
            idx = len(self.spans)
            self.spans.append(None)
        stack.append(idx)
        self.spans[idx] = (self._name_id(name), _clock(), 0.0, parent, self.op_id, threading.get_ident())
        return stack, idx

    def close(self, stack: list[int], idx: int) -> None:
        stack.pop()
        name, start, _, parent, op, thread = self.spans[idx]
        self.spans[idx] = (name, start, _clock(), parent, op, thread)

    def in_stack(self, name: str) -> bool:
        name_id = self._ids.get(name)
        return name_id is not None and any(self.spans[i][0] == name_id for i in self._stack())

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.context.clear()

    # -- analysis ------------------------------------------------------------

    def totals(self, root: str) -> dict[str, dict[str, float]]:
        """Per span name under root spans named ``root``: calls, busy seconds and self seconds.

        Busy time counts only the outermost span of each name, so recursion
        is not counted twice.
        """
        spans = self.spans
        root_id = self._ids.get(root)
        roots: list[int] = []
        children: dict[int, list[int]] = {}
        for i, s in enumerate(spans):
            parent = s[3]
            roots.append(i if parent < 0 else roots[parent])  # a parent always precedes its children
            if parent >= 0:
                children.setdefault(parent, []).append(i)
        out: dict[str, dict[str, float]] = {}
        for i, (name_id, start, end, parent, _, _) in enumerate(spans):
            if spans[roots[i]][0] != root_id:
                continue
            covered = 0.0
            kids = children.get(i)
            if kids:
                intervals = sorted((max(spans[k][1], start), min(spans[k][2], end)) for k in kids)
                cur_lo, cur_hi = intervals[0]
                for lo, hi in intervals[1:]:
                    if lo > cur_hi:
                        covered += max(0.0, cur_hi - cur_lo)
                        cur_lo, cur_hi = lo, hi
                    else:
                        cur_hi = max(cur_hi, hi)
                covered += max(0.0, cur_hi - cur_lo)
            row = out.setdefault(self.names[name_id], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - covered
            if not self._nested_in_same(i):
                row["busy_s"] += end - start
        return out

    def _nested_in_same(self, i: int) -> bool:
        name_id, parent = self.spans[i][0], self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name_id:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path: Path) -> None:
        """Spans as columns, gzip-compressed JSON."""
        cols = list(zip(*self.spans)) if self.spans else [()] * 6
        doc = {
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "op", "thread"],
            "spans": [list(c) for c in cols],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            json.dump(doc, handle)


# ---------------------------------------------------------------------------
# Installing wrappers.
# ---------------------------------------------------------------------------


def _wrap_function(tracer: Tracer, target: Target, fn: Callable) -> Callable:
    metric = target.metric

    def hook(which: Optional[Callable], *extra) -> None:
        if which is None:
            return
        try:
            which(tracer, *extra)
        except Exception as exc:  # a later package version changed the call's shape
            tracer.hook_errors.setdefault(metric, f"{type(exc).__name__}: {exc}")

    def wrapper(*args, **kwargs):
        if not tracer.enabled or (target.outer_only and tracer.in_stack(metric)):
            return fn(*args, **kwargs)
        name = target.name_of(*args) if target.name_of else metric
        hook(target.on_enter, fn, args, kwargs)
        stack, idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(stack, idx)
        hook(target.on_exit, fn, args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    wrapper.__name__ = getattr(fn, "__name__", metric)
    return wrapper


def _wrap_generator(tracer: Tracer, target: Target, fn: Callable) -> Callable:
    """Generator functions: busy time is the time spent producing each item."""
    metric = target.metric

    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        if not tracer.enabled:
            yield from inner
            return
        while True:
            stack, idx = tracer.open(metric)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.close(stack, idx)
            tracer.count(f"{metric}.items")
            yield item

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


Patch = tuple[Any, str, Any, Any]  # (owner, attribute, original, wrapped)


def install(tracer: Tracer, targets: list[Target]) -> list[Patch]:
    """Wrap every target at every module of the package that binds it; returns the applied patches."""
    import sys

    loaded = [mod for name, mod in sys.modules.items() if name == "itl" or name.startswith("itl.")]
    patches: list[Patch] = []
    for target in targets:
        owner, original = _find(target)
        if original is None:
            tracer.missing.append(target.metric)
            continue
        if "." in target.attr:
            member = target.attr.split(".")[1]
            if isinstance(original, property):
                wrapped_get = _wrap_function(tracer, target, original.fget)
                wrapped = property(wrapped_get, original.fset, original.fdel, original.__doc__)
            else:
                wrapped = _wrap_function(tracer, target, original)
            patches.append((owner, member, original, wrapped))
            continue
        wrap = _wrap_generator if inspect.isgeneratorfunction(original) else _wrap_function
        wrapped = wrap(tracer, target, original)
        for mod in loaded:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    patches.append((mod, attr, original, wrapped))
    apply(patches, True)
    return patches


def apply(patches: list[Patch], wrapped: bool) -> None:
    """Bind the wrappers, or put the originals back."""
    for owner, attr, original, wrapper in patches:
        setattr(owner, attr, wrapper if wrapped else original)


def _find(target: Target) -> tuple[Any, Any]:
    for module_name in target.modules:
        try:
            obj: Any = importlib.import_module(module_name)
        except ImportError:
            continue
        parts = target.attr.split(".")
        for part in parts[:-1]:
            obj = getattr(obj, part, None)
            if obj is None:
                break
        if obj is None:
            continue
        raw = inspect.getattr_static(obj, parts[-1], None)
        if raw is not None:
            return obj, raw
    return None, None
