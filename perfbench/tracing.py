"""Spans measured from outside the program under test.

The benchmark never edits ``src/``.  Instead it replaces each target
function object with a timing wrapper at every place the object is
bound in ``repro.*`` module globals and class dicts (consumers write
``from .._validation import check_matrix``, so patching the defining
module alone would miss most calls), and restores every binding
afterwards.

Spans nest on a :class:`contextvars.ContextVar` stack: each thread and
each asyncio task has its own stack, so a span's *self time* is its
duration minus the time covered by the spans opened directly inside
it.  Spans are aggregated in memory (calls, total, self time, and the
raw durations of the few names whose percentiles are reported) and
written out once, when the traced process exits.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import sys
import threading
import time
import types
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: The innermost open span of the current thread/task: a list
#: ``[start, covered_by_children, name, parent_frame]`` or ``None``.
_OPEN: contextvars.ContextVar = contextvars.ContextVar("perfbench_span",
                                                       default=None)


def _inside(name: str, frame) -> bool:
    """Is a span called ``name`` open at ``frame`` or above it?"""
    while frame is not None:
        if frame[2] == name:
            return True
        frame = frame[3]
    return False


class Tracer:
    """Aggregates span durations and counters; thread-safe.

    A span opened inside an open span of the same name (a layer function
    calling a helper of the same layer) adds its self time, but neither
    a call nor its duration: calls and totals count operations of the
    layer, not the helpers one operation goes through.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 keep_samples: Callable[[str], bool] = lambda name: False):
        self.clock = clock
        self.keep_samples = keep_samples
        #: span name -> [calls, total seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        #: span name -> every duration, for names ``keep_samples`` picks
        self.samples: Dict[str, List[float]] = {}
        self.counters: Dict[str, int] = {}
        self._lock = threading.Lock()

    def enter(self, name: str):
        """Open span ``name``; returns the token :meth:`exit` needs."""
        parent = _OPEN.get()
        frame = [self.clock(), 0.0, name, parent]
        return frame, _OPEN.set(frame)

    def exit(self, token) -> None:
        """Close the span opened by :meth:`enter` and record it."""
        frame, reset = token
        duration = self.clock() - frame[0]
        _OPEN.reset(reset)
        _start, covered, name, parent = frame
        if parent is not None:
            parent[1] += duration
        self.record(name, duration, duration - covered,
                    not _inside(name, parent))

    def record(self, name: str, duration: float, self_time: float,
               outermost: bool) -> None:
        """Fold one finished span into the aggregates."""
        with self._lock:
            entry = self.totals.get(name)
            if entry is None:
                entry = self.totals[name] = [0, 0.0, 0.0]
            entry[2] += self_time
            if not outermost:
                return
            entry[0] += 1
            entry[1] += duration
            if self.keep_samples(name):
                self.samples.setdefault(name, []).append(duration)

    def count(self, name: str, n: int = 1) -> None:
        """Bump a named counter."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def snapshot(self) -> Dict[str, object]:
        """A JSON-ready copy of everything recorded so far."""
        with self._lock:
            return {"totals": {k: list(v) for k, v in self.totals.items()},
                    "samples": {k: list(v) for k, v in self.samples.items()},
                    "counters": dict(self.counters)}

    def dump(self, path: str) -> None:
        """Write :meth:`snapshot` to ``path`` as JSON."""
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh)


def merge_snapshots(snapshots: Iterable[Dict[str, object]]
                    ) -> Dict[str, object]:
    """Sum the aggregates of several traced processes into one."""
    merged = {"totals": {}, "samples": {}, "counters": {}}
    for snap in snapshots:
        for name, (calls, total, own) in snap["totals"].items():
            entry = merged["totals"].setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        for name, values in snap["samples"].items():
            merged["samples"].setdefault(name, []).extend(values)
        for name, value in snap["counters"].items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
    return merged


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Target:
    """One function to time.

    ``attr`` is ``"func"`` or ``"Class.method"`` inside ``module``.
    ``span`` names the span, or is a callable ``(args, kwargs) -> name``
    for wrappers whose span depends on the call (broker ops).
    ``outcome`` maps the return value to a counter name to bump.
    """

    module: str
    attr: str
    span: object
    outcome: Optional[Callable[[object], Optional[str]]] = None


def _make_wrapper(tracer: Tracer, target: Target, fn: Callable) -> Callable:
    span, outcome = target.span, target.outcome
    dynamic = callable(span)
    if inspect.iscoroutinefunction(fn):
        async def wrapper(*args, **kwargs):
            name = span(args, kwargs) if dynamic else span
            token = tracer.enter(name)
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.exit(token)
    else:
        def wrapper(*args, **kwargs):
            name = span(args, kwargs) if dynamic else span
            token = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(token)
            if outcome is not None:
                counter = outcome(result)
                if counter is not None:
                    tracer.count(counter)
            return result
    functools.update_wrapper(wrapper, fn)
    wrapper.__perfbench_original__ = fn
    return wrapper


def original(fn: object) -> object:
    """The function a benchmark wrapper stands in for (else ``fn``)."""
    return getattr(fn, "__perfbench_original__", fn)


def _resolve(target: Target) -> object:
    """The target's object as its owner's ``__dict__`` holds it.

    For a method that may be a ``staticmethod``/``classmethod`` around
    the function.
    """
    owner = importlib.import_module(target.module)
    parts = target.attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return vars(owner)[parts[-1]]


def _function_of(raw: object) -> object:
    if isinstance(raw, (staticmethod, classmethod)):
        return raw.__func__
    return raw


def _rewrap(raw: object, wrapper: Callable) -> object:
    """Re-apply ``raw``'s descriptor kind around ``wrapper``."""
    if isinstance(raw, staticmethod):
        return staticmethod(wrapper)
    if isinstance(raw, classmethod):
        return classmethod(wrapper)
    return wrapper


def _program_namespaces() -> List[object]:
    """Every loaded ``repro`` module and every class they define."""
    def inside(name: str) -> bool:
        return name == "repro" or name.startswith("repro.")

    modules = [mod for name, mod in sorted(sys.modules.items())
               if mod is not None and inside(name)]
    seen, spaces = set(), list(modules)
    for mod in modules:
        for value in list(vars(mod).values()):
            if (isinstance(value, type) and id(value) not in seen
                    and inside(getattr(value, "__module__", ""))):
                seen.add(id(value))
                spaces.append(value)
    return spaces


class Patch:
    """The bindings one :func:`install` replaced, for :meth:`restore`."""

    def __init__(self):
        self.undo: List[Tuple[object, str, object]] = []

    def restore(self) -> None:
        """Put every replaced binding back, newest first."""
        for owner, name, value in reversed(self.undo):
            setattr(owner, name, value)
        self.undo.clear()


def install(tracer: Tracer, targets: Iterable[Target]) -> Patch:
    """Wrap every target at every binding in ``repro``'s namespaces.

    A module global or class attribute is rebound when it *is* the
    target function object (or a ``staticmethod``/``classmethod`` around
    it).  Targets whose module or attribute does not exist are skipped:
    the benchmark measures whatever layers the commit under test has.
    """
    wrappers: Dict[int, Callable] = {}
    for target in targets:
        try:
            fn = _function_of(_resolve(target))
        except (ImportError, AttributeError, KeyError):
            continue
        if isinstance(fn, types.FunctionType) and id(fn) not in wrappers:
            wrappers[id(fn)] = _make_wrapper(tracer, target, fn)
    patch = Patch()
    for space in _program_namespaces():
        for name, value in list(vars(space).items()):
            wrapper = wrappers.get(id(_function_of(value)))
            if wrapper is None:
                continue
            patch.undo.append((space, name, value))
            setattr(space, name, _rewrap(value, wrapper))
    _keep_fingerprints(patch)
    return patch


def _keep_fingerprints(patch: Patch) -> None:
    """Make the engine's code fingerprints look through the wrappers.

    ``point_fingerprint`` hashes the code of same-module helper
    functions a scenario references.  Seen through a wrapper, every cell
    digest — and so every ``run_id`` — of a traced run would differ from
    an untraced one, and the traced run could not be checked against
    the committed records.  The tokenizer is therefore handed the
    original function whenever it meets a wrapper.
    """
    try:
        scenarios = importlib.import_module("repro.evaluation.scenarios")
        tokenize = vars(scenarios)["_function_token"]
    except (ImportError, KeyError):
        return

    @functools.wraps(tokenize)
    def unwrapping(fn, *args, **kwargs):
        return tokenize(original(fn), *args, **kwargs)

    # The tokenizer's own module is hashed too, where it meets itself.
    unwrapping.__perfbench_original__ = tokenize
    patch.undo.append((scenarios, "_function_token", tokenize))
    scenarios._function_token = unwrapping
