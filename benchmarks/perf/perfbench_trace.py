"""Out-of-program tracing: timing wrappers around public callables.

The benchmark installs wrappers around a declared table of *public*
callables (``perfbench_adapter.WRAP_TABLE``; this module holds the
mechanics only) for the traced pass and removes them afterwards; no
file under ``src/`` changes.  Each call becomes a span ``(target, start,
end, parent, round)`` kept in memory.  A layer's *self time* is its
spans' duration minus the part their direct child spans cover, so the
self times of all layers plus the untraced remainder add up to the
traced wall time exactly once.

A target that no longer exists (renamed by a later refactor) is skipped
with a warning and its metrics read ``None`` — never a crash.
"""

from __future__ import annotations

import importlib
import sys
import time
import warnings
from collections import defaultdict
from dataclasses import dataclass

import perfbench_adapter as adapter


@dataclass(frozen=True)
class Target:
    #: Layer the span's self time is charged to (``serve.paging`` ...).
    layer: str
    #: Metric stem within the layer (``append`` -> ``append_calls``).
    stem: str
    module: str
    #: Class holding the method, or ``None`` for a module-level function.
    owner: str | None
    attr: str
    #: Optional ``(args, result) -> number`` summed into ``units``.
    measure: object = None

    @property
    def key(self):
        return f"{self.layer}.{self.stem}"


#: The declared wrap table (several targets may share one key); the rows
#: live with every other ``repro`` name, in the adapter.
TARGETS = tuple(Target(*row) for row in adapter.WRAP_TABLE)

LAYERS = tuple(dict.fromkeys(t.layer for t in TARGETS))


def resolve(target):
    """The callable (or property) ``target`` currently names; raises
    ``ImportError``/``AttributeError`` when it no longer exists."""
    module = importlib.import_module(target.module)
    if target.owner is None:
        return getattr(module, target.attr)
    return getattr(getattr(module, target.owner), target.attr)


def holders(target, original):
    """Every ``(namespace, attribute)`` that holds ``original``: the
    owning class for a method; for a module-level function, which its
    importers hold by name, each module of the package whose attribute
    *is* the function."""
    if target.owner is not None:
        return [(getattr(importlib.import_module(target.module), target.owner), target.attr)]
    package = adapter.PACKAGE
    return [
        (module, attr)
        for name, module in list(sys.modules.items())
        if module is not None and (name == package or name.startswith(package + "."))
        for attr, value in list(vars(module).items())
        if value is original
    ]


class Tracer:
    """Installs the wrap table, collects spans, restores the originals.

    Use as a context manager around the traced pass.  ``round_index`` is
    stamped on every span; the driver sets it once per serving round.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        #: ``[key, start, end, parent_index, round_index]`` per call.
        self.spans = []
        #: key -> summed ``measure`` values.
        self.units = {}
        #: Keys of targets that could not be resolved.
        self.missing = set()
        self.round_index = -1
        self._stack = []
        self._undo = []

    # -- install / restore ---------------------------------------------
    def __enter__(self):
        for target in self.targets:
            try:
                self._install(target)
            except (ImportError, AttributeError) as error:
                self.missing.add(target.key)
                warnings.warn(
                    f"perfbench: wrap target {target.module}:"
                    f"{target.owner or ''}.{target.attr} not found ({error}); "
                    f"{target.key}_* metrics will be null",
                    stacklevel=2,
                )
        return self

    def __exit__(self, *exc):
        for holder, attr, original, had_own in reversed(self._undo):
            if had_own:
                setattr(holder, attr, original)
            else:
                delattr(holder, attr)
        self._undo = []

    def _install(self, target):
        original = resolve(target)
        if isinstance(original, property):  # the caches' keys/values reads
            wrapper = property(self._wrap(target, original.fget))
        else:
            wrapper = self._wrap(target, original)
        for holder, attr in holders(target, original):
            self._replace(holder, attr, wrapper)

    def _replace(self, holder, attr, wrapper):
        had_own = attr in vars(holder)
        self._undo.append((holder, attr, vars(holder).get(attr), had_own))
        setattr(holder, attr, wrapper)

    def _wrap(self, target, original):
        key, measure = target.key, target.measure
        spans, stack, units = self.spans, self._stack, self.units
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [key, 0.0, 0.0, stack[-1] if stack else -1, self.round_index]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if measure is not None:
                units[key] = units.get(key, 0) + measure(args, result)
            return result

        traced.__wrapped__ = original
        return traced


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def summarize(spans):
    """``key -> {"calls", "total_s", "self_s"}`` over a span list (all
    zero for a key that was never called).

    ``total_s`` sums span durations; ``self_s`` subtracts from each span
    the duration of its *direct* children, so summing ``self_s`` over all
    keys counts every traced instant exactly once."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    summary = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for index, (key, start, end, _, _) in enumerate(spans):
        entry = summary[key]
        duration = end - start
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child_time[index]
    return summary


def layer_self_times(summary):
    """``layer -> self seconds`` from a :func:`summarize` result."""
    layers = {}
    for key, entry in summary.items():
        layer = key.rsplit(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + entry["self_s"]
    return layers
