"""Outside-in tracing: spans and counters around program callables.

The program itself has no span seams yet, so the traced run wraps its
public entry points from the benchmark's side.  A :class:`Tracer`
replaces a method on its class (or a function in every ``repro``
module namespace that holds it) with a wrapper that records a span,
counts the call and, optionally, notes a repeat key or observes the
result.  :meth:`Tracer.uninstall` puts every original object back, so
an interpreter that has been traced runs the unmodified program again.

Spans are kept in memory as parallel lists (name, start, end, parent
index) and written out only when the run is over.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

#: A span name, or a function of the receiver that picks one per call.
SpanName = Union[str, Callable[[Any], str]]


def self_times(names: Sequence[str], starts: Sequence[float],
               ends: Sequence[float], parents: Sequence[int]) -> Dict[str, float]:
    """Self time per span name: each span's duration minus its children's.

    Spans come from one thread, so a span's children never overlap and
    the time they cover is the sum of their durations.
    """
    covered = [0.0] * len(names)
    for index, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += ends[index] - starts[index]
    totals: Dict[str, float] = defaultdict(float)
    for index, name in enumerate(names):
        totals[name] += ends[index] - starts[index] - covered[index]
    return dict(totals)


def _subclasses(cls: type) -> List[type]:
    """*cls* and every class derived from it, depth first."""
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(c for c in _subclasses(sub) if c not in found)
    return found


class Tracer:
    """Parent-linked spans, call counters and repeat keys, in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        #: Calls per counter name.
        self.counts: Counter = Counter()
        #: Calls whose repeat key had already been seen, per counter.
        self.repeats: Counter = Counter()
        #: Free-form per-call observations, per observer name.
        self.samples: Dict[str, List[Any]] = defaultdict(list)
        self._seen: Dict[str, set] = defaultdict(set)
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording --------------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Record a span around a block (the workload's root span)."""
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def wrap(self, fn: Callable, name: Optional[SpanName], counter: str,
             key: Optional[Callable] = None,
             observe: Optional[Callable] = None) -> Callable:
        """A wrapper of *fn* that counts, keys, spans and observes calls.

        *name* None counts only.  *key(*args, **kwargs)* returns a
        hashable repeat key; *observe(tracer, args, result, index)* is
        called after the call with its span index (-1 without a span).
        """
        counts, repeats, seen = self.counts, self.repeats, self._seen[counter]
        opened, close = self._open, self._close
        pick = name if callable(name) else None

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            if key is not None:
                token = key(*args, **kwargs)
                if token in seen:
                    repeats[counter] += 1
                else:
                    seen.add(token)
            if name is None:
                result = fn(*args, **kwargs)
                index = -1
            else:
                index = opened(pick(args[0]) if pick else name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(index)
            if observe is not None:
                observe(self, args, result, index)
            return result

        functools.update_wrapper(wrapper, fn)
        wrapper.__perfbench_wrapper__ = True
        return wrapper

    # -- patching ---------------------------------------------------------------

    def patch_method(self, owner: type, attr: str, name: Optional[SpanName],
                     counter: str, **hooks) -> int:
        """Wrap *attr* on *owner* and on every subclass that overrides it.

        Returns how many classes were patched.  Class and static methods
        keep their descriptor type; abstract declarations are skipped.
        """
        patched = 0
        for cls in _subclasses(owner):
            raw = cls.__dict__.get(attr)
            if raw is None or getattr(raw, "__isabstractmethod__", False):
                continue
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) \
                else None
            fn = raw.__func__ if kind else raw
            if not callable(fn):
                raise TypeError(f"{cls.__name__}.{attr} is not a method")
            wrapped = self.wrap(fn, name, counter, **hooks)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, kind(wrapped) if kind else wrapped)
            patched += 1
        return patched

    def patch_function(self, fn: Callable, name: Optional[SpanName],
                       counter: str, prefix: str = "repro", **hooks) -> int:
        """Replace *fn* in every loaded module under *prefix* holding it.

        Returns how many module bindings were replaced.
        """
        wrapped = self.wrap(fn, name, counter, **hooks)
        patched = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == prefix or
                                      module_name.startswith(prefix + ".")):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapped)
                    patched += 1
        return patched

    def uninstall(self) -> None:
        """Put every patched object back, newest patch first."""
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    @property
    def patches(self) -> List[Tuple[Any, str, Any]]:
        """(target, attribute, original) of every live patch."""
        return list(self._patches)

    # -- analysis ---------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Self time per span name over every recorded span."""
        return self_times(self.names, self.starts, self.ends, self.parents)

    def duration(self, index: int) -> float:
        return self.ends[index] - self.starts[index]

    def outer_total(self, name: str) -> float:
        """Summed duration of *name* spans not nested in another *name*."""
        total = 0.0
        for index, span_name in enumerate(self.names):
            if span_name != name:
                continue
            parent = self.parents[index]
            while parent >= 0 and self.names[parent] != name:
                parent = self.parents[parent]
            if parent < 0:
                total += self.duration(index)
        return total
