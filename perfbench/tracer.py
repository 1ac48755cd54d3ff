"""In-memory tracer for the benchmark's traced runs.

The tracer wraps public callables of the `ietflow` modules from outside the
package.  Two kinds of wrapper exist:

* span wrappers for coarse calls (one pipeline stage, one scan): each call
  appends a span ``[name, start, end, parent, item, child_s]`` to an
  in-memory list;
* step wrappers for per-step calls (one orbit step, one scalar operation,
  one roof term, one ``mpmath.log``): each call only bumps a counter and
  accumulates its wall time.  A call nested inside a call of the same
  counter is neither counted nor timed again, so ``exact.ops`` counts the
  scalar operations other layers ask for, not the ones ``ExactScalar``
  performs on itself.

Self time of a span is its duration minus the time covered by its child
spans and by outermost step calls of other layers made directly inside it.

Names bound at import (``from .birkhoff import sigma_set``) are rebound in
every loaded module of the package that holds the same object, and methods
are patched on their classes, so no caller escapes the wrapper.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# span fields
NAME, START, END, PARENT, ITEM, CHILD = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(int)
        self.times = defaultdict(float)
        self.maxima = defaultdict(int)
        self.item = None
        self._span_layer = []
        self._step_active = 0
        self._depth = defaultdict(int)
        self._patches = []

    # -- recording -------------------------------------------------------

    def span(self, name, fn, on_result=None, on_error=None):
        """Wrap `fn` so each call records a span called `name`.

        `on_result(tracer, args, kwargs, result)` and `on_error(tracer,
        exc)` record what the call returned or raised."""
        layer = name.split(".", 1)[0]
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tr.spans
            parent = tr.stack[-1] if tr.stack else None
            rec = [name, 0.0, 0.0, parent, tr.item, 0.0]
            tr.stack.append(len(spans))
            spans.append(rec)
            tr._span_layer.append(layer)
            saved = tr._step_active
            tr._step_active = 0
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(tr, exc)
                raise
            finally:
                rec[END] = end = perf_counter()
                tr.stack.pop()
                tr._span_layer.pop()
                tr._step_active = saved
                if parent is not None:
                    spans[parent][CHILD] += end - rec[START]
            if on_result is not None:
                on_result(tr, args, kwargs, result)
            return result

        return wrapper

    def step(self, counter, fn, on_result=None):
        """Wrap a per-step callable: count calls and accumulate time."""
        layer = counter.split(".", 1)[0]
        tr = self
        depth = self._depth
        counts = self.counts
        times = self.times

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[counter]:
                return fn(*args, **kwargs)
            depth[counter] = 1
            tr._step_active += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                depth[counter] = 0
                tr._step_active -= 1
                counts[counter] += 1
                times[counter] += elapsed
                if (not tr._step_active and tr.stack
                        and tr._span_layer[-1] != layer):
                    tr.spans[tr.stack[-1]][CHILD] += elapsed
            if on_result is not None:
                on_result(tr, args, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type) else
                              getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, module, attr, wrap, package="ietflow"):
        """Replace module.attr and every binding of the same object in the
        loaded modules of `package`."""
        original = getattr(module, attr)
        wrapped = wrap(original)
        owners = [module]
        for name, mod in list(sys.modules.items()):
            if mod is None or mod is module:
                continue
            if name == package or name.startswith(package + "."):
                owners.append(mod)
        for mod in owners:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)
        return wrapped

    def patch_method(self, cls, attr, wrap):
        """Replace cls.attr and every alias of it on the class."""
        original = cls.__dict__[attr]
        wrapped = wrap(original)
        for key, value in list(vars(cls).items()):
            if value is original:
                self._set(cls, key, wrapped)
        return wrapped

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- reading ---------------------------------------------------------------

    def self_time(self, idx) -> float:
        rec = self.spans[idx]
        return rec[END] - rec[START] - rec[CHILD]

    def span_total(self, name) -> float:
        return sum(r[END] - r[START] for r in self.spans if r[NAME] == name)

    def self_total(self, name) -> float:
        return sum(self.self_time(i) for i, r in enumerate(self.spans)
                   if r[NAME] == name)
