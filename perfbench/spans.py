"""Outside-in spans: wrappers around the public callables of each layer.

Nothing under ``src/`` knows about these spans. A :class:`Tracer`
rebinds a public function in every loaded ``repro`` module that imported
it by name (or a method on every class defining it), times each call,
and keeps one aggregate per span name in memory: calls, outermost
inclusive seconds and self seconds. Self time is a span's duration
minus the durations of the spans it directly encloses, so summing self
times over all spans never counts an interval twice.
"""

from __future__ import annotations

import functools
import sys
import types
from time import perf_counter


class Tracer:
    def __init__(self):
        #: span name -> [calls, inclusive seconds (outermost calls of
        #: that name only), self seconds]
        self.ops = {}
        #: Spans whose enclosed spans outlasted them (never expected).
        self.violations = 0
        self._stack = []
        self._depth = {}
        self._undo = []

    def wrap(self, name, fn):
        """``fn`` timed as span ``name``."""
        stack = self._stack
        depth = self._depth
        rec = self.ops.setdefault(name, [0, 0.0, 0.0])
        depth.setdefault(name, 0)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                depth[name] -= 1
                rec[0] += 1
                if depth[name] == 0:
                    rec[1] += dur
                inner = frame[0]
                if inner > dur:
                    self.violations += 1
                rec[2] += dur - inner
                if stack:
                    stack[-1][0] += dur

        return timed

    def patch_function(self, module, attr, name, inner=None):
        """Time ``module.attr`` as span ``name`` at every binding site.

        ``inner`` optionally replaces the original inside the span (to
        pass an extra keyword such as a profiler through a public
        parameter).
        """
        original = getattr(module, attr)
        timed = self.wrap(name, inner or original)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro")
                    and getattr(mod, attr, None) is original):
                setattr(mod, attr, timed)
                self._undo.append((mod, attr, original))
        return original

    def patch_methods(self, base, attrs, name):
        """Time ``attrs`` as span ``name`` on ``base`` and every subclass
        that defines them itself."""
        todo, seen = [base], set()
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            for attr in attrs:
                original = cls.__dict__.get(attr)
                if isinstance(original, types.FunctionType):
                    setattr(cls, attr, self.wrap(name, original))
                    self._undo.append((cls, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def get(self, name):
        """(calls, inclusive seconds, self seconds) of span ``name``."""
        calls, incl, own = self.ops.get(name, (0, 0.0, 0.0))
        return calls, incl, own
