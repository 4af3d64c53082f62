"""In-memory call spans around module functions, and the arithmetic on them.

A `Tracer` wraps a function so that every call records a `Span` (name,
start, end, parent).  `patched` swaps such wrappers into every `tessae`
module attribute that holds the function, so callers that resolve the
name at call time (`trainer.lcm_assign`, `discrepancy.sw2`, ...) go
through the wrapper, and puts the originals back on exit.
"""

import contextlib
import sys
import time
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    amounts: dict | None = None  # counts measured at this call

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, measure=None):
        """Wrap fn as span `name`; measure(args, kwargs, result) -> dict
        of amounts stored on the span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if measure is not None:
                span.amounts = measure(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a call is open")
        taken = list(self.spans)
        self.spans.clear()
        return taken


def _package_modules(package):
    prefix = package + "."
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(prefix))]


@contextlib.contextmanager
def patched(wrappers, package="tessae"):
    """Swap wrappers into a package for the duration of the block.

    wrappers maps "module.function" (the defining submodule of package)
    to make(fn) -> replacement.  Every attribute of every loaded module
    of the package that is the current function is replaced, so nested
    `patched` blocks compose.  All attributes are restored on exit.
    """
    saved = []
    try:
        for target, make in wrappers.items():
            module_name, attr = target.rsplit(".", 1)
            current = getattr(sys.modules[f"{package}.{module_name}"], attr)
            replacement = make(current)
            for mod in _package_modules(package):
                for key in [k for k, v in vars(mod).items() if v is current]:
                    saved.append((mod, key, current))
                    setattr(mod, key, replacement)
        yield
    finally:
        for mod, key, original in reversed(saved):
            setattr(mod, key, original)


def covered_seconds(intervals, lo, hi):
    """Length of the part of [lo, hi] that the union of intervals covers."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_seconds(spans):
    """Per span: its duration minus the part its child spans cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [span.seconds - covered_seconds(kids, span.start, span.end)
            for span, kids in zip(spans, children)]


def roots(spans):
    """Per span: the name of the root span of its tree."""
    out = []
    for span in spans:
        out.append(span.name if span.parent < 0 else out[span.parent])
    return out
