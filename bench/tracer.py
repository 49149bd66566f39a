"""Spans around the public functions of ``ou_spectra``, recorded from
outside the package.

``Tracer.install`` replaces each target function by a timing wrapper in
every loaded ``ou_spectra`` module that binds it: the package imports by
name, so ``cli``, ``verification`` and ``ou_operator`` hold their own
references, and patching only the defining module would miss their calls.
Classes are traced through ``__init__``.  ``Tracer.remove`` puts every
original back.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

_MARK = "__bench_traced__"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1          # index of the enclosing span, -1 at the root
    item: object = None       # id of the benchmark item that caused it
    failed: bool = False      # the call raised
    note: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def self_times(spans):
    """Duration of each span minus the time its direct children cover.

    Spans come from one thread, so children nest inside their parent and
    do not overlap one another.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]


def _package_modules(package):
    return [m for name, m in list(sys.modules.items())
            if m is not None
            and (name == package or name.startswith(package + "."))]


class Tracer:
    """Record a span for every call of the target functions.

    ``targets`` maps a module name inside ``package`` to the public names
    to wrap.  ``annotate`` maps a span name to ``f(args, kwargs) -> dict``,
    evaluated before the call and stored as the span's ``note``.
    """

    def __init__(self, targets, annotate=None, package="ou_spectra",
                 clock=time.perf_counter):
        self.targets = targets
        self.annotate = annotate or {}
        self.package = package
        self.clock = clock
        self.spans = []
        self.item = None
        self._stack = []
        self._patches = []

    def _wrap(self, label, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        annotate = self.annotate.get(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            note = annotate(args, kwargs) if annotate else {}
            span = Span(label, 0.0, parent=stack[-1] if stack else -1,
                        item=self.item, note=note)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = clock()
                stack.pop()

        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = _package_modules(self.package)
        for module_name, names in self.targets.items():
            home = sys.modules["%s.%s" % (self.package, module_name)]
            for name in names:
                label = "%s.%s" % (module_name, name)
                original = getattr(home, name)
                if isinstance(original, type):
                    init = original.__dict__["__init__"]
                    self._patch(original, "__init__",
                                self._wrap(label, init), init)
                    continue
                wrapper = self._wrap(label, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper, original)

    def _patch(self, owner, attr, new, original):
        setattr(owner, attr, new)
        self._patches.append((owner, attr, original))

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        left = wrapped_names(self.package)
        if left:
            raise RuntimeError("tracing wrappers left behind: %s"
                               % ", ".join(left))

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False


def wrapped_names(package="ou_spectra"):
    """Every ``module.attr`` (or ``module.Class.__init__``) in the loaded
    package that is still a tracing wrapper."""
    left = []
    for module in _package_modules(package):
        for attr, value in vars(module).items():
            if getattr(value, _MARK, False):
                left.append("%s.%s" % (module.__name__, attr))
            elif isinstance(value, type) and getattr(
                    value.__dict__.get("__init__"), _MARK, False):
                left.append("%s.%s.__init__" % (module.__name__, attr))
    return sorted(left)
