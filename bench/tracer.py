"""Per-layer instrumentation applied from outside the program.

`SpanAggregator` turns nested enter/exit events into self time and call
counts per span name.  `Patcher` wraps the public functions of every
semidual module, and the methods of its classes, so that each call is a
span; `uninstall` puts every original attribute back.  `FractionCounter`
counts calls into `fractions.py` with a `sys.setprofile` hook and charges
each to the semidual module whose code made it.  The hook slows the
program several times over, so counting and timing run separately.
"""

from __future__ import annotations

import fractions
import functools
import sys
import time
from collections import Counter, defaultdict

# Methods that run once per tensor entry.  A span around each would cost
# more than the work it measures; their time stays in the caller's self time.
SKIP = {"linalg.rat", "lie.eps"}
# Classmethods that call a per-entry callback written in the caller's code.
BUILD_METHODS = {"linalg.Matrix.build", "linalg.Tensor3.build"}
# Operator methods that do matrix or tensor work, wrapped like public methods.
OPERATORS = ("__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__matmul__")


class SpanAggregator:
    """Self time = span duration minus the time its direct child spans cover."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # [name, start, time covered by children]
        self.self_s = defaultdict(float)
        self.calls = Counter()

    def enter(self, name):
        self.stack.append([name, self.clock(), 0.0])

    def exit(self, count=True):
        name, start, children = self.stack.pop()
        duration = self.clock() - start
        self.self_s[name] += duration - children
        self.calls[name] += count
        if self.stack:
            self.stack[-1][2] += duration

    def resume(self):
        """Close a span that continues an earlier call rather than making one."""
        self.exit(count=False)


def layer_modules(package="semidual"):
    """{layer name: module} for the loaded modules of the package."""
    prefix = package + "."
    return {name[len(prefix):]: mod for name, mod in sorted(sys.modules.items())
            if name.startswith(prefix) and mod is not None}


def _defined_here(fn, mod) -> bool:
    code = getattr(fn, "__code__", None)
    return code is not None and code.co_filename == mod.__file__


def traced_targets(layers):
    """(span name, owner, attribute, raw attribute value) for everything wrapped.

    Functions are found where they are defined; `Patcher` then rebinds every
    namespace that holds the same object.
    """
    out = []
    for layer, mod in layers.items():
        for attr, obj in vars(mod).items():
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                for mattr, raw in vars(obj).items():
                    fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                    public = not mattr.startswith("_") or mattr in OPERATORS
                    if public and _defined_here(fn, mod):
                        out.append((f"{layer}.{obj.__name__}.{mattr}", obj, mattr, raw))
            elif (callable(obj) and not attr.startswith("_") and _defined_here(obj, mod)
                  and f"{layer}.{attr}" not in SKIP):
                out.append((f"{layer}.{attr}", mod, attr, obj))
    return out


def lexical_owner(fn) -> str:
    """Span name of the function a closure is written in:
    semidual.bialgebra / mcybe_matrix_residual.<locals>.fn -> bialgebra.mcybe_matrix_residual."""
    return fn.__module__.split(".", 1)[1] + "." + fn.__qualname__.split(".<locals>")[0]


def _continued(fn, name, agg):
    """A callback whose time counts as self time of the function it is written
    in (its lexical owner), not of the build method that calls it; no call counted."""
    enter, resume = agg.enter, agg.resume

    def span(*args):
        enter(name)
        try:
            return fn(*args)
        finally:
            resume()

    return span


def _wrap(fn, name, agg):
    enter, exit_ = agg.enter, agg.exit
    takes_callback = name in BUILD_METHODS

    @functools.wraps(fn)
    def span(*args, **kwargs):
        # build(cls, rows, [cols,] fn): charge fn to the function it is written in
        if takes_callback and (getattr(args[-1], "__module__", None) or "").startswith("semidual."):
            *head, cb = args
            args = (*head, _continued(cb, lexical_owner(cb), agg))
        enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_()

    return span


class Patcher:
    """Wraps every `traced_targets` entry in a span; `uninstall` restores them."""

    def __init__(self, layers, agg: SpanAggregator):
        self.layers = layers
        self.agg = agg
        self.saved = []  # (owner, attribute, original raw value)
        self.names = []

    def install(self):
        wrapped = {}  # id(original function) -> wrapper, shared by every binding
        for name, owner, attr, raw in traced_targets(self.layers):
            self.names.append(name)
            if isinstance(owner, type):
                kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
                fn = raw.__func__ if kind else raw
                new = _wrap(fn, name, self.agg)
                self.saved.append((owner, attr, raw))
                setattr(owner, attr, kind(new) if kind else new)
            else:
                wrapped[id(raw)] = (raw, _wrap(raw, name, self.agg))
        # every namespace that binds a wrapped function, the package's too
        namespaces = [*self.layers.values(), sys.modules.get("semidual")]
        for mod in filter(None, namespaces):
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self.saved.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for owner, attr, raw in reversed(self.saved):
            setattr(owner, attr, raw)
        self.saved.clear()


class FractionCounter:
    """Counts Python-level calls into fractions.py, per calling layer."""

    def __init__(self, layers):
        self.frac_file = fractions.__file__
        self.layer_of = {mod.__file__: layer for layer, mod in layers.items()}
        self.counts = Counter()
        self._previous = None

    def _hook(self, frame, event, arg):
        if event == "call" and frame.f_code.co_filename == self.frac_file:
            caller = frame.f_back
            while caller is not None and caller.f_code.co_filename == self.frac_file:
                caller = caller.f_back
            layer = self.layer_of.get(caller.f_code.co_filename) if caller else None
            self.counts[layer or "other"] += 1

    def __enter__(self):
        self._previous = sys.getprofile()
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc):
        sys.setprofile(self._previous)
        return False
