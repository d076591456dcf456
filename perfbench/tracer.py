"""Layer-boundary spans for the forestcalc benchmark.

`LayerTracer.install()` replaces every public function and method of the
forestcalc layer modules, in the defining module and wherever another layer
module or the package re-exports it, with a wrapper.  A call that enters a
layer from outside it opens a span; a call from a layer into itself opens
none (see `install` for how it avoids the wrapper altogether).  Names
imported inside a function body (such as `solve_left` in
`BracketKernel.coordinates`) are looked up on the module at call time, so
they reach the wrapper too.

Self time is a span's duration minus the duration of its child spans.  The
time spent scanning arguments for the counters is kept out of every span and
reported on its own as `overhead_s`.  This is boundary timing, not a
function-level profiler: a profiler charges its per-call cost to whichever
function makes the most calls, which skews the split between layers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import types

LAYERS = ("trees", "groups", "intlinalg", "freelie", "eta", "magnus",
          "forest", "rewrite", "cli")

# Operators are public entry points too (series products, tensor sums,
# printing); comparisons and hashing are left out because dictionaries call
# them implicitly on every lookup.
OPERATOR_METHODS = frozenset({"__add__", "__sub__", "__mul__", "__neg__", "__str__"})


def max_bits(obj) -> int:
    """Largest bit length of an integer in a scalar, vector, matrix or tuple of them."""
    if isinstance(obj, bool) or obj is None:
        return 0
    if isinstance(obj, int):
        return abs(obj).bit_length()
    if isinstance(obj, (list, tuple)) and obj:
        if isinstance(obj[0], int) and not isinstance(obj[0], bool):
            return max(max(obj), -min(obj)).bit_length()  # vectors hold ints only
        return max(map(max_bits, obj))
    return 0


def _matrix_cells(obj) -> int:
    if isinstance(obj, list) and obj and isinstance(obj[0], (list, tuple)):
        return len(obj) * len(obj[0])
    return 0


class LayerTracer:
    """Per-layer self time and call counts, plus the benchmark's counters."""

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.functions = {}  # "layer.qualname" -> [calls, self seconds]
        self.relation_rows = 0  # sum of len(group.relations) over groups built
        self.cells_in = 0  # rows x columns of matrices passed into intlinalg
        self.max_bits = 0  # largest coefficient bit length in or out of intlinalg
        self.overhead_s = 0.0
        self._groups_seen = set()
        self._stack = []  # open spans: [layer, seconds covered by child spans]
        self._current = [None]  # layer of the innermost open span

    # -- counters -----------------------------------------------------------

    def _intlinalg_in(self, args):
        for a in args:
            self.cells_in += _matrix_cells(a)
            bits = max_bits(a)
            if bits > self.max_bits:
                self.max_bits = bits

    def _intlinalg_out(self, result):
        bits = max_bits(result)
        if bits > self.max_bits:
            self.max_bits = bits

    def _group_out(self, group):
        if id(group) not in self._groups_seen:
            self._groups_seen.add(id(group))
            self.relation_rows += len(group.relations)

    # -- spans --------------------------------------------------------------

    def _wrap(self, fn, layer, name):
        current = self._current
        stack = self._stack
        stats = self.functions.setdefault(f"{layer}.{name}", [0, 0.0])
        layer_self = self.self_s
        layer_calls = self.calls
        clock = time.perf_counter
        before = self._intlinalg_in if layer == "intlinalg" else None
        if layer == "intlinalg":
            after = self._intlinalg_out
        elif layer == "groups" and name == "build_group":
            after = self._group_out
        else:
            after = None
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if current[0] is layer:
                return fn(*args, **kwargs)
            scan = 0.0
            if before is not None:
                s0 = clock()
                before(args)
                scan = clock() - s0
            parent = current[0]
            frame = [layer, 0.0]
            stack.append(frame)
            current[0] = layer
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                current[0] = parent
                own = (t1 - t0) - frame[1]
                stats[0] += 1
                stats[1] += own
                layer_calls[layer] += 1
                layer_self[layer] += own
            if after is not None:
                s0 = clock()
                after(result)
                scan += clock() - s0
            tracer.overhead_s += scan
            if stack:
                stack[-1][1] += (t1 - t0) + scan
            return result

        return span

    def _clone(self, fn, namespace):
        """A copy of `fn` that resolves its globals in `namespace`."""
        if getattr(fn, "cache_parameters", None) is not None:
            params = fn.cache_parameters()
            inner = self._clone(fn.__wrapped__, namespace)
            return functools.lru_cache(maxsize=params["maxsize"], typed=params["typed"])(inner)
        clone = types.FunctionType(fn.__code__, namespace, fn.__name__,
                                   fn.__defaults__, fn.__closure__)
        clone.__kwdefaults__ = fn.__kwdefaults__
        clone.__qualname__ = fn.__qualname__
        clone.__doc__ = fn.__doc__
        clone.__module__ = fn.__module__
        clone.__dict__.update(fn.__dict__)
        return clone

    def _own(self, obj, module):
        target = getattr(obj, "__wrapped__", obj)
        return inspect.isfunction(target) and target.__globals__ is vars(module)

    def _instrument_class(self, cls, layer, module, namespace):
        for name, attr in list(vars(cls).items()):
            public = not name.startswith("_") or name in OPERATOR_METHODS
            label = f"{cls.__name__}.{name}"

            def convert(fn):
                clone = self._clone(fn, namespace)
                return self._wrap(clone, layer, label) if public else clone

            if isinstance(attr, (staticmethod, classmethod)) and self._own(attr.__func__, module):
                setattr(cls, name, type(attr)(convert(attr.__func__)))
            elif isinstance(attr, property) and attr.fget is not None and self._own(attr.fget, module):
                setattr(cls, name, property(convert(attr.fget), attr.fset, attr.fdel, attr.__doc__))
            elif inspect.isfunction(attr) and self._own(attr, module):
                setattr(cls, name, convert(attr))

    def install(self, package="forestcalc"):
        """Wrap every layer of the package; call before taking any reference.

        Each layer's own functions are re-bound to copies whose globals are a
        private namespace, in which the layer's names point to the unwrapped
        copies and other layers' names point to wrappers.  A call inside a
        layer therefore costs nothing extra, while the module attributes that
        other code reaches are wrappers.
        """
        modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        namespaces = {layer: dict(vars(module)) for layer, module in modules.items()}
        wrappers = {}  # id(original function) -> wrapper
        for layer, module in modules.items():
            namespace = namespaces[layer]
            for name, obj in list(vars(module).items()):
                if inspect.isclass(obj) and obj.__module__ == module.__name__:
                    if not issubclass(obj, BaseException):
                        self._instrument_class(obj, layer, module, namespace)
                elif callable(obj) and self._own(obj, module):
                    clone = self._clone(obj, namespace)
                    namespace[name] = clone
                    if not name.startswith("_"):
                        wrappers[id(obj)] = self._wrap(clone, layer, name)
        package_module = importlib.import_module(package)
        for space in [*namespaces.values(), *(vars(m) for m in modules.values()),
                      vars(package_module)]:
            for name, obj in list(space.items()):
                if id(obj) in wrappers and callable(obj):
                    space[name] = wrappers[id(obj)]
        return self

    def reset(self):
        """Zero every figure in place; the installed wrappers keep counting."""
        for layer in LAYERS:
            self.self_s[layer] = 0.0
            self.calls[layer] = 0
        for stats in self.functions.values():
            stats[0], stats[1] = 0, 0.0
        self.relation_rows = self.cells_in = self.max_bits = 0
        self.overhead_s = 0.0

    def report(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "relation_rows": self.relation_rows,
            "cells_in": self.cells_in,
            "max_bits": self.max_bits,
            "overhead_s": self.overhead_s,
            "functions": {k: v for k, v in self.functions.items() if v[0]},
        }
