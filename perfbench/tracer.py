"""Layer spans and boundary counters for csforms, installed from outside it.

The layers are the library modules below.  ``Tracer.install`` wraps every
public function and public method of each layer where the calling modules
bind it (the module attribute in the defining module and in every csforms
module that imported it, and the attribute on the class), and
``Tracer.uninstall`` puts the originals back.  Nothing in the package is
edited.

A span (name, layer, start, end, parent) is recorded each time control
enters a layer from a different one; calls that stay inside a layer are
only counted.  A layer's self time is the duration of its spans minus the
part covered by their child spans, so the self times of all layers plus
those of the benchmark's root spans (one per item) add up to the time spent
in the items.

Callables stored in the inputs (chart potentials, chain maps, fiber lifts,
polynomial evaluators) belong to the module that defined them;
``Tracer.instrument`` wraps them on copies of the input objects.  Callables
defined outside csforms (the benchmark's own degree-3 chart) are left alone,
so their time counts as self time of the layer that calls them.

When a function a named counter depends on no longer exists, the counter is
reported as absent, not as zero.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import math
import numbers
import time
import types
from collections import Counter

LAYERS = ("rationals", "liealg", "invariants", "calculus", "bundles", "zoo")

# (module, attribute) -> counter incremented on every call of that function
CALL_COUNTERS = {
    ("invariants", "eval_on_forms_indexed"): "invariants.shuffle_calls",
    ("invariants", "polarize_eval"): "invariants.polarize_calls",
    ("invariants", "pfaffian"): "invariants.pfaffian_calls",
    ("bundles", "BundleChart.ctx"): "bundles.chart_ctx",
    ("bundles", "expm"): "bundles.expm_calls",
}

# (module, attribute) -> counter of quadrature nodes, computed from the orders
# the call asks for (axes given by the chain, the fiber or the sphere degree)
NODE_COUNTERS = {
    ("calculus", "integrate"): "calculus.integrate_nodes",
    ("bundles", "fiber_integral"): "bundles.fiber_nodes",
    ("zoo", "winding_degree"): "zoo.winding_nodes",
}

D_EVALS = "calculus.d_evals"  # evaluations of forms built by exterior_derivative
POLY_EVALS = "invariants.poly_evals"  # calls of InvariantPolynomial.value

# every named counter; "<layer>.calls" (entries into a layer) exist besides
COUNTERS = (*CALL_COUNTERS.values(), D_EVALS, POLY_EVALS, *NODE_COUNTERS.values())

ROOT_LAYER = "bench"


def _takes_callables(fn) -> bool:
    """Whether a parameter is annotated as taking callables (callbacks)."""
    try:
        return any("Callable" in str(p.annotation) for p in inspect.signature(fn).parameters.values())
    except (TypeError, ValueError):
        return False


def _axes(args: inspect.BoundArguments) -> int:
    a = args.arguments
    if "chain" in a:
        return a["chain"].param_dim
    if "fiber" in a:
        return len(a["fiber"].intervals)
    return int(a["d"])


def _node_count(sig: inspect.Signature, args: tuple, kwargs: dict) -> int:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    order = bound.arguments["quad_order"]
    orders = [int(order)] * _axes(bound) if isinstance(order, numbers.Number) else [int(o) for o in order]
    return math.prod(orders)


class Tracer:
    """Spans and counters for one benchmark process; one thread only."""

    def __init__(self, package):
        self.package = package
        self.modules = {name: getattr(package, name) for name in LAYERS}
        self._module_layer = {f"{package.__name__}.{name}": name for name in LAYERS}
        self.counts: Counter = Counter()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # span rows: [name id, layer, start, end, parent row]
        self.spans: list[list] = []
        self._stack: list[tuple[int, str]] = [(-1, ROOT_LAYER)]
        self._saved: list[tuple[object, str, object]] = []
        # counters whose boundary exists in this version of the package
        self.available: set[str] = {f"{layer}.calls" for layer in LAYERS}

    # --- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    @contextlib.contextmanager
    def root(self, name: str):
        """One benchmark item: the root span of everything it calls."""
        span = [self._name_id(name), ROOT_LAYER, time.perf_counter(), 0.0, self._stack[-1][0]]
        self._stack.append((len(self.spans), ROOT_LAYER))
        self.spans.append(span)
        try:
            yield
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, layer: str | None, name: str, counter: str | None = None, hook=None,
             callbacks: bool | None = None):
        """fn with a span when entered from another layer; layer None counts only.

        callbacks: wrap the callables among the arguments (default: when a
        parameter is annotated as Callable)."""
        counts = self.counts
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        name_id = self._name_id(name)
        calls = f"{layer}.calls"
        if callbacks is None:
            callbacks = _takes_callables(fn)
        scan = self._callbacks if callbacks else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            if hook is not None:
                hook(args, kwargs)
            top = stack[-1]
            if layer is None or top[1] == layer:
                return fn(*args, **kwargs)
            counts[calls] += 1
            span = [name_id, layer, clock(), 0.0, top[0]]
            stack.append((len(spans), layer))
            spans.append(span)
            try:
                return fn(*(scan(args, layer) if scan else args), **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return wrapper

    def _callbacks(self, args: tuple, layer: str) -> tuple:
        """args with callbacks into other layers wrapped, as in the (f, p)
        lists eval_on_forms_indexed takes from bundles.  One original maps
        to one wrapper, so caches keyed on id(f) behave as before."""
        seen: dict[int, object] = {}

        def conv(v, depth):
            if isinstance(v, types.FunctionType):
                lv = self._layer_of(v)
                if lv is None or lv == layer:
                    return v
                w = seen.get(id(v))
                if w is None:
                    w = seen[id(v)] = self.wrap(v, lv, f"{lv}.{v.__qualname__}", callbacks=False)
                return w
            if depth < 2 and isinstance(v, (list, tuple)) and len(v) <= 64:
                new = [conv(x, depth + 1) for x in v]
                if any(a is not b for a, b in zip(new, v)):
                    return type(v)(new)
            return v

        out = tuple(conv(a, 0) for a in args)
        return out if any(a is not b for a, b in zip(out, args)) else args

    # --- installation ---------------------------------------------------------

    def _layer_of(self, obj) -> str | None:
        return self._module_layer.get(getattr(obj, "__module__", None))

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _extra(self, layer: str, qualname: str, fn):
        """Counter and hook for the named boundaries of CALL/NODE_COUNTERS."""
        key = (layer, qualname)
        counter = CALL_COUNTERS.get(key)
        node_counter = NODE_COUNTERS.get(key)
        self.available.update(n for n in (counter, node_counter) if n)
        if node_counter is None:
            return counter, None
        sig = inspect.signature(fn)

        def hook(args, kwargs):
            try:
                self.counts[node_counter] += _node_count(sig, args, kwargs)
            except (TypeError, KeyError, AttributeError, ValueError):
                # the quadrature function's signature changed: the count is unknown
                self.available.discard(node_counter)

        return counter, hook

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        pkg_modules = [m for m in vars(self.package).values() if isinstance(m, types.ModuleType)
                       and m.__name__.startswith(self.package.__name__ + ".")]
        wrappers: dict[int, object] = {}

        for layer, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) and self._layer_of(obj) == layer:
                    counter, hook = self._extra(layer, attr, obj)
                    w = self.wrap(obj, layer, f"{layer}.{attr}", counter, hook)
                    if attr == "exterior_derivative":
                        w = self._count_d_evals(w)
                    wrappers[id(obj)] = w
                elif isinstance(obj, type) and self._layer_of(obj) == layer:
                    self._wrap_methods(layer, obj)
            # third-party bindings counted without a span (scipy's expm)
            for (m, attr), counter in CALL_COUNTERS.items():
                obj = vars(mod).get(attr)
                if m == layer and obj is not None and self._layer_of(obj) is None \
                        and not isinstance(obj, type):
                    self._set(mod, attr, self.wrap(obj, None, attr, counter))
                    self.available.add(counter)

        # rebind every csforms module attribute that refers to a wrapped function
        for mod in pkg_modules:
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None and isinstance(obj, types.FunctionType):
                    self._set(mod, attr, w)

    def _wrap_methods(self, layer: str, cls: type) -> None:
        for attr, obj in list(vars(cls).items()):
            if not isinstance(obj, types.FunctionType):
                continue
            if attr == "__call__" and cls.__name__ == "FormField":
                self._set(cls, attr, self._form_call(obj))
            elif not attr.startswith("_"):
                qual = f"{cls.__name__}.{attr}"
                counter, hook = self._extra(layer, qual, obj)
                self._set(cls, attr, self.wrap(obj, layer, f"{layer}.{qual}", counter, hook))

    def _form_call(self, call):
        """FormField.__call__ runs its evaluator: the span takes the
        evaluator's layer, so d and pullbacks count as calculus and the
        bundle forms as bundles."""
        by_module = {f"{self.package.__name__}.{layer}": self.wrap(call, layer, f"{layer}.FormField")
                     for layer in LAYERS}

        @functools.wraps(call)
        def wrapper(form, *args, **kwargs):
            return by_module.get(form.evaluator.__module__, call)(form, *args, **kwargs)

        return wrapper

    def _count_d_evals(self, exterior_derivative):
        counts = self.counts
        self.available.add(D_EVALS)

        @functools.wraps(exterior_derivative)
        def wrapper(*args, **kwargs):
            form = exterior_derivative(*args, **kwargs)
            ev = form.evaluator

            @functools.wraps(ev)
            def counted(*a, **kw):
                counts[D_EVALS] += 1
                return ev(*a, **kw)

            return dataclasses.replace(form, evaluator=counted)

        return wrapper

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    # --- inputs ----------------------------------------------------------------

    def instrument(self, obj):
        """Copy of an input object whose csforms-defined callables are wrapped.

        Walks dataclass fields, dicts and tuples; the evaluator of an
        InvariantPolynomial also feeds invariants.poly_evals.
        """
        if isinstance(obj, dict):
            return {k: self.instrument(v) for k, v in obj.items()}
        if isinstance(obj, tuple):
            new = tuple(self.instrument(v) for v in obj)
            return obj if all(a is b for a, b in zip(new, obj)) else new
        if isinstance(obj, types.FunctionType):
            layer = self._layer_of(obj)
            if layer is None:
                return obj
            return self.wrap(obj, layer, f"{layer}.{obj.__qualname__}")
        if not dataclasses.is_dataclass(obj) or isinstance(obj, type):
            return obj
        changes = {}
        for f in dataclasses.fields(obj):
            if not f.init:
                continue
            value = getattr(obj, f.name)
            if type(obj).__name__ == "InvariantPolynomial" and f.name == "value":
                self.available.add(POLY_EVALS)
                new = self.wrap(value, self._layer_of(value), f"invariants.{obj.name}.value", POLY_EVALS)
            else:
                new = self.instrument(value)
            if new is not value:
                changes[f.name] = new
        return dataclasses.replace(obj, **changes) if changes else obj

    # --- results ----------------------------------------------------------------

    def self_times(self, first_row: int = 0) -> dict[str, float]:
        """Self seconds per layer over the spans recorded from first_row on."""
        rows = self.spans[first_row:]
        child = [0.0] * len(rows)
        for r in rows:
            p = r[4] - first_row
            if p >= 0:
                child[p] += r[3] - r[2]
        out = {layer: 0.0 for layer in (ROOT_LAYER,) + LAYERS}
        for r, c in zip(rows, child):
            out[r[1]] += (r[3] - r[2]) - c
        return out
