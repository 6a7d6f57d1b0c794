"""Spans recorded around the public functions of the remkdv layers, from
outside the package.

The package imports its own functions by name (``from .energy import
energy_mode``), so a function is bound in several module namespaces at once.
`Tracer.install` replaces the original at every attribute of every loaded
``remkdv`` module that binds it, and `Tracer.uninstall` puts the originals
back. Calls made through any of those names, including calls between
functions of one module, then pass through the wrapper.

Most functions get one span per call: name, parent span, start and end,
plus a few attributes read from the arguments or the result. Hot scalar
helpers (`HOT`, up to ~10^6 calls per pass) get no span; each call adds to a
(parent span, name) counter of calls and busy time instead, which keeps the
overhead near a microsecond per call.
"""
from __future__ import annotations

import inspect
import json
import sys
import time

PACKAGE = "remkdv"
LAYERS = ("cli", "diagnostics", "evolve", "energy", "resonance", "pseudo", "fields")

# Helpers called per lattice point or per scalar mode. They are aggregated
# under their caller's span instead of getting spans of their own.
HOT = frozenset({
    "resonance.classify", "resonance.omega3", "resonance.omega3_factored",
    "resonance.omega5", "resonance.omega7", "resonance.pair_sums",
    "resonance.dyadic_shadow", "fields.phi_dyadic", "fields.phi",
    "fields.chi", "fields.deriv_multiplier",
})


def _attrs_cell_table(args, result):
    # (k, bound) for D1, (k, bound, med_cut) for D2; callers pass them by position
    return {"rows": int(result.shape[0]), "key": [float(a) for a in args]}


def _attrs_simulate(args, result):
    return {"snapshots": len(result.snapshots),
            "modes": int(result.final.field.coeffs.size)}


# Attributes recorded on the span of a call, computed after it returns.
ATTRS = {
    "resonance.d1_triples": _attrs_cell_table,
    "resonance.d2_triples_medcut": _attrs_cell_table,
    "evolve.simulate": _attrs_simulate,
}


def public_functions():
    """(layer.name, function) for every function listed in a layer's __all__."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for name in getattr(mod, "__all__", ()):
            fn = getattr(mod, name, None)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                out.append((f"{layer}.{name}", fn))
    return out


class Tracer:
    """In-memory spans and hot-call counters for one process.

    spans: list of [id, parent_id, name, start_s, end_s, attrs]; id 0 is the
    root, so a span with parent 0 was called from outside the package.
    hot: {(parent_id, name): [calls, busy_s]}. A hot call made inside another
    hot call is neither counted nor timed: it goes straight to the original,
    so the outer call's busy_s carries no tracer cost of its own callees.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.hot: dict[tuple[int, str], list] = {}
        self._stack = [0]
        self._in_hot = False
        self._patched: list[tuple[object, str, object]] = []

    # -------------------------------------------------------- wrappers

    def _span_wrapper(self, name, fn):
        spans, stack, attrs_fn = self.spans, self._stack, ATTRS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [len(spans) + 1, stack[-1], name, clock(), None, None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[4] = clock()
            if attrs_fn is not None:
                rec[5] = attrs_fn(args, result)
            return result

        return wrapper

    def _hot_wrapper(self, name, fn):
        hot, stack, clock = self.hot, self._stack, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._in_hot:  # nested in another hot call: left untraced
                return fn(*args, **kwargs)
            st = hot.get((stack[-1], name))
            if st is None:
                st = hot[(stack[-1], name)] = [0, 0.0]
            st[0] += 1
            tracer._in_hot = True
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                st[1] += clock() - t0
                tracer._in_hot = False

        return wrapper

    # -------------------------------------------------- install / restore

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, fn in public_functions():
            make = self._hot_wrapper if name in HOT else self._span_wrapper
            wrappers[id(fn)] = (fn, make(name, fn))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE
                                   or modname.startswith(PACKAGE + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # ------------------------------------------------------- summaries

    def summary(self) -> dict:
        """Per name: calls, busy_s (inclusive time) and self_s (busy time not
        covered by child spans or by hot calls made directly under it), plus
        the span attributes gathered per name."""
        out: dict[str, dict] = {}
        covered: dict[int, float] = {}
        for sid, parent, name, t0, t1, attrs in self.spans:
            covered[parent] = covered.get(parent, 0.0) + (t1 - t0)
        for (parent, name), (_, busy) in self.hot.items():
            covered[parent] = covered.get(parent, 0.0) + busy
        for sid, parent, name, t0, t1, attrs in self.spans:
            s = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                      "attrs": []})
            s["calls"] += 1
            s["busy_s"] += t1 - t0
            s["self_s"] += (t1 - t0) - covered.get(sid, 0.0)
            if attrs is not None:
                s["attrs"].append(attrs)
        for (parent, name), (calls, busy) in self.hot.items():
            s = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                      "attrs": []})
            s["calls"] += calls
            s["busy_s"] += busy
        return out

    def dump(self, path) -> None:
        """Write the spans and the hot counters as JSON."""
        doc = {
            "spans": [{"id": sid, "parent": parent, "name": name,
                       "start_s": t0, "end_s": t1, "attrs": attrs}
                      for sid, parent, name, t0, t1, attrs in self.spans],
            "hot": [{"parent": parent, "name": name, "calls": c, "busy_s": b}
                    for (parent, name), (c, b) in sorted(self.hot.items())],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
