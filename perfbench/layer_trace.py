"""Per-layer spans and counters, recorded from outside the library.

The tracer replaces the public functions of each layer module (and a few
public methods) by wrappers that time every call.  A wrapped function is
replaced in every ``steinberg`` namespace that bound it, so
``from .polyalg import groebner`` in ``campaigns`` is traced too.  Hot
arithmetic primitives (``PolyRing`` methods, field operations, matrix
helpers) stay unwrapped; their time is self time of the calling span.

A span's self time is its duration minus the time of the wrapped spans
nested directly inside it.  A direct recursive call of the same function
(``build_rep`` evaluating its subexpressions) is part of the outer span.
Spans are kept in memory and turned into calibrated times (see ``speed.py``)
and metrics once, at the end of the run.
"""

from __future__ import annotations

import inspect
from array import array
from math import comb

# The layers, in the order they are reported.  fieldops is not a layer: its
# echelon work runs unwrapped inside the liealg (and cases) spans that use it.
LAYERS = ("weights", "breps", "bwb", "liealg", "polyalg", "cases", "campaigns", "report")

# Public functions left unwrapped: cheap primitives called in inner loops.
HOT_PRIMITIVES = {
    "breps": {"basis_indices", "weight_multiplicity", "binomial_dim_checks"},
    "bwb": {"weyl_dim"},
    "liealg": {"act", "sum_f"},
    "polyalg": {"domain_of"},
    "cases": {"mat_mul", "mat_sub", "mat_add", "mat_scale", "mat_trace", "mat_identity",
              "mat_det", "mat_e2", "mat_scale_poly", "mat_identity_poly", "map_poly"},
}

# Private functions that verify_all calls as campaigns of their own.
EXTRA_FUNCTIONS = {"campaigns": ("_chi_alternating_rows_entry",)}

# Public methods traced on their class.
METHODS = {
    "weights": (("RootDatum", "locate"), ("RootDatum", "in_bwb_locus")),
    "report": (("Report", "to_json"),),
}


def _poly_key(p: dict) -> tuple:
    return tuple(sorted(p.items()))


def _groebner_counters(tracer, args, kwargs, result) -> None:
    ideal = args[0] if args else kwargs["ideal"]
    bound = args[1] if len(args) > 1 else kwargs.get("bound")
    ring = ideal.ring
    key = (ring.names, repr(ring.domain), bound,
           tuple(sorted(_poly_key(g) for g in ideal.gens if g)))
    tracer.groebner_inputs.add(key)
    tracer.count("polyalg.groebner.gb_elements", len(result.gb or ()))


def _hilbert_counters(tracer, args, kwargs, result) -> None:
    ideal = args[0] if args else kwargs["ideal"]
    bound = args[1] if len(args) > 1 else kwargs["bound"]
    n = ideal.ring.n
    tracer.count("polyalg.hilbert_function.monomials",
                 sum(comb(n + k - 1, k) for k in range(bound + 1)))


def _param_counters(tracer, args, kwargs, result) -> None:
    tracer.count("cases.parametrization_check.points", result.trials)


def _build_rep_counters(tracer, args, kwargs, result) -> None:
    tracer.count("breps.build_rep.weights", result.dimension)


COUNTERS = {
    ("polyalg", "groebner"): _groebner_counters,
    ("polyalg", "hilbert_function"): _hilbert_counters,
    ("cases", "parametrization_check"): _param_counters,
    ("breps", "build_rep"): _build_rep_counters,
}


class Tracer:
    """Wraps freshly imported copies of the library and records their spans.

    Spans are kept as compact arrays of ``clock`` marks and turned into
    calibrated times once, by ``aggregate``, after the clock has stopped.
    """

    def __init__(self, clock):
        self.clock = clock
        self.stack: list[int] = []  # ids of the open spans
        self.keys: list[tuple[str, str]] = []  # (layer, function) by id
        self.span_id = array("i")  # per closed span, in closing order
        self.span_depth = array("i")
        self.span_marks = array("d")  # t0, p0, t1, p1 per closed span
        self.counters: dict[str, float] = {}
        self.groebner_inputs: set = set()

    def count(self, name: str, amount) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(self, key: tuple[str, str], fn):
        if key not in self.keys:
            self.keys.append(key)
        kid = self.keys.index(key)
        stack, mark = self.stack, self.clock.mark
        span_id, span_depth, span_marks = self.span_id, self.span_depth, self.span_marks
        on_result = COUNTERS.get(key)
        tracer = self

        def traced(*args, **kwargs):
            if stack and stack[-1] == kid:
                return fn(*args, **kwargs)
            depth = len(stack)
            stack.append(kid)
            t0, p0 = mark()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1, p1 = mark()
                stack.pop()
                span_id.append(kid)
                span_depth.append(depth)
                span_marks.extend((t0, p0, t1, p1))
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        return traced

    def install(self, lib) -> None:
        """Wrap the layer functions of ``lib`` (modules by layer name)."""
        modules = [getattr(lib, layer) for layer in LAYERS]
        for layer, mod in zip(LAYERS, modules):
            names = [name for name, obj in vars(mod).items()
                     if inspect.isfunction(obj) and obj.__module__ == mod.__name__
                     and not name.startswith("_")
                     and name not in HOT_PRIMITIVES.get(layer, ())]
            names += [n for n in EXTRA_FUNCTIONS.get(layer, ()) if hasattr(mod, n)]
            for name in names:
                orig = getattr(mod, name)
                wrapped = self._wrap((layer, name), orig)
                # rebind in every namespace that imported the function by name
                for other in lib.all_modules:
                    for attr, val in list(vars(other).items()):
                        if val is orig:
                            setattr(other, attr, wrapped)
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name, None)
                if cls is not None and inspect.isfunction(getattr(cls, meth, None)):
                    setattr(cls, meth, self._wrap((layer, meth), getattr(cls, meth)))

    def aggregate(self) -> dict[tuple[str, str], list]:
        """(layer, function) -> [calls, calibrated seconds, calibrated self
        seconds].  Spans close children first, so the time nested directly
        in a span is what closed one level deeper since its last sibling."""
        out = {key: [0, 0.0, 0.0] for key in self.keys}
        nested: dict[int, float] = {}
        marks = self.span_marks
        for i, (kid, depth) in enumerate(zip(self.span_id, self.span_depth)):
            t0, p0, t1, p1 = marks[4 * i:4 * i + 4]
            dur = self.clock.calibrated((t0, p0), (t1, p1))
            agg = out[self.keys[kid]]
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - nested.pop(depth + 1, 0.0)
            nested[depth] = nested.get(depth, 0.0) + dur
        return out

    def metrics(self, spans: dict, wall_s: float) -> dict[str, float]:
        """Flat metric dict: <layer>.<fn>.{calls,s}, <layer>.self_s, counters."""
        out: dict[str, float] = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for (layer, name), (calls, total, self_s) in spans.items():
            out[f"{layer}.{name}.calls"] = calls
            out[f"{layer}.{name}.s"] = total
            layer_self[layer] += self_s
        for layer, s in layer_self.items():
            out[f"{layer}.self_s"] = s
        out.update(self.counters)
        calls = out.get("polyalg.groebner.calls", 0)
        out["polyalg.groebner.distinct"] = len(self.groebner_inputs)
        out["polyalg.groebner.distinct_share"] = (
            len(self.groebner_inputs) / calls if calls else 0.0)
        # share of the traced wall time spent inside spans that verify_all opened
        va = spans.get(("campaigns", "verify_all"))
        out["campaigns.span_cover_share"] = (va[1] - va[2]) / wall_s if va and wall_s else 0.0
        return out
