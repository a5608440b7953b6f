"""Outside-in layer tracing for the benchmark.

``LayerTracer`` wraps the public functions, methods (including the
arithmetic operators) and constructors of each masure module, and every
alias another masure module imported, for the duration of a ``with``
block; leaving the block puts every original object back.

Every wrapped call is counted.  A call whose caller is in another layer
(or in the benchmark) opens a span, kept in memory as (id, parent, query
id, name, start, end) and written out by ``write_spans``.  A layer's self
time is the time its code is the innermost wrapped layer on the stack, so
a span's self time is the span minus the part covered by its child spans.
"""

from __future__ import annotations

import gzip
import sys
import time
import types
from collections import Counter
from enum import Enum

import masure.cli  # noqa: F401  (pulls in every module)
from masure import cone, fields, hecke

LAYERS = ("fields", "linalg", "kmdata", "weyl", "cone", "tree", "lattices",
          "hecke", "loop")
OPERATORS = ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__")
FIELD_OPS = ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "inverse")
PARSERS = ("fields.parse_element", "fields.parse_field",
           "fields.parse_laurent_terms", "fields.laurent_from_terms")
BENCH = "bench"


def _public_callables(mod):
    """(owner, attribute, raw object, qualified name) of every callable the
    tracer wraps in module ``mod``."""
    layer = mod.__name__.rsplit(".", 1)[1]
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if isinstance(obj, types.FunctionType):
            yield mod, name, obj, f"{layer}.{name}"
        elif isinstance(obj, type) and not issubclass(obj, (BaseException, Enum)):
            for attr, raw in vars(obj).items():
                if attr.startswith("_") and attr != "__init__" and attr not in OPERATORS:
                    continue
                if isinstance(raw, (types.FunctionType, staticmethod)):
                    yield obj, attr, raw, f"{layer}.{name}.{attr}"


class LayerTracer:
    """Counts, spans and per-layer self time of the calls made while installed."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()          # by layer, at span boundaries
        self.layer_s: Counter = Counter()         # self time by layer
        self.name_s: Counter = Counter()          # layer self time by outermost call of a name
        self.span_s: Counter = Counter()          # span self time by span name
        self.backend_s: Counter = Counter()       # fields span self time by backend
        self.counts: Counter = Counter()          # counts read from arguments and results
        self.matrices: set = set()                # distinct matrices classified
        self.spans: list[tuple] = []
        self.query_id = -1
        self._stack: list[list] = []
        self._active: Counter = Counter()
        self._cur = BENCH
        self._t_switch = 0.0
        self._patches: list[tuple] = []

    # -- installation --------------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"masure.{layer}"]
            for owner, attr, raw, name in list(_public_callables(mod)):
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = self._wrap(fn, name, layer)
                wrappers[id(fn)] = (fn, wrapped)
                self._patch(owner, attr, raw,
                            staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
        for modname, mod in list(sys.modules.items()):
            if modname != "masure" and not modname.startswith("masure."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, obj, hit[1])
        self._cur, self._t_switch = BENCH, time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, original, replacement) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def patched(self) -> list[tuple]:
        """(owner, attribute, original) of every attribute currently replaced."""
        return list(self._patches)

    # -- the wrapper -----------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        observe = _OBSERVERS.get(name)
        backend_of = _field_backend if layer == "fields" else None
        tracer = self
        calls, active, stack = self.calls, self._active, self._stack
        acc = self.layer_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] += 1
            now = clock()
            parent = stack[-1] if stack else None
            if tracer._cur != layer:
                acc[tracer._cur] += now - tracer._t_switch
                tracer._cur, tracer._t_switch = layer, now
            boundary = parent is None or parent[1] != layer
            frame = [name, layer, now, acc[layer] + (now - tracer._t_switch),
                     len(tracer.spans) if boundary else None]
            if boundary:
                tracer.spans.append(None)  # filled in when the span closes
            stack.append(frame)
            active[name] += 1
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                own = acc[layer] + (end - tracer._t_switch) - frame[3]
                back = parent[1] if parent is not None else BENCH
                if back != layer:
                    acc[layer] += end - tracer._t_switch
                    tracer._cur, tracer._t_switch = back, end
                if not active[name]:
                    tracer.name_s[name] += own
                if boundary:
                    parent_span = _enclosing_span(stack)
                    tracer.spans[frame[4]] = (frame[4], parent_span, tracer.query_id,
                                              name, frame[2], end)
                    tracer.span_s[name] += own
                    if failed:
                        tracer.errors[layer] += 1
                    elif backend_of is not None:
                        tracer.backend_s[backend_of(args, result)] += own
            if observe is not None:
                observe(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    # -- results -----------------------------------------------------------------

    def layer_calls(self, layer: str) -> int:
        prefix = layer + "."
        return sum(n for name, n in self.calls.items() if name.startswith(prefix))

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of the benchmark, by name."""
        c, ms = self.calls, 1000.0
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = self.layer_s[layer] * ms
            out[f"{layer}.calls"] = self.layer_calls(layer)
            out[f"{layer}.errors"] = self.errors[layer]

        def ratio(num: str, den: str) -> float:
            return self.counts[num] / c[den] if c[den] else 0.0

        out.update({
            "fields.laurent.ops": self.counts["fields.laurent.ops"],
            "fields.padic.ops": self.counts["fields.padic.ops"],
            "fields.laurent.self_ms": self.backend_s["laurent"] * ms,
            "fields.padic.self_ms": self.backend_s["padic"] * ms,
            "fields.elements_built": c["fields.FieldElement.__init__"],
            "fields.tail_reduce.calls": c["fields.tail_reduce"],
            "fields.tail_reduce.self_ms": self.name_s["fields.tail_reduce"] * ms,
            "fields.parse.self_ms": sum(self.span_s[n] for n in PARSERS) * ms,
            "tree.act.self_ms": self.name_s["tree.act"] * ms,
            "tree.ball.self_ms": self.name_s["tree.ball"] * ms,
            "tree.ball.vertices": self.counts["tree.ball.vertices"],
            "tree.make_point.calls": c["tree.make_point"],
            "lattices.smith_valuations.calls": c["lattices.smith_valuations"],
            "hecke.verify_path.self_ms": self.name_s["hecke.verify_path"] * ms,
            "hecke.verify_fold.chain_found_ratio": ratio("hecke.verify_fold.chains",
                                                         "hecke.verify_fold"),
            "hecke.check_dominance.self_ms": self.name_s["hecke.check_dominance"] * ms,
            "linalg.fm_feasible.calls": c["linalg.fm_feasible"],
            "kmdata.classify.calls": c["kmdata.classify"],
            "kmdata.classify.distinct_matrices": len(self.matrices),
            "kmdata.delta_coefficients.calls": c["kmdata.delta_coefficients"],
            "weyl.elements_built": c["weyl.WeylElement.__init__"],
            "weyl.weyl_element.calls": c["weyl.weyl_element"],
            "weyl.length_and_reduce.calls": c["weyl.length_and_reduce"],
            "weyl.all_elements_up_to_length.calls": c["weyl.all_elements_up_to_length"],
            "weyl.all_elements_up_to_length.elements":
                self.counts["weyl.all_elements_up_to_length.elements"],
            "weyl.all_elements_up_to_length.self_ms":
                self.name_s["weyl.all_elements_up_to_length"] * ms,
            "weyl.enumerate_real_roots.calls": c["weyl.enumerate_real_roots"],
            "cone.normalize_to_dominant.calls": c["cone.normalize_to_dominant"],
            "cone.normalize_to_dominant.steps": self.counts["cone.normalize_to_dominant.steps"],
            "cone.normalize_to_dominant.in_cone_ratio": ratio(
                "cone.normalize_to_dominant.in_cone", "cone.normalize_to_dominant"),
            "cone.prenilpotent_pair.self_ms": self.name_s["cone.prenilpotent_pair"] * ms,
            "cone.prenilpotent_pair.conclusive_ratio": ratio(
                "cone.prenilpotent_pair.conclusive", "cone.prenilpotent_pair"),
            "cone.rank2_geometry.calls": c["cone.rank2_geometry"],
            "loop.series_built": c["loop.TruncSeries.__init__"],
            "loop.series_mul.calls": c["loop.TruncSeries.__mul__"],
            "loop.series_inverse.calls": c["loop.TruncSeries.inverse"],
            "loop.gm_poly.self_ms": self.name_s["loop.gm_poly"] * ms,
            "loop.uma_factorize.self_ms": self.name_s["loop.uma_factorize"] * ms,
            "loop.series_to_product_params.self_ms":
                self.name_s["loop.series_to_product_params"] * ms,
        })
        return out

    def exact_counts(self) -> dict[str, int]:
        """The machine-independent part of ``metrics``: every call and count."""
        out = dict(self.calls)
        out.update({f"count:{k}": v for k, v in self.counts.items()})
        out.update({f"errors:{k}": v for k, v in self.errors.items()})
        out["distinct_matrices"] = len(self.matrices)
        return out

    def write_spans(self, path) -> None:
        """Spans as gzipped CSV: id, parent id, query id, name, start and end
        in nanoseconds relative to the first span."""
        spans = [s for s in self.spans if s is not None]
        t0 = spans[0][4] if spans else 0.0
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("id,parent,query,name,start_ns,end_ns\n")
            for sid, parent, qid, name, start, end in spans:
                fh.write(f"{sid},{'' if parent is None else parent},{qid},{name},"
                         f"{round((start - t0) * 1e9)},{round((end - t0) * 1e9)}\n")


def _enclosing_span(stack: list[list]):
    for frame in reversed(stack):
        if frame[4] is not None:
            return frame[4]
    return None


# ---------------------------------------------------------------------------
# counts read from arguments and return values

def _field_backend(args, result) -> str:
    for obj in (*args, result):
        kind = _kind_of(obj)
        if kind is not None:
            return kind
    return "other"


def _kind_of(obj):
    if isinstance(obj, fields.FieldConfig):
        return obj.kind
    if isinstance(obj, fields.FieldElement):
        return obj.config.kind
    if isinstance(obj, fields.Mat2):
        return obj.a.config.kind
    if isinstance(obj, fields.Tail):
        return obj.value.config.kind
    return None


def _count_field_op(tracer: LayerTracer, args, result) -> None:
    tracer.counts[f"fields.{args[0].config.kind}.ops"] += 1


def _count_ball(tracer: LayerTracer, args, result) -> None:
    tracer.counts["tree.ball.vertices"] += len(result)


def _count_elements(tracer: LayerTracer, args, result) -> None:
    tracer.counts["weyl.all_elements_up_to_length.elements"] += len(result)


def _count_normalize(tracer: LayerTracer, args, result) -> None:
    if isinstance(result, cone.InCone):
        tracer.counts["cone.normalize_to_dominant.in_cone"] += 1
    steps = getattr(result, "steps", None)
    if steps is not None:
        tracer.counts["cone.normalize_to_dominant.steps"] += steps


def _count_prenilpotent(tracer: LayerTracer, args, result) -> None:
    if isinstance(result, (cone.Prenilpotent, cone.NotPrenilpotent)):
        tracer.counts["cone.prenilpotent_pair.conclusive"] += 1


def _count_fold(tracer: LayerTracer, args, result) -> None:
    if isinstance(result, hecke.ChainWitness):
        tracer.counts["hecke.verify_fold.chains"] += 1


def _count_classify(tracer: LayerTracer, args, result) -> None:
    tracer.matrices.add(args[0].entries)


_OBSERVERS = {f"fields.FieldElement.{op}": _count_field_op for op in FIELD_OPS}
_OBSERVERS.update({
    "tree.ball": _count_ball,
    "weyl.all_elements_up_to_length": _count_elements,
    "cone.normalize_to_dominant": _count_normalize,
    "cone.prenilpotent_pair": _count_prenilpotent,
    "hecke.verify_fold": _count_fold,
    "kmdata.classify": _count_classify,
})
