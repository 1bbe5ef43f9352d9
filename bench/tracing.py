"""Per-layer tracing of qpascal from outside the package.

``Tracer.install`` wraps the public functions and the methods of the
public classes of every layer module, and rebinds each wrapped function
in every ``qpascal`` namespace that holds it (the modules import each
other with ``from .x import f``).  Methods such as
``SplitMix64.next_uint64`` and the ``FieldSpec`` operations are wrapped
on the class; a class's ``__init__`` is traced under the class name, so
``galois.Subspace`` counts constructions.  Sampler closures are wrapped
as ``processes.sampler`` through the factories that return them.

Every wrapped call is timed on one stack: its self time is its duration
minus the time of the wrapped calls inside it, and is charged to its
layer.  Calls in ``STORED`` are kept as spans (name, start, end, parent
span, op id) and written out by ``write_spans``; the others run once per
cell, draw or field operation, so they are kept only as counts and
summed times.  Either way the self times of one op add up to its root
``cli.main`` duration.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import time
from collections import Counter, defaultdict
from enum import Enum

LAYERS = ("cli", "exactq", "pascal_graph", "laws", "boundary", "processes", "rng", "galois")

# calls kept as individual spans: a few per op, never per cell or draw
STORED = frozenset({
    "cli.main", "cli.build_parser",
    "laws.VArray", "laws.TildeArray", "laws.tilde_of_v", "laws.v_of_tilde",
    "laws.check_recursion", "laws.VArray.to_jsonable", "laws.VArray.from_jsonable",
    "laws.TildeArray.to_jsonable", "laws.TildeArray.from_jsonable",
    "boundary.extreme_array", "boundary.mixture_array", "boundary.recover_measure",
    "boundary.is_q_completely_monotone", "boundary.q_difference",
    "boundary.BoundaryMeasure", "boundary.BoundaryMeasure.from_jsonable",
    "boundary.BoundaryMeasure.to_jsonable", "boundary.MomentSequence",
    "processes.extreme_sampler", "processes.theta_sampler", "processes.polya_sampler",
    "processes.polya_array", "processes.theta_array",
    "processes.empirical_level_histogram",
    "pascal_graph.flip_reduction",
    "galois.make_field", "galois.FieldSpec", "galois.sample_growth",
    "galois.codim_word", "galois.FieldSpec.to_jsonable",
})

SAMPLER_FACTORIES = ("extreme_sampler", "theta_sampler", "polya_sampler")
SAMPLER = "processes.sampler"


class Tracer:
    """Wraps qpascal in place; ``uninstall`` restores every original."""

    def __init__(self) -> None:
        self.op = None  # id of the op in flight, set by the caller
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, op, self)
        self.stack: list[list] = []  # [name, start, child time, span id, stored parent, children]
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)  # inclusive time per name
        self.self_time: defaultdict = defaultdict(float)  # self time per name
        self.inside: Counter = Counter()  # (enclosing name, name) -> calls
        self.in_sampler: Counter = Counter()  # calls made inside a sampler
        self.with_children: Counter = Counter()  # calls that made a wrapped call
        self.sampler_depth = 0
        self._undo: list[tuple] = []
        self._ids = itertools.count(1)

    # ------------------------------------------------------------ timing

    def _enter(self, name: str) -> list:
        stack = self.stack
        stored_parent = None
        if stack:
            parent = stack[-1]
            stored_parent = parent[3] if parent[3] is not None else parent[4]
            self.inside[(parent[0], name)] += 1
            parent[5] += 1
        if self.sampler_depth:
            self.in_sampler[name] += 1
        sid = next(self._ids) if name in STORED else None
        frame = [name, 0.0, 0.0, sid, stored_parent, 0]
        stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self.stack
        stack.pop()
        name, start, child = frame[0], frame[1], frame[2]
        duration = end - start
        own = duration - child
        if stack:
            stack[-1][2] += duration
        self.total[name] += duration
        self.self_time[name] += own
        if frame[5]:
            self.with_children[name] += 1
        if frame[3] is not None:
            self.spans.append((frame[3], name, start, end, frame[4], self.op, own))

    # ---------------------------------------------------------- wrappers

    def _wrap(self, name: str, fn):
        tracer = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                return tracer._resume(name, fn(*args, **kwargs))

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            frame = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        return wrapper

    def _resume(self, name: str, gen):
        """Time each resumption of a generator as a call of ``name``."""
        try:
            while True:
                frame = self._enter(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._exit(frame)
                yield item
        finally:
            gen.close()

    def _wrap_factory(self, name: str, fn):
        """A sampler factory whose returned closures are traced too."""
        tracer = self
        traced = self._wrap(name, fn)

        @functools.wraps(fn)
        def factory(*args, **kwargs):
            inner = traced(*args, **kwargs)

            @functools.wraps(inner)
            def draw(*args, **kwargs):
                tracer.calls[SAMPLER] += 1
                frame = tracer._enter(SAMPLER)
                tracer.sampler_depth += 1
                try:
                    return inner(*args, **kwargs)
                finally:
                    tracer.sampler_depth -= 1
                    tracer._exit(frame)

            return draw

        return factory

    # ------------------------------------------------------ installation

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module("qpascal." + layer)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = "%s.%s" % (layer, attr)
                if inspect.isfunction(obj):
                    if layer == "processes" and attr in SAMPLER_FACTORIES:
                        wrappers[obj] = self._wrap_factory(name, obj)
                    else:
                        wrappers[obj] = self._wrap(name, obj)
                elif inspect.isclass(obj) and not issubclass(obj, (tuple, Enum, BaseException)):
                    self._wrap_class(name, obj)
        # rebind in every namespace that imported the function, under any name
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "qpascal" or n.startswith("qpascal.")]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(ns, attr, wrappers[value])

    def _wrap_class(self, name: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr == "__init__" and inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(name, raw))
            elif attr.startswith("_"):
                continue
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap("%s.%s" % (name, attr), raw))
            elif isinstance(raw, (classmethod, staticmethod)):
                wrapped = self._wrap("%s.%s" % (name, attr), raw.__func__)
                self._set(cls, attr, type(raw)(wrapped))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------ report

    def draws(self) -> int:
        """``next_uint64`` calls so far."""
        return self.calls[DRAW]

    def roots(self) -> list[tuple]:
        return [s for s in self.spans if s[4] is None]

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_time.items():
            out[name.split(".", 1)[0]] += seconds
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\top\tself\n")
            for sid, name, start, end, parent, op, own in self.spans:
                fh.write("%d\t%s\t%.9f\t%.9f\t%s\t%s\t%.9f\n"
                         % (sid, name, start, end, "" if parent is None else parent, op, own))


# ------------------------------------------------------- per-layer metrics

FIELD_OPS = tuple("galois.FieldSpec." + op for op in ("add", "sub", "neg", "mul", "inv"))
DRAW = "rng.SplitMix64.next_uint64"

# name -> unit; ".calls", ".s" and "self_s" names read the tracer's
# counts, inclusive times and layer self times, the rest are derived
PER_LAYER_UNITS = {
    "cli.main.calls": "count", "cli.self_s": "s", "cli.out_bytes": "bytes",
    "exactq.q_binomial.calls": "count", "exactq.q_binomial.s": "s",
    "exactq.parse_rational.calls": "count", "exactq.self_s": "s",
    "laws.tilde_of_v.s": "s", "laws.check_recursion.s": "s",
    "laws.VArray.to_jsonable.s": "s", "laws.VArray.from_jsonable.s": "s", "laws.self_s": "s",
    "boundary.extreme_array.s": "s", "boundary.mixture_array.s": "s",
    "boundary.extreme_kernel.calls": "count", "boundary.recover_measure.s": "s",
    "boundary.is_q_completely_monotone.s": "s", "boundary.self_s": "s",
    "processes.polya_array.s": "s", "processes.theta_array.s": "s",
    "processes.sampler.s": "s", "processes.empirical_level_histogram.s": "s",
    "processes.thresholds_per_draw": "ratio", "processes.self_s": "s",
    "pascal_graph.BinaryWord.calls": "count", "pascal_graph.flip_reduction.s": "s",
    "pascal_graph.self_s": "s",
    "rng.draws": "count", "rng.bernoulli_threshold.calls": "count",
    "rng.geometric_failures.calls": "count", "rng.geometric_failures.s": "s",
    "rng.uniform_below.rejections": "count", "rng.self_s": "s",
    "galois.sample_growth.s": "s", "galois.enumerate_grassmannian.s": "s",
    "galois.make_field.s": "s", "galois.rref_canonicalize.calls": "count",
    "galois.rref_canonicalize.s": "s", "galois.Subspace.calls": "count",
    "galois.rref_per_subspace": "ratio", "galois.field_ops": "count", "galois.self_s": "s",
    "trace.overhead": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, out_bytes: int, overhead: float | None) -> dict:
    """Every PER_LAYER_UNITS metric from one traced run."""
    layer_self = tracer.layer_self()
    calls, total = tracer.calls, tracer.total
    ub = "rng.uniform_below"
    derived = {
        "cli.out_bytes": out_bytes,
        "processes.thresholds_per_draw": _ratio(
            tracer.in_sampler["rng.bernoulli_threshold"], tracer.in_sampler[DRAW]),
        "rng.draws": calls[DRAW],
        # each uniform_below call that draws at all accepts exactly one draw
        "rng.uniform_below.rejections": tracer.inside[(ub, DRAW)] - tracer.with_children[ub],
        "galois.rref_per_subspace": _ratio(
            calls["galois.rref_canonicalize"], calls["galois.Subspace"]),
        "galois.field_ops": sum(calls[name] for name in FIELD_OPS),
        "trace.overhead": overhead if overhead is not None else 0.0,
    }
    out = {}
    for name in PER_LAYER_UNITS:
        if name in derived:
            out[name] = derived[name]
        elif name.endswith(".self_s"):
            out[name] = layer_self[name.split(".")[0]]
        elif name.endswith(".calls"):
            out[name] = calls[name[: -len(".calls")]]
        else:
            out[name] = total[name[: -len(".s")]]
    return out
