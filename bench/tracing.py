"""Per-layer tracing from outside the program.

A :class:`Tracer` replaces the public functions of the ``algebroid`` modules
with timing wrappers, in every module that holds a binding to them (for
example ``spec_model``, ``calculus`` and ``freealg`` each import
``eval_jet`` by name). Each call of a wrapped function becomes an in-memory
span: name, start, end, parent span and invocation id. ``eval_jet`` is the
exception: it is a leaf called hundreds of thousands of times a pass, so its
calls are added up into their parent span instead of becoming spans.

The tracer's own bookkeeping (span records, tree hashing for the node
counts) is timed as it runs and left out of every span's duration, so a
layer's time is its time with tracing off, up to the cost of the wrapper
call itself.

Counts that do not depend on the machine (calls, jet tree nodes walked,
RK4 steps, anchor tree sizes) are taken at the same boundaries.
"""

from __future__ import annotations

import dataclasses
import inspect
import time
from collections import defaultdict

import numpy as np

MODULES = ("exprjet", "spec_model", "calculus", "freealg", "foliation", "cli")
# Public functions left unwrapped: exprjet is traced through eval_jet alone
# (diff and render recurse through their module binding), and the HallWord
# helpers are constant-time bookkeeping called per word.
_SKIP = {"freealg": {"leaf", "pair", "word_str", "is_hall"}}
_ONLY = {"exprjet": {"eval_jet"}, "cli": {"main"}}

EVAL_BLOCKS = tuple(f"spec_model.eval_{b}" for b in (
    "anchor", "structure", "connection", "psi", "metric", "two_form",
    "symplectic", "poisson"))

# A span is [name, start, end, parent, invocation, covered, tracer]: covered
# is the time of its child spans and of the eval_jet calls under it, tracer
# the time of the tracer's bookkeeping inside it. Both are left out of its
# self time; tracer is left out of its duration.
SPAN_FIELDS = ("name", "start", "end", "parent", "invocation", "covered", "tracer")
START, END, COVERED, TRACER = 1, 2, 5, 6


class ExprIndex:
    """Structural identities of expression trees, so that equal subtrees
    built as different objects count once."""

    _CHILDREN = ("arg", "left", "right", "base", "exponent")

    def __init__(self):
        self._by_id: dict[int, tuple[object, int]] = {}
        self._ids: dict[tuple, int] = {}
        self._size: list[int] = []
        self._subtrees: list[frozenset] = []

    def ident(self, e) -> int:
        hit = self._by_id.get(id(e))
        if hit is not None:
            return hit[1]
        children = tuple(self.ident(getattr(e, f))
                         for f in self._CHILDREN if hasattr(e, f))
        leaf = tuple(getattr(e, f.name) for f in dataclasses.fields(e)
                     if f.name not in self._CHILDREN)
        key = (type(e).__name__, leaf, children)
        ident = self._ids.get(key)
        if ident is None:
            ident = len(self._size)
            self._ids[key] = ident
            self._size.append(1 + sum(self._size[c] for c in children))
            self._subtrees.append(frozenset().union(
                *(self._subtrees[c] for c in children)) | {ident})
        self._by_id[id(e)] = (e, ident)     # keeps e alive so id(e) stays unique
        return ident

    def size(self, ident: int) -> int:
        """Nodes a recursive walk of the tree visits (shared subtrees repeat)."""
        return self._size[ident]

    def distinct(self, idents) -> int:
        """Distinct subtrees over a set of trees."""
        return len(frozenset().union(*(self._subtrees[i] for i in idents)))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.invocation = -1
        self.exprs = ExprIndex()
        self.jet_calls = 0
        self.jet_s = 0.0
        self.jet_nodes = [0, 0, 0, 0]
        self.bookkeeping_s = 0.0        # the tracer's own time so far
        # (invocation, point, order) -> structural ids of the trees evaluated
        self.jet_roots: dict[tuple, set] = defaultdict(set)
        self.rk4_steps = 0
        self.anchor_trees: list[tuple[int, int]] = []   # (nodes, distinct)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import importlib
        modules = {m: importlib.import_module(f"algebroid.{m}") for m in MODULES}
        for short, module in modules.items():
            for attr, func in vars(module).items():
                if not self._traced(short, attr, func, module):
                    continue
                wrapper = (self._wrap_jet(func) if attr == "eval_jet"
                           else self._wrap(f"{short}.{attr}", func))
                for holder in modules.values():
                    for name, value in list(vars(holder).items()):
                        if value is func:
                            self._patches.append((holder, name, value))
                            setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, value in reversed(self._patches):
            setattr(holder, name, value)
        self._patches.clear()

    @staticmethod
    def _traced(short, attr, func, module) -> bool:
        if not inspect.isfunction(func) or func.__module__ != module.__name__:
            return False
        if attr.startswith("_"):
            return False
        if short in _ONLY:
            return attr in _ONLY[short]
        return attr not in _SKIP.get(short, ())

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, func):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = {"freealg.free_extend": self._observe_free,
                   "foliation.geodesic_integrate": self._observe_geodesic}.get(name)

        def traced(*args, **kwargs):
            entered = clock()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.invocation,
                    0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            before = self.bookkeeping_s
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span[START], span[END] = start, end
                span[TRACER] = self.bookkeeping_s - before
                if stack:
                    spans[stack[-1]][COVERED] += end - start - span[TRACER]
            if observe is not None:
                observe(result)
            self.bookkeeping_s += (start - entered) + (clock() - end)
            return result

        return traced

    def _wrap_jet(self, func):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        exprs, nodes, roots = self.exprs, self.jet_nodes, self.jet_roots

        def traced(e, point, order=1, n=None):
            start = clock()
            try:
                return func(e, point, order, n)
            finally:
                end = clock()
                self.jet_s += end - start
                self.jet_calls += 1
                if stack:
                    spans[stack[-1]][COVERED] += end - start
                ident = exprs.ident(e)
                nodes[order] += exprs.size(ident)
                if type(point) is not np.ndarray:
                    point = np.asarray(point, dtype=float)
                roots[(self.invocation, point.tobytes(), order)].add(ident)
                self.bookkeeping_s += clock() - end

        return traced

    def _observe_free(self, free) -> None:
        if free.mode != "quotient":
            return
        idents = [self.exprs.ident(c) for w in free.words for c in free.anchor[w]]
        self.anchor_trees.append((sum(map(self.exprs.size, idents)),
                                  self.exprs.distinct(idents)))

    def _observe_geodesic(self, trace) -> None:
        # a trace that left the chart dropped the step that left it
        self.rk4_steps += len(trace.times) - 1 + (1 if trace.exited else 0)

    # -- reduction --------------------------------------------------------

    def distinct_jet_nodes(self) -> int:
        """Distinct (subtree, point, order) triples within each invocation."""
        return sum(self.exprs.distinct(idents) for idents in self.jet_roots.values())


def layer_metrics(tracer: Tracer, points_by_invocation: dict[int, int]) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    spans = tracer.spans
    total = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    calls_by_inv = defaultdict(lambda: defaultdict(int))
    for name, start, end, _parent, inv, covered, bookkeeping in spans:
        total[name] += end - start - bookkeeping
        self_s[name] += end - start - bookkeeping - covered
        calls[name] += 1
        calls_by_inv[name][inv] += 1

    def per_point(names):
        hits = defaultdict(int)
        for name in names:
            for inv, count in calls_by_inv[name].items():
                hits[inv] += count
        points = sum(points_by_invocation[inv] for inv in hits)
        return sum(hits.values()) / points if points else 0.0

    def layer(prefix):
        return [n for n in calls if n.startswith(prefix + ".")]

    walked = sum(tracer.jet_nodes)
    anchor_nodes, anchor_distinct = max(tracer.anchor_trees, default=(0, 0))
    geodesic_s = total["foliation.geodesic_integrate"]
    return {
        "exprjet.eval_jet.calls": (tracer.jet_calls, "count"),
        "exprjet.eval_jet.s": (tracer.jet_s, "s"),
        **{f"exprjet.nodes.o{k}": (tracer.jet_nodes[k], "count") for k in range(4)},
        "exprjet.nodes_per_s": (walked / tracer.jet_s if tracer.jet_s else 0.0, "1/s"),
        "exprjet.distinct_ratio": (tracer.distinct_jet_nodes() / walked
                                   if walked else 0.0, "ratio"),
        "spec_model.load_spec_file.s": (total["spec_model.load_spec_file"], "s"),
        "spec_model.eval_blocks.calls": (sum(calls[n] for n in EVAL_BLOCKS), "count"),
        "spec_model.eval_blocks.s": (sum(total[n] for n in EVAL_BLOCKS), "s"),
        "spec_model.eval_blocks.calls_per_point": (per_point(EVAL_BLOCKS), "1/point"),
        "calculus.kernels.calls": (sum(calls[n] for n in layer("calculus")), "count"),
        "calculus.kernels.self_s": (sum(self_s[n] for n in layer("calculus")), "s"),
        "calculus.compatibility_tensor_frame.calls_per_point": (
            per_point(["calculus.compatibility_tensor_frame"]), "1/point"),
        "calculus.flat_frame_probe.s": (total["calculus.flat_frame_probe"], "s"),
        "freealg.free_extend.s": (total["freealg.free_extend"], "s"),
        "freealg.cartan_check_extended.s": (
            total["freealg.cartan_check_extended"], "s"),
        "freealg.propagate_compatibility.s": (
            total["freealg.propagate_compatibility"], "s"),
        "freealg.anchor_rank_profile.s": (total["freealg.anchor_rank_profile"], "s"),
        "freealg.jacobiator_check.s": (total["freealg.jacobiator_check"], "s"),
        "freealg.extended_arrays.calls": (calls["freealg.extended_arrays"], "count"),
        "freealg.anchor_nodes": (anchor_nodes, "count"),
        "freealg.anchor_distinct_nodes": (anchor_distinct, "count"),
        "foliation.geodesic_integrate.s": (geodesic_s, "s"),
        "foliation.rk4_steps": (tracer.rk4_steps, "count"),
        "foliation.step_s": (geodesic_s / tracer.rk4_steps if tracer.rk4_steps
                             else 0.0, "s"),
        "foliation.orthogonality_monitor.s": (
            total["foliation.orthogonality_monitor"], "s"),
        "cli.self_s": (self_s["cli.main"], "s"),
    }


# Counts that must repeat exactly for the same code and seed.
EXACT_COUNTS = tuple(
    [f"exprjet.nodes.o{k}" for k in range(4)]
    + ["exprjet.eval_jet.calls", "spec_model.eval_blocks.calls",
       "calculus.kernels.calls", "freealg.extended_arrays.calls",
       "foliation.rk4_steps", "freealg.anchor_nodes",
       "freealg.anchor_distinct_nodes"])
