"""Span tracing of galepoly's layers from outside the library.

``Tracer.install`` wraps the public functions of each layer module (plus
``ExactMatrix.rank/kernel_basis/solve`` and ``IncidencePolytope``
construction) and rebinds every name under which a galepoly module refers
to the original, so calls made inside the library are traced too and no
file under ``src/`` changes.  ``uninstall`` restores every binding.

Each wrapped call appends one span ``(name_id, start_ns, end_ns, parent,
op)`` to an in-memory list; counters that need arguments or results (LP
sizes, coface hits, apex trials, digest bytes) are kept alongside.  A
layer's self time is the length of its spans minus the part covered by
their child spans.  The linalg vector helpers (``dot``, ``as_vector``, ...)
are left unwrapped: they run millions of times and their cost is charged
to the calling layer's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("lp", "linalg", "spanning", "gale", "polytope", "mani", "jsonio", "parallel")
METHODS = {
    "linalg": {"ExactMatrix": ("rank", "kernel_basis", "solve")},
    "polytope": {"IncidencePolytope": ("__post_init__",)},
}
DECODERS = ("config_from_json", "points_from_json", "polytope_from_json",
            "plan_from_json", "detect_schema")
ENCODERS = ("canonical_bytes", "dumps", "config_to_json", "points_to_json",
            "polytope_to_json", "plan_to_json", "certificate_to_json")
# inclusive times of the outermost span of each kind
INCLUSIVE = ("jsonio.decode_s", "jsonio.encode_s", "gale.realize_s", "polytope.construct_s")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.scan_depth = 0
        self._keys_op = None
        self._keys: set = set()
        self._restore: list = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, name: str, fn, pre=None, post=None):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            if pre is not None:
                pre(tracer, args, kwargs)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append((nid, 0, 0, parent, tracer.op))
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, tracer.op)
            if post is not None:
                post(tracer, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def _wrap_imap(self, fn):
        nid = self._name_id("parallel.imap")
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        tracer = self

        def traced_imap(fn_, tasks, workers=1, chunksize=8):
            tracer.counts["parallel.imap_calls"] += 1
            if workers > 1:
                tracer.counts["parallel.pools_started"] += 1
            inner = fn(fn_, tasks, workers, chunksize)

            def iterate():
                try:
                    while True:
                        parent = stack[-1] if stack else -1
                        idx = len(spans)
                        spans.append((nid, 0, 0, parent, tracer.op))
                        stack.append(idx)
                        start = clock()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            end = clock()
                            stack.pop()
                            spans[idx] = (nid, start, end, parent, tracer.op)
                        tracer.counts["parallel.tasks"] += 1
                        yield item
                finally:
                    inner.close()

            return iterate()

        return functools.wraps(fn)(traced_imap)

    # -- installation --------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self.scan_depth = 0
        self.stack.clear()

    def install(self) -> None:
        import galepoly  # noqa: F401  (loads every layer module)

        modules = {layer: sys.modules[f"galepoly.{layer}"] for layer in LAYERS}
        replacements = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or layer == "linalg"
                ):
                    continue
                if layer == "parallel" and attr == "imap":
                    replacements[id(obj)] = (obj, self._wrap_imap(obj))
                    continue
                pre, post = HOOKS.get(f"{layer}.{attr}", (None, None))
                replacements[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj, pre, post))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    original = cls.__dict__[meth]
                    name = f"{layer}.{cls_name}.{meth}"
                    pre, post = HOOKS.get(name, (None, None))
                    setattr(cls, meth, self._wrap(name, original, pre, post))
                    self._restore.append((cls, meth, original))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "galepoly" or mod_name.startswith("galepoly.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, obj))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def write(self, path: str) -> None:
        """Spans as JSON lines: a name table, then one span per line."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fields": ["name", "start_ns", "end_ns", "parent", "op"]}))
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")

    def layer_metrics(self, ops: int) -> dict:
        """Self time per layer and the inclusive times in ``INCLUSIVE``, from
        the spans of operations ``0 .. ops-1``."""
        n = len(self.spans)
        child = [0] * n
        for nid, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layer_of = [name.split(".", 1)[0] for name in self.names]
        category = {}
        for i, name in enumerate(self.names):
            short = name.split(".", 1)[1]
            if name.startswith("jsonio.") and short in DECODERS:
                category[i] = "jsonio.decode_s"
            elif name.startswith("jsonio.") and short in ENCODERS:
                category[i] = "jsonio.encode_s"
            elif name == "gale.realize":
                category[i] = "gale.realize_s"
            elif name == "polytope.IncidencePolytope.__post_init__":
                category[i] = "polytope.construct_s"
        self_ns = {layer: 0 for layer in LAYERS}
        inclusive = dict.fromkeys(INCLUSIVE, 0)
        for idx, (nid, start, end, parent, op) in enumerate(self.spans):
            if not 0 <= op < ops:
                continue
            self_ns[layer_of[nid]] += end - start - child[idx]
            cat = category.get(nid)
            if cat is None:
                continue
            outer = True
            p = parent
            while p >= 0:
                if category.get(self.spans[p][0]) == cat:
                    outer = False
                    break
                p = self.spans[p][3]
            if outer:
                inclusive[cat] += end - start
        out = {f"{layer}.self_s": ns / 1e9 for layer, ns in self_ns.items()}
        out.update({cat: ns / 1e9 for cat, ns in inclusive.items()})
        out["parallel.wait_s"] = out.pop("parallel.self_s")
        return out


# ---------------------------------------------------------------------------
# Counter hooks, keyed by span name


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _lp_solve(tr, args, kwargs, result):
    n = len(_arg(args, kwargs, 0, "columns"))
    m = len(_arg(args, kwargs, 1, "b"))
    tr.counts["lp.calls"] += 1
    tr.counts["lp.tableau_cells"] += m * (n + m)
    if result[0] is not None:
        tr.counts["lp.feasible"] += 1


def _scan_enter(tr, args, kwargs):
    tr.scan_depth += 1


def _scan_exit(tr, args, kwargs, result):
    tr.scan_depth -= 1
    tr.counts["spanning.scans"] += 1


def _positively_spans(tr, args, kwargs, result):
    if tr.scan_depth <= 0:
        return
    coords = _arg(args, kwargs, 0, "coords")
    selection = _arg(args, kwargs, 1, "selection")
    if selection is None:
        selection = range(len(coords))
    if tr._keys_op != tr.op:
        tr._keys_op, tr._keys = tr.op, set()
    key = tuple(sorted(tuple(coords[i]) for i in set(selection)))
    tr.counts["spanning.subsets_tested"] += 1
    if key not in tr._keys:
        tr._keys.add(key)
        tr.counts["spanning.distinct_sets"] += 1


def _is_coface(tr, args, kwargs, result):
    tr.counts["gale.coface_tests"] += 1
    if result.is_coface:
        tr.counts["gale.coface_hits"] += 1


def _construct(tr, args, kwargs, result):
    poly = args[0]
    tr.counts["polytope.constructs"] += 1
    tr.counts["polytope.facets_max"] = max(tr.counts["polytope.facets_max"], len(poly.facets))


def _stack(tr, args, kwargs, result):
    tr.counts["mani.stack_trials"] += result[1].trials
    tr.counts["mani.apexes_placed"] += 1


def _canonical_bytes(tr, args, kwargs, result):
    parent = tr.stack[-1] if tr.stack else -1
    if parent >= 0 and tr.names[tr.spans[parent][0]] == "jsonio.digest":
        tr.counts["jsonio.digest_bytes"] += len(result)


def _count(key):
    def post(tr, args, kwargs, result):
        tr.counts[key] += 1
    return post


HOOKS = {
    "lp.solve_feasibility": (None, _lp_solve),
    "lp.is_vertex_of_hull": (None, _count("lp.vertex_tests")),
    "lp.interior_point_test": (None, _count("lp.interior_tests")),
    "lp.positively_spans": (None, _positively_spans),
    "linalg.ExactMatrix.rank": (None, _count("linalg.calls")),
    "linalg.ExactMatrix.kernel_basis": (None, _count("linalg.calls")),
    "linalg.ExactMatrix.solve": (None, _count("linalg.calls")),
    "spanning.is_positively_k_spanning": (_scan_enter, _scan_exit),
    "gale.is_coface": (None, _is_coface),
    "gale.supporting_hyperplane": (None, _count("gale.hyperplane_tests")),
    "polytope.IncidencePolytope.__post_init__": (None, _construct),
    "polytope.is_edge": (None, _count("polytope.edge_tests")),
    "mani.geometric_stack_point": (None, _stack),
    "jsonio.canonical_bytes": (None, _canonical_bytes),
}


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def count_metrics(counts: dict) -> dict:
    """Exact counts and the ratios built from them."""
    def ratio(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    return {
        "lp.calls": counts.get("lp.calls", 0),
        "lp.tableau_cells": counts.get("lp.tableau_cells", 0),
        "lp.feasible_ratio": ratio("lp.feasible", "lp.calls"),
        "lp.vertex_tests": counts.get("lp.vertex_tests", 0),
        "lp.interior_tests": counts.get("lp.interior_tests", 0),
        "linalg.calls": counts.get("linalg.calls", 0),
        "spanning.scans": counts.get("spanning.scans", 0),
        "spanning.subsets_tested": counts.get("spanning.subsets_tested", 0),
        "spanning.unique_ratio": ratio("spanning.distinct_sets", "spanning.subsets_tested"),
        "gale.coface_tests": counts.get("gale.coface_tests", 0),
        "gale.coface_hit_ratio": ratio("gale.coface_hits", "gale.coface_tests"),
        "gale.hyperplane_tests": counts.get("gale.hyperplane_tests", 0),
        "polytope.constructs": counts.get("polytope.constructs", 0),
        "polytope.edge_tests": counts.get("polytope.edge_tests", 0),
        "polytope.facets_max": counts.get("polytope.facets_max", 0),
        "mani.stack_trials": counts.get("mani.stack_trials", 0),
        "mani.stack_useful_ratio": ratio("mani.apexes_placed", "mani.stack_trials"),
        "jsonio.digest_bytes": counts.get("jsonio.digest_bytes", 0),
        "parallel.imap_calls": counts.get("parallel.imap_calls", 0),
        "parallel.pools_started": counts.get("parallel.pools_started", 0),
        "parallel.tasks": counts.get("parallel.tasks", 0),
    }
