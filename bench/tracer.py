"""Timing wrappers around the public functions of each ellcob layer.

``Tracer.install`` replaces every traced function or method by a wrapper,
in every ellcob module namespace (and dict of callables) that refers to
it, so ``ellcob.cobordism.elliptic_q_coefficients`` is traced as well as
``ellcob.genera.elliptic_q_coefficients``.  ``uninstall`` puts the
originals back.  No ellcob source file is touched.

Each call records a span (request, layer, start, end, parent span) in
memory; ``write_spans`` writes them out when the run ends.  A layer's
self time is its span's duration minus the time covered by its child
spans.
"""
from __future__ import annotations

import gzip
import sys
import time
from array import array

# span name -> (module, attribute or Class.method) it wraps
TARGETS = {
    "algebra.ring_mul": [("ellcob.algebra", "GradedElement.__mul__")],
    "algebra.ring_add": [("ellcob.algebra", "GradedElement.__add__")],
    "algebra.normalize": [("ellcob.algebra", "RingSpec.normalize_terms")],
    "algebra.qseries_mul": [("ellcob.algebra", "QSeries.__mul__")],
    "algebra.ringspec_init": [("ellcob.algebra", "RingSpec.__init__")],
    "algebra.matrix": [("ellcob.algebra", "RationalMatrix.rank"), ("ellcob.algebra", "RationalMatrix.solve"),
                       ("ellcob.algebra", "interpolate_polynomial")],
    "manifolds.build": [("ellcob.manifolds", n) for n in ("build_cp", "build_hp", "build_proj_bundle", "product")],
    "manifolds.pontryagin_classes": [("ellcob.manifolds", "pontryagin_classes")],
    "manifolds.pair": [("ellcob.manifolds", "pair")],
    "genera.k_polys": [("ellcob.genera", "universal_k_polynomials")],
    "genera.twist_character": [("ellcob.genera", "twist_character")],
    "genera.universal_eval": [("ellcob.genera", "MultiplicativeSequence.evaluate_top")],
    "genera.roots_eval": [("ellcob.genera", "CharacteristicSeries.evaluate_at")],
    "genera.evaluate_genus": [("ellcob.genera", "evaluate_genus")],
    "genera.ahat_t": [("ellcob.genera", "twisted_ahat_tangent")],
    "genera.elliptic": [("ellcob.genera", "elliptic_q_coefficients")],
    "cobordism.pontryagin_numbers": [("ellcob.cobordism", "pontryagin_numbers")],
    "cobordism.genus_as_functional": [("ellcob.cobordism", "genus_as_functional")],
    "cobordism.elliptic_span": [("ellcob.cobordism", "elliptic_span")],
    "cobordism.span_membership": [("ellcob.cobordism", "span_membership")],
    "cobordism.family_polynomial": [("ellcob.cobordism", "family_polynomial")],
    "cli.parse_manifold": [("ellcob.cli", "parse_manifold")],
    "cli.parse_functional": [("ellcob.cli", "parse_functional")],
    "cli.main": [("ellcob.cli", "main")],
}
LAYERS = list(TARGETS)
_INDEX = {name: i for i, name in enumerate(LAYERS)}
# lru caches whose hit ratios are reported: metric prefix -> cached functions
CACHES = {"genera.k_polys": ("l_sequence", "ahat_sequence"), "genera.twist_character": ("twist_character",)}


def _resolve(module: str, path: str):
    """(owner, function) for "name" or "Class.method" in a module."""
    owner = sys.modules[module]
    if "." in path:
        cls, path = path.split(".")
        owner = getattr(owner, cls)
    return owner, getattr(owner, path)


class Tracer:
    """Spans and per-layer counters for one process."""

    def __init__(self) -> None:
        n = len(LAYERS)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.peak_terms = 0
        self.terms_in = 0
        self.max_rows = 0
        self.builds = 0
        self.built: set[str] = set()
        self.cache = {prefix: [0, 0] for prefix in CACHES}  # hits, misses
        self.request = -1
        self.span_req = array("i")
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: list[int] = []
        self._child: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self._cache_base: dict[str, list[int]] = {}

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        genera = sys.modules["ellcob.genera"]
        for prefix, names in CACHES.items():
            infos = [getattr(genera, n).cache_info() for n in names]
            self._cache_base[prefix] = [sum(i.hits for i in infos), sum(i.misses for i in infos)]
        modules = [m for name, m in list(sys.modules.items()) if name == "ellcob" or name.startswith("ellcob.")]
        originals: dict[int, object] = {}
        for layer, targets in TARGETS.items():
            for module, path in targets:
                if module not in sys.modules:  # the in-process workloads never import the cli
                    continue
                owner, fn = _resolve(module, path)
                wrapper = self._wrap(_INDEX[layer], fn, _POST.get(path.split(".")[-1]))
                originals[id(fn)] = wrapper
                if "." in path:  # methods: every alias in the class (__rmul__ = __mul__)
                    for name, value in list(vars(owner).items()):
                        if value is fn:
                            self._patch(owner, name, wrapper)
        for module in modules:
            for name, value in list(vars(module).items()):
                if id(value) in originals and callable(value):
                    self._patch(module, name, originals[id(value)])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in originals and callable(v):
                            self._patch(value, k, originals[id(v)])

    def _patch(self, owner, name, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._patches.append((owner, name, vars(owner)[name]))
            setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._patches):
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)
        self._patches.clear()
        genera = sys.modules["ellcob.genera"]
        for prefix, names in CACHES.items():
            infos = [getattr(genera, n).cache_info() for n in names]
            base = self._cache_base.pop(prefix)
            self.cache[prefix][0] += sum(i.hits for i in infos) - base[0]
            self.cache[prefix][1] += sum(i.misses for i in infos) - base[1]

    def _wrap(self, index: int, fn, post):
        tracer = self
        perf = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(tracer.span_start)
            tracer.span_req.append(tracer.request)
            tracer.span_name.append(index)
            tracer.span_parent.append(tracer._open[-1] if tracer._open else -1)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            tracer._open.append(sid)
            tracer._child.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                tracer._open.pop()
                child = tracer._child.pop()
                tracer.span_start[sid] = start
                tracer.span_end[sid] = end
                tracer.calls[index] += 1
                tracer.self_s[index] += (end - start) - child
                if tracer._child:
                    tracer._child[-1] += end - start
            if post is not None:
                post(tracer, args, result)
            return result

        return traced

    # -- results --------------------------------------------------------------

    def total_self(self) -> float:
        return sum(self.self_s)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times, named ``<layer>.<measure>``."""
        out: dict[str, float] = {}
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = self.calls[i]
            out[f"{layer}.self_s"] = self.self_s[i]
        out["algebra.ring_mul.peak_terms"] = self.peak_terms
        out["algebra.normalize.terms_in"] = self.terms_in
        out["algebra.matrix.max_rows"] = self.max_rows
        out["manifolds.build.distinct_ratio"] = len(self.built) / self.builds if self.builds else 0.0
        for prefix, (hits, misses) in self.cache.items():
            out[f"{prefix}.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        return out

    def state(self) -> dict:
        """Everything a parent process needs to merge this tracer into its own."""
        return {
            "calls": self.calls, "self_s": self.self_s, "peak_terms": self.peak_terms,
            "terms_in": self.terms_in, "max_rows": self.max_rows, "builds": self.builds,
            "built": sorted(self.built), "cache": self.cache,
            "spans": [list(self.span_name), list(self.span_parent),
                      list(self.span_start), list(self.span_end)],
        }

    def merge(self, state: dict, request: int) -> None:
        for i in range(len(LAYERS)):
            self.calls[i] += state["calls"][i]
            self.self_s[i] += state["self_s"][i]
        self.peak_terms = max(self.peak_terms, state["peak_terms"])
        self.terms_in += state["terms_in"]
        self.max_rows = max(self.max_rows, state["max_rows"])
        self.builds += state["builds"]
        self.built.update(state["built"])
        for prefix, (hits, misses) in state["cache"].items():
            self.cache[prefix][0] += hits
            self.cache[prefix][1] += misses
        names, parents, starts, ends = state["spans"]
        offset = len(self.span_start)
        for name, parent, start, end in zip(names, parents, starts, ends):
            self.span_req.append(request)
            self.span_name.append(name)
            self.span_parent.append(parent + offset if parent >= 0 else -1)
            self.span_start.append(start)
            self.span_end.append(end)

    def write_spans(self, path) -> None:
        """One line per span: request, layer, start, end, parent span index."""
        with gzip.open(path, "wt") as fh:
            fh.write("request\tlayer\tstart\tend\tparent\n")
            for req, name, start, end, parent in zip(self.span_req, self.span_name, self.span_start,
                                                     self.span_end, self.span_parent):
                fh.write(f"{req}\t{LAYERS[name]}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def _post_mul(tracer: Tracer, args, result) -> None:
    terms = getattr(result, "terms", None)
    if terms is not None and len(terms) > tracer.peak_terms:
        tracer.peak_terms = len(terms)


def _post_normalize(tracer: Tracer, args, result) -> None:
    tracer.terms_in += len(args[1])


def _post_matrix(tracer: Tracer, args, result) -> None:
    rows = getattr(args[0], "rows", None)
    tracer.max_rows = max(tracer.max_rows, rows if rows is not None else len(args[0]))


def _post_build(tracer: Tracer, args, result) -> None:
    tracer.builds += 1
    tracer.built.add(result.name)


_POST = {
    "__mul__": _post_mul, "normalize_terms": _post_normalize,
    "rank": _post_matrix, "solve": _post_matrix, "interpolate_polynomial": _post_matrix,
    "build_cp": _post_build, "build_hp": _post_build, "build_proj_bundle": _post_build, "product": _post_build,
}
