"""Spans recorded around graphsplice's layer boundaries, from outside.

A Tracer replaces module attributes with timing wrappers and puts the
originals back when it is closed.  Each wrapper records one span (name,
start, end, parent) in flat in-memory arrays; self time is a span's
duration minus its direct children's durations.  Callers bind names at
import, so each function is patched in every module that looks it up.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter

# (module, attribute, span name): the attribute each caller looks up
WRAPS = (
    ("graphsplice.formats", "parse_system", "formats.parse_system"),
    ("graphsplice.language", "language", "language"),
    ("graphsplice.language", "sigma_pair", "splicing.sigma_pair"),
    ("graphsplice.analysis", "sigma_pair", "splicing.sigma_pair"),
    ("graphsplice.splicing", "join", "splicing.join"),
    ("graphsplice.splicing", "cut", "cutting.cut"),
    ("graphsplice.cutting", "cut", "cutting.cut"),
    ("graphsplice.language", "canonical_form", "graphs.canonical_form"),
    ("graphsplice.analysis", "canonical_form", "graphs.canonical_form"),
    ("graphsplice.graphs", "canonical_form", "graphs.canonical_form"),
    # the LRU cache calls the kernel search only on a miss
    ("graphsplice._kernels.active", "canonical_form", "graphs.canonical_form.miss"),
    ("graphsplice._kernels.active", "prepare_graph", "kernels.prepare_graph"),
    ("graphsplice._kernels.active", "splice_pair_check", "kernels.splice_pair_check"),
    ("graphsplice._kernels.active", "pair_products", "kernels.pair_products"),
    ("graphsplice.analysis", "verify_all", "analysis.verify_all"),
    ("graphsplice.analysis", "check_power_formula", "analysis.power_formula"),
    ("graphsplice.analysis", "check_degree_balance", "analysis.degree_balance"),
    ("graphsplice.analysis", "check_splice_theorems", "analysis.splice_theorems"),
    ("graphsplice.analysis", "_noncommutativity_report", "analysis.noncommutativity"),
    ("graphsplice.analysis", "_regularity_report", "analysis.regularity"),
    ("graphsplice.analysis", "_kn_symmetry_report", "analysis.kn_symmetry"),
    ("graphsplice.analysis", "_simplicity_report", "analysis.simplicity"),
    ("graphsplice.analysis", "check_cycle_theorem", "analysis.cycle_theorem"),
    ("graphsplice.analysis", "check_iso_splice", "analysis.iso_splice"),
    ("graphsplice.analysis", "check_bipartite_criterion", "analysis.bipartite_criterion"),
)

CHECKERS = (
    "power_formula", "degree_balance", "splice_theorems", "noncommutativity",
    "regularity", "kn_symmetry", "simplicity", "cycle_theorem", "iso_splice",
    "bipartite_criterion",
)


def _resolve(module_name):
    """Import a module path, or None when there is no such module;
    "graphsplice._kernels.active" names the backend module object that
    the package selected at import."""
    try:
        if module_name == "graphsplice._kernels.active":
            return getattr(importlib.import_module("graphsplice._kernels"), "active", None)
        return importlib.import_module(module_name)
    except ImportError:
        return None


class Tracer:
    """Span recorder; use as a context manager so wrappers always go."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patches: list = []
        self.missing: list[str] = []

    def open(self, name: str) -> int:
        idx = len(self.start)
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def wrap(self, module, attr: str, name: str, skip=()) -> None:
        """Replace module.attr by a span-recording wrapper; exceptions of
        the types in skip are counted as name.skipped and re-raised."""
        original = getattr(module, attr)
        on_result = _ON_RESULT.get(name)
        counts = self.counts

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = original(*args, **kwargs)
            except skip:
                counts[name + ".skipped"] += 1
                raise
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(counts, result)
            return result

        traced.__wrapped__ = original
        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def install(self, wraps=WRAPS) -> "Tracer":
        """Wrap every listed attribute; ones the program no longer has are
        listed in self.missing and their layer metrics read zero."""
        from graphsplice.errors import InvalidRuleError, NotApplicableError

        skips = {"splicing.sigma_pair": (InvalidRuleError, NotApplicableError)}
        for module_name, attr, name in wraps:
            module = _resolve(module_name)
            if module is not None and hasattr(module, attr):
                self.wrap(module, attr, name, skips.get(name, ()))
            else:
                self.missing.append(f"{module_name}.{attr}")
        return self

    def remove(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def summary(self, since: float | None = None) -> dict:
        """Per span name: calls, total (inclusive), self and max seconds.

        "root_s" sums the durations of parentless spans that start at or
        after `since`, so it is the part of a timed window the spans cover.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0}
               for name in self.names}
        root_s = 0.0
        for i in range(n):
            row = out[self.names[self.name_of[i]]]
            row["calls"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
            row["max_s"] = max(row["max_s"], dur[i])
            if self.parent[i] < 0 and (since is None or self.start[i] >= since):
                root_s += dur[i]
        return {"spans": out, "counts": dict(self.counts), "root_s": root_s,
                "missing": self.missing}

    def write(self, path) -> None:
        """Write every span as a tab-separated line: name start end parent."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_of[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\n")


def _count_sigma(counts, products):
    counts["splicing.products"] += len(products)


def _count_pair_check(counts, stats):
    counts["kernels.products"] += stats[1]


def _count_pair_products(counts, products):
    counts["kernels.products"] += len(products)


def _count_language(counts, result):
    counts["language.raw_products"] += sum(t.raw_products for t in result.trace)
    counts["language.new_classes"] += sum(t.new_classes for t in result.trace[1:])


def _count_instances(checker):
    key = f"analysis.{checker}.instances"

    def hook(counts, report):
        # the sweep returns its reports in a list; its first counts combos
        counts[key] += (report[0] if isinstance(report, list) else report).instances_checked
    return hook


_ON_RESULT = {
    "language": _count_language,
    "splicing.sigma_pair": _count_sigma,
    "kernels.splice_pair_check": _count_pair_check,
    "kernels.pair_products": _count_pair_products,
    **{f"analysis.{c}": _count_instances(c) for c in CHECKERS},
}


# name, unit, better, end-to-end metric it should move, workload it acts on
LAYER_METRICS = (
    ("graphs.canonical_form.calls", "count", "lower", "wall_ref", "lang-splice"),
    ("graphs.canonical_form.distinct", "count", "lower", "wall_ref", "lang-symmetric"),
    ("graphs.canonical_form.hit_ratio", "ratio", "higher", "wall_ref", "lang-splice"),
    ("graphs.canonical_form.miss_s", "s", "lower", "wall_ref", "lang-symmetric"),
    ("graphs.canonical_form.miss_s_max", "s", "lower", "wall_ref", "lang-symmetric"),
    ("graphs.canonical_form.self_s", "s", "lower", "wall_ref", "lang-splice"),
    ("cutting.cut.calls", "count", "lower", "wall_ref products_per_ref", "lang-splice"),
    ("cutting.cut.self_s", "s", "lower", "wall_ref products_per_ref", "lang-splice"),
    ("cutting.cuts_per_pair", "ratio", "lower", "wall_ref products_per_ref", "lang-splice"),
    ("splicing.sigma_pair.calls", "count", "lower", "wall_ref products_per_ref", "lang-splice"),
    ("splicing.sigma_pair.skipped", "count", "lower", "wall_ref products_per_ref", "lang-splice"),
    ("splicing.sigma_pair.self_s", "s", "lower", "wall_ref products_per_ref", "lang-splice"),
    ("splicing.join.calls", "count", "lower", "wall_ref products_per_ref", "lang-splice"),
    ("splicing.join.self_s", "s", "lower", "wall_ref products_per_ref", "lang-splice"),
    ("splicing.ns_per_product", "ns", "lower", "wall_ref products_per_ref", "lang-splice"),
    ("language.self_s", "s", "lower", "wall_ref", "lang-splice"),
    ("language.raw_products", "count", "lower", "wall_ref", "lang-splice"),
    ("language.new_classes", "count", "higher", "wall_ref", "lang-splice"),
    ("language.useful_ratio", "ratio", "higher", "wall_ref", "lang-splice"),
    ("kernels.prepare_graph.calls", "count", "lower", "wall_ref products_per_ref", "verify"),
    ("kernels.prepare_graph.self_s", "s", "lower", "wall_ref products_per_ref", "verify"),
    ("kernels.splice_pair_check.calls", "count", "lower", "wall_ref products_per_ref", "verify"),
    ("kernels.splice_pair_check.self_s", "s", "lower", "wall_ref products_per_ref", "verify"),
    ("kernels.pair_products.calls", "count", "lower", "wall_ref products_per_ref", "verify"),
    ("kernels.pair_products.self_s", "s", "lower", "wall_ref products_per_ref", "verify"),
    ("kernels.ns_per_product", "ns", "lower", "wall_ref products_per_ref", "verify"),
    *((f"analysis.{c}.{field}", unit, better, "wall_ref", "verify")
      for c in CHECKERS
      for field, unit, better in (("self_s", "s", "lower"),
                                  ("instances", "count", "higher"))),
    ("formats.parse_system.s", "s", "lower", "setup_s", "lang-splice lang-symmetric"),
    ("trace.overhead_s", "s", "lower", "-", "all"),
    ("trace.coverage", "ratio", "higher", "-", "all"),
)


def merge(summaries) -> dict:
    """Add up the summaries of several traced jobs."""
    spans: dict = {}
    counts: Counter = Counter()
    root_s = 0.0
    missing: set = set()
    for s in summaries:
        missing.update(s["missing"])
        for name, row in s["spans"].items():
            acc = spans.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0})
            acc["calls"] += row["calls"]
            acc["total_s"] += row["total_s"]
            acc["self_s"] += row["self_s"]
            acc["max_s"] = max(acc["max_s"], row["max_s"])
        counts.update(s["counts"])
        root_s += s["root_s"]
    return {"spans": spans, "counts": dict(counts), "root_s": root_s,
            "missing": sorted(missing)}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(summary: dict, traced_wall: float, untraced_wall: float) -> dict:
    """Every LAYER_METRICS value from a (merged) tracer summary."""
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0}

    def span(name):
        return summary["spans"].get(name, empty)

    counts = summary["counts"]
    canon, miss = span("graphs.canonical_form"), span("graphs.canonical_form.miss")
    sigma, cut = span("splicing.sigma_pair"), span("cutting.cut")
    kernel_names = ("prepare_graph", "splice_pair_check", "pair_products")
    kernel_s = sum(span(f"kernels.{k}")["self_s"] for k in kernel_names)
    raw = counts.get("language.raw_products", 0)
    new = counts.get("language.new_classes", 0)
    values = {
        "graphs.canonical_form.calls": canon["calls"],
        "graphs.canonical_form.distinct": miss["calls"],
        "graphs.canonical_form.hit_ratio": 1.0 - _ratio(miss["calls"], canon["calls"]),
        "graphs.canonical_form.miss_s": miss["total_s"],
        "graphs.canonical_form.miss_s_max": miss["max_s"],
        "graphs.canonical_form.self_s": canon["self_s"],
        "cutting.cut.calls": cut["calls"],
        "cutting.cut.self_s": cut["self_s"],
        "cutting.cuts_per_pair": _ratio(cut["calls"], sigma["calls"]),
        "splicing.sigma_pair.calls": sigma["calls"],
        "splicing.sigma_pair.skipped": counts.get("splicing.sigma_pair.skipped", 0),
        "splicing.sigma_pair.self_s": sigma["self_s"],
        "splicing.join.calls": span("splicing.join")["calls"],
        "splicing.join.self_s": span("splicing.join")["self_s"],
        "splicing.ns_per_product": 1e9 * _ratio(sigma["total_s"],
                                                counts.get("splicing.products", 0)),
        "language.self_s": span("language")["self_s"],
        "language.raw_products": raw,
        "language.new_classes": new,
        "language.useful_ratio": _ratio(new, raw),
        "kernels.ns_per_product": 1e9 * _ratio(kernel_s, counts.get("kernels.products", 0)),
        "formats.parse_system.s": span("formats.parse_system")["total_s"],
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.coverage": _ratio(summary["root_s"], traced_wall),
    }
    for k in kernel_names:
        values[f"kernels.{k}.calls"] = span(f"kernels.{k}")["calls"]
        values[f"kernels.{k}.self_s"] = span(f"kernels.{k}")["self_s"]
    for c in CHECKERS:
        values[f"analysis.{c}.self_s"] = span(f"analysis.{c}")["self_s"]
        values[f"analysis.{c}.instances"] = counts.get(f"analysis.{c}.instances", 0)
    return values
