"""Span tracing around calls into the public functions of each encsearch layer.

The hooks live here, not in the package: ``install`` replaces module and class
attributes with timing wrappers and ``uninstall`` puts the originals back.
Spans are kept in memory and written out by ``write``.  A span records its
name, start, end, parent span and the id of the benchmark operation (one
``Pipeline.build``, ``save``, ``load``, ``query``, ``insert_document`` or
``delete_document`` call) it belongs to.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import mean, median

from encsearch import aspe, engine, forest, padding, partitioning, weighting


@dataclass
class Span:
    id: int
    op: int          # id of the enclosing benchmark operation; 0 outside one
    kind: str        # kind of that operation ("build", "query", ...)
    name: str
    parent: int      # id of the enclosing span; 0 for an operation span
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, kind: str | None = None):
        """Open a span.  With ``kind`` it starts a new benchmark operation."""
        parent = self._stack[-1] if self._stack else None
        if kind is not None:
            op, parent_id = len(self.spans) + 1, 0
        else:
            op = parent.op if parent else 0
            kind = parent.kind if parent else ""
            parent_id = parent.id if parent else 0
        sp = Span(len(self.spans) + 1, op, kind, name, parent_id, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Time every call of ``owner.attr``; ``count(args, kwargs, result)``
        may return a dict of counts to keep on the span."""
        original = getattr(owner, attr)

        def timed(*args, **kwargs):
            with self.span(name) as sp:
                result = original(*args, **kwargs)
                if count is not None:
                    sp.counts.update(count(args, kwargs, result))
                return result

        self._undo.append((owner, attr, original))
        setattr(owner, attr, timed)

    def install(self) -> None:
        w = self.wrap
        # engine imports these two by name.
        w(engine, "build_dictionary", "corpus.build_dictionary")
        w(engine, "build_binary_indexes", "corpus.build_binary_indexes")
        self._wrap_cluster_indexes()
        w(partitioning, "global_cluster", "partitioning.global_cluster")
        w(partitioning, "segment_dictionary", "partitioning.segment_dictionary")
        w(weighting, "build_correlativity", "weighting.build_correlativity")
        for fn in ("compute_weights", "weight_indexes", "weighted_matrix"):
            w(weighting, fn, "weighting.weights")
        w(padding, "pad_matrix", "padding.pad_matrix")
        w(aspe, "keygen", "aspe.keygen")
        # forest imports encrypt_matrix by name; engine reaches the rest of
        # aspe and forest through the module objects.
        w(forest, "encrypt_matrix", "aspe.encrypt_matrix",
          lambda a, k, r: {"rows": int(a[0].shape[0])})
        w(aspe, "make_trapdoor", "aspe.make_trapdoor",
          lambda a, k, r: {"bytes": int(r.t1.nbytes + r.t2.nbytes)})
        w(forest, "probe_aggregate", "forest.probe_order")
        w(forest, "order_by_likelihood", "forest.probe_order")
        w(forest, "build_tree", "forest.build_tree")
        w(forest, "encrypt_tree", "forest.encrypt_tree")
        # search_forest looks gdfs up as a module global, so this catches
        # every per-tree search.
        w(forest, "gdfs", "forest.gdfs",
          lambda a, k, r: {"visited": r[1], "nodes": 2 * len(a[0].leaves) - 1})
        w(forest, "search_forest", "forest.search_forest")
        w(forest, "insert_leaf", "forest.insert_leaf")
        w(forest, "delete_leaf", "forest.delete_leaf")
        w(forest, "rebuild_tree", "forest.rebuild_tree")
        w(forest, "save_forest", "forest.save_forest")
        w(forest, "load_forest", "forest.load_forest")
        w(engine.Pipeline, "select_partitions", "engine.select_partitions")
        w(engine.Server, "search", "engine.server_search")

    def _wrap_cluster_indexes(self) -> None:
        # local_split is bound as the default ``splitter`` of cluster_indexes,
        # so replacing partitioning.local_split would miss it: hand a timed
        # splitter to a wrapped cluster_indexes instead.
        original_split = partitioning.local_split

        def timed_split(owner_indexes):
            with self.span("partitioning.local_split"):
                return original_split(owner_indexes)

        original = partitioning.cluster_indexes

        def cluster_indexes(*args, **kwargs):
            kwargs["splitter"] = timed_split
            return original(*args, **kwargs)

        self._undo.append((partitioning, "cluster_indexes", original))
        partitioning.cluster_indexes = cluster_indexes

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: Path, summary: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"summary": summary, "spans": [asdict(s) for s in self.spans]}
        path.write_text(json.dumps(payload))


# ---------------------------------------------------------------------------
# Per-layer metrics.

# Operation kinds each workload times.  A metric names one or more groups of
# operation kinds; it is taken over the first group the workload times, or
# else over the first group's set-up or probe operations.
PRIMARY_KINDS = {
    "build": {"build", "save", "load"},
    "query": {"query"},
    "update": {"insert", "delete"},
}

_UNITS = {"s": 1.0, "ms": 1e3}


def _self_time(span: Span, children: list[Span]) -> float:
    """Duration minus the union of the children's intervals."""
    covered, cursor = 0.0, span.start
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, cursor), min(c.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (span.end - span.start) - covered


def layer_metrics(tracer: Tracer, workload: str, server_trees) -> dict:
    """Every per-layer metric, each reduced over the operations it is about."""
    ops: dict[int, Span] = {}
    by_op: dict[int, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for sp in tracer.spans:
        if sp.parent == 0 and sp.op == sp.id:
            ops[sp.id] = sp
        elif sp.op:
            by_op.setdefault(sp.op, []).append(sp)
            children.setdefault(sp.parent, []).append(sp)

    out: dict[str, dict] = {}

    def op_values(kinds, per_op) -> list[float]:
        groups = kinds if isinstance(kinds, tuple) else (kinds,)
        chosen = next((g for g in groups if g & PRIMARY_KINDS[workload]), groups[0])
        return [per_op(op, by_op.get(op.id, [])) for op in ops.values() if op.kind in chosen]

    def total(names: tuple[str, ...], scale: float = 1.0, self_time: bool = False):
        def per_op(op, spans):
            return scale * sum(
                _self_time(s, children.get(s.id, [])) if self_time else s.end - s.start
                for s in spans
                if s.name in names
            )
        return per_op

    def counted(name: str, key: str):
        return lambda op, spans: sum(s.counts.get(key, 0) for s in spans if s.name == name)

    def reduce(values: list[float], how=median) -> float:
        return float(how(values)) if values else 0.0

    def timing(metric: str, kinds, names: tuple[str, ...], self_time=False):
        unit = metric.rsplit("_", 1)[1]
        vals = op_values(kinds, total(names, _UNITS[unit], self_time))
        out[metric] = {"value": reduce(vals), "unit": unit}

    update = {"insert", "delete"}
    timing("corpus.index_s", {"build"}, ("corpus.build_dictionary", "corpus.build_binary_indexes"))
    timing("partitioning.local_split_s", {"build"}, ("partitioning.local_split",))
    timing("partitioning.global_cluster_s", {"build"}, ("partitioning.global_cluster",))
    timing("partitioning.segment_s", {"build"}, ("partitioning.segment_dictionary",))
    leaves = [len(t.leaves) for t in server_trees]
    out["partitioning.max_over_mean_leaves"] = {
        "value": max(leaves) / mean(leaves), "unit": "ratio"}
    timing("weighting.correlativity_s", {"build"}, ("weighting.build_correlativity",))
    timing("weighting.weights_s", {"build"}, ("weighting.weights",))
    timing("padding.pad_s", {"build"}, ("padding.pad_matrix",))
    timing("aspe.keygen_s", {"build"}, ("aspe.keygen",))
    timing("aspe.encrypt_s", ({"build"}, update), ("aspe.encrypt_matrix",))
    out["aspe.encrypted_rows_per_update"] = {
        "value": reduce(op_values(update, counted("aspe.encrypt_matrix", "rows")), mean),
        "unit": "count"}
    timing("aspe.trapdoor_ms", {"query"}, ("aspe.make_trapdoor",))
    out["aspe.trapdoor_bytes"] = {
        "value": reduce(op_values({"query"}, counted("aspe.make_trapdoor", "bytes")), mean),
        "unit": "B"}
    timing("forest.probe_order_s", {"build"}, ("forest.probe_order",))
    timing("forest.build_tree_s", {"build"}, ("forest.build_tree",))
    timing("forest.encrypt_tree_self_s", ({"build"}, update), ("forest.encrypt_tree",), True)
    timing("forest.gdfs_ms", {"query"}, ("forest.gdfs",))
    visited = op_values({"query"}, counted("forest.gdfs", "visited"))
    nodes = op_values({"query"}, counted("forest.gdfs", "nodes"))
    out["forest.visited_per_query"] = {"value": reduce(visited, mean), "unit": "count"}
    out["forest.visited_ratio"] = {
        "value": sum(visited) / sum(nodes) if nodes else 0.0, "unit": "ratio"}
    timing("forest.merge_ms", {"query"}, ("forest.search_forest",), True)
    timing("forest.insert_leaf_ms", {"insert"}, ("forest.insert_leaf",))
    timing("forest.delete_leaf_ms", {"delete"}, ("forest.delete_leaf",))
    out["forest.touched_per_update"] = {
        "value": reduce(op_values(update, lambda op, spans: op.counts.get("touched", 0)), mean),
        "unit": "count"}
    out["forest.rebuilds"] = {
        "value": sum(op_values(update, lambda op, spans: sum(
            s.name == "forest.rebuild_tree" for s in spans))),
        "unit": "count"}
    timing("forest.save_s", {"save"}, ("forest.save_forest",))
    timing("forest.load_s", {"load"}, ("forest.load_forest",))
    timing("engine.select_ms", {"query"}, ("engine.select_partitions",))
    timing("engine.server_search_ms", {"query"}, ("engine.server_search",))

    def op_self(scale: float):
        return lambda op, spans: scale * _self_time(op, children.get(op.id, []))

    out["engine.update_self_ms"] = {"value": reduce(op_values(update, op_self(1e3))), "unit": "ms"}
    out["engine.save_self_s"] = {"value": reduce(op_values({"save"}, op_self(1.0))), "unit": "s"}
    out["engine.load_self_s"] = {"value": reduce(op_values({"load"}, op_self(1.0))), "unit": "s"}
    return out

