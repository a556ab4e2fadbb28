"""Benchmark harness: leaf-ordering comparison, forest vs single-tree search,
scaling sweeps and update-cost measurements.

Visited-node counts are the primary statistic (machine independent and
reproducible bit-for-bit under a fixed seed); wall-clock times are reported
alongside.  Results are emitted as CSV files.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import forest as forest_mod, metrics, partitioning
from .corpus import Document, build_binary_indexes, build_dictionary, id_arrays, synthetic_corpus
from .engine import Pipeline, PipelineConfig, QuerySpec
from .errors import EncSearchError

# Index clusters whose leaf order the "grouped" tree of bench_tree_orders uses.
_ORDER_GROUPS = 4


@dataclass
class BenchmarkConfig:
    n_docs: int = 2000
    n_keywords: int = 2000
    n_owners: int = 20
    s: int = 4
    k: int = 10
    queries: int = 1000
    query_keywords: int = 10
    mean_len: int = 40
    zipf_a: float = 1.1
    sigma: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if min(self.n_docs, self.n_keywords, self.n_owners, self.s, self.k, self.queries) < 1:
            raise EncSearchError("all benchmark parameters must be positive")


@dataclass
class VariantStats:
    name: str
    mean_visited: float
    var_visited: float
    mean_time: float
    var_time: float
    visited: list[int] = field(repr=False, default_factory=list)


def _stats(name: str, visited: list[int], times: list[float]) -> VariantStats:
    return VariantStats(
        name,
        float(np.mean(visited)),
        float(np.var(visited)),
        float(np.mean(times)),
        float(np.var(times)),
        visited,
    )


def _corpus(config: BenchmarkConfig, n_docs: int, seed: int) -> list[Document]:
    return synthetic_corpus(
        n_docs, config.n_keywords, config.n_owners, seed=seed,
        mean_len=config.mean_len, zipf_a=config.zipf_a,
    )


def _plain_pipeline(docs: Sequence[Document], config: BenchmarkConfig, s: int) -> Pipeline:
    """An unencrypted s-partition pipeline: the benches count visited and
    touched nodes of the plaintext trees, which encryption does not change."""
    return Pipeline.build(
        docs, PipelineConfig(s=s, sigma=config.sigma, seed=config.seed, encrypt=False, zipf_a=config.zipf_a)
    )


def _write_csv(out_dir: str | Path | None, name: str, header: list[str], rows: list[list]) -> None:
    if out_dir is None:
        return
    with open(Path(out_dir) / name, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _single_query_vector(pipeline: Pipeline, query: QuerySpec) -> np.ndarray:
    real = pipeline.real_query_vectors(query.keywords)[0]
    alpha = (
        query.alphas[0]
        if query.alphas is not None
        else np.zeros(pipeline.noise[0].pseudo_count)
    )
    return np.concatenate([real, alpha])


def _run_tree(tree, qv: np.ndarray, k: int) -> tuple[int, float]:
    start = time.perf_counter()
    _, visited = forest_mod.gdfs(tree, qv, k)
    return visited, time.perf_counter() - start


def bench_tree_orders(
    config: BenchmarkConfig, out_dir: str | Path | None = None
) -> list[VariantStats]:
    """Compare single-tree search under three leaf orders: random, grouped by
    index cluster, and probe-score (maximum likelihood) order."""
    docs = _corpus(config, config.n_docs, config.seed)
    pipeline = _plain_pipeline(docs, config, 1)
    mlsb = pipeline.trees[0]
    ids, rows = mlsb.leaf_rows()

    shuffled = np.random.default_rng(config.seed + 1).permutation(len(ids))
    random_tree = forest_mod.build_tree(ids[shuffled], rows[shuffled], 0)

    dictionary = build_dictionary(docs)
    grouped_pset, _ = partitioning.cluster_indexes(
        build_binary_indexes(docs, dictionary), *id_arrays(docs), dictionary,
        min(_ORDER_GROUPS, config.n_docs), seed=config.seed + 2,
    )
    groups = np.array([grouped_pset.assignments[doc_id] for doc_id in ids.tolist()])
    grouped = np.lexsort((ids, groups))
    grouped_tree = forest_mod.build_tree(ids[grouped], rows[grouped], 0)

    queries = pipeline.sample_queries(
        config.queries, config.query_keywords, seed=config.seed + 3
    )
    variants = [("random", random_tree), ("grouped", grouped_tree), ("mlsb", mlsb)]
    stats = []
    for name, tree in variants:
        visited, times = [], []
        for q in queries:
            qv = _single_query_vector(pipeline, q)
            v, dt = _run_tree(tree, qv, config.k)
            visited.append(v)
            times.append(dt)
        stats.append(_stats(name, visited, times))

    _write_csv(
        out_dir, "fig4_tree_speed.csv",
        ["variant", "mean_visited", "var_visited", "mean_time_s", "var_time_s", "seed"],
        [[st.name, f"{st.mean_visited:.3f}", f"{st.var_visited:.3f}",
          f"{st.mean_time:.6e}", f"{st.var_time:.6e}", config.seed] for st in stats],
    )
    return stats


@dataclass
class ForestSpeedup:
    forest_visited: float      # mean visited nodes per query, all searched trees
    single_visited: float
    visited_ratio: float       # single / forest
    forest_time: float
    single_time: float
    time_ratio: float
    theoretical_eta: float


def bench_forest_speedup(
    config: BenchmarkConfig, out_dir: str | Path | None = None
) -> ForestSpeedup:
    """Forest search vs one tree over the whole corpus, on a cluster-coherent
    query workload (keywords drawn from one sub-dictionary per query)."""
    docs = _corpus(config, config.n_docs, config.seed)
    forest_pipe = _plain_pipeline(docs, config, config.s)
    single_pipe = _plain_pipeline(docs, config, 1)

    queries: list[QuerySpec] = []
    populated = [
        p for p in range(forest_pipe.s) if len(forest_pipe.pset.sub_dictionaries[p]) > 0
    ]
    per_part = -(-config.queries // len(populated))
    for p in populated:
        queries.extend(
            forest_pipe.sample_queries(
                per_part, config.query_keywords, seed=config.seed + 10 + p, partition=p
            )
        )
    queries = queries[: config.queries]

    f_visited, f_times, s_visited, s_times = [], [], [], []
    for q in queries:
        real = forest_pipe.real_query_vectors(q.keywords)
        selected = forest_pipe.select_partitions(q.keywords, None)
        vecs = {
            p: np.concatenate([real[p], np.zeros(forest_pipe.noise[p].pseudo_count)])
            for p in selected
        }
        start = time.perf_counter()
        _, visits = forest_mod.search_forest(forest_pipe.trees, vecs, config.k)
        f_times.append(time.perf_counter() - start)
        f_visited.append(sum(visits.values()))

        qv = _single_query_vector(single_pipe, QuerySpec(q.keywords, None))
        v, dt = _run_tree(single_pipe.trees[0], qv, config.k)
        s_visited.append(v)
        s_times.append(dt)

    result = ForestSpeedup(
        forest_visited=float(np.mean(f_visited)),
        single_visited=float(np.mean(s_visited)),
        visited_ratio=float(np.mean(s_visited) / np.mean(f_visited)),
        forest_time=float(np.mean(f_times)),
        single_time=float(np.mean(s_times)),
        time_ratio=float(np.mean(s_times) / np.mean(f_times)),
        theoretical_eta=metrics.efficiency_ratio(config.n_docs, config.s),
    )
    _write_csv(
        out_dir, "fig4_forest_speed.csv",
        ["variant", "mean_visited", "mean_time_s", "visited_ratio", "time_ratio", "eta", "seed"],
        [["forest", f"{result.forest_visited:.3f}", f"{result.forest_time:.6e}",
          f"{result.visited_ratio:.3f}", f"{result.time_ratio:.3f}",
          f"{result.theoretical_eta:.2f}", config.seed],
         ["single_tree", f"{result.single_visited:.3f}", f"{result.single_time:.6e}",
          "", "", "", config.seed]],
    )
    return result


def bench_scaling(
    base: BenchmarkConfig,
    sizes: Sequence[int],
    out_dir: str | Path | None = None,
) -> list[dict]:
    """Search cost of forest vs single tree as the corpus grows."""
    rows = []
    for n in sizes:
        sp = bench_forest_speedup(replace(base, n_docs=n, queries=min(base.queries, 200)))
        rows.append(
            {
                "n_docs": n,
                "forest_visited": sp.forest_visited,
                "single_visited": sp.single_visited,
                "forest_time_s": sp.forest_time,
                "single_time_s": sp.single_time,
            }
        )
    _write_csv(out_dir, "fig5_scaling.csv", list(rows[0]), [list(r.values()) for r in rows])
    return rows


@dataclass
class UpdateBench:
    forest_mean_touched: float
    single_mean_touched: float
    per_update_ratio: float        # forest / single, measured
    theoretical_per_update: float  # log2(N/s) / log2(N)
    amortized_all_partitions: float  # the (2/s) * log(N/s) / (2 * log N) reading


def bench_update(
    config: BenchmarkConfig, inserts: int = 50, out_dir: str | Path | None = None
) -> UpdateBench:
    """Touched-node counts for insertions into the forest vs a single tree."""
    docs = _corpus(config, config.n_docs, config.seed)
    forest_pipe = _plain_pipeline(docs, config, config.s)
    single_pipe = _plain_pipeline(docs, config, 1)
    new_docs = _corpus(config, inserts, config.seed + 99)
    f_touched, s_touched = [], []
    for i, nd in enumerate(new_docs):
        doc = Document(1_000_000 + i, nd.owner_id, nd.counts)
        f_touched.append(forest_pipe.insert_document(doc).touched_nodes)
        s_touched.append(single_pipe.insert_document(doc).touched_nodes)

    n, s = config.n_docs, config.s
    theoretical = np.log2(n / s) / np.log2(n)
    result = UpdateBench(
        forest_mean_touched=float(np.mean(f_touched)),
        single_mean_touched=float(np.mean(s_touched)),
        per_update_ratio=float(np.mean(f_touched) / np.mean(s_touched)),
        theoretical_per_update=float(theoretical),
        amortized_all_partitions=float((2.0 / s) * np.log2(n / s) / (2.0 * np.log2(n))),
    )
    _write_csv(
        out_dir, "update_cost.csv",
        ["forest_mean_touched", "single_mean_touched", "per_update_ratio",
         "theoretical_per_update", "amortized_all_partitions", "seed"],
        [[f"{result.forest_mean_touched:.2f}", f"{result.single_mean_touched:.2f}",
          f"{result.per_update_ratio:.4f}", f"{result.theoretical_per_update:.4f}",
          f"{result.amortized_all_partitions:.4f}", config.seed]],
    )
    return result
