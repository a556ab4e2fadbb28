import numpy as np
import pytest

from encsearch import benchmarks
from encsearch.benchmarks import (
    BenchmarkConfig,
    bench_forest_speedup,
    bench_scaling,
    bench_tree_orders,
    bench_update,
)
from encsearch.errors import EncSearchError


def small_config(**overrides):
    base = dict(
        n_docs=60, n_keywords=120, n_owners=4, s=2, k=5,
        queries=20, query_keywords=4, seed=0,
    )
    base.update(overrides)
    return BenchmarkConfig(**base)


def test_config_validation():
    with pytest.raises(EncSearchError):
        BenchmarkConfig(n_docs=0)
    with pytest.raises(EncSearchError):
        BenchmarkConfig(queries=-1)
    for seed in (-1, True, 1.5):
        with pytest.raises(EncSearchError, match="seed must be a non-negative integer"):
            BenchmarkConfig(seed=seed)


class TestTreeOrders:
    def test_smoke_and_csv(self, tmp_path):
        stats = bench_tree_orders(small_config(), tmp_path)
        assert [st.name for st in stats] == ["random", "grouped", "mlsb"]
        for st in stats:
            assert len(st.visited) == 20
            assert st.mean_visited == pytest.approx(np.mean(st.visited))
            assert st.var_visited == pytest.approx(np.var(st.visited))
            assert min(st.visited) >= 1
        lines = (tmp_path / "fig4_tree_speed.csv").read_text().strip().splitlines()
        assert lines[0].startswith("variant,mean_visited")
        assert len(lines) == 4

    def test_visited_deterministic(self):
        a = bench_tree_orders(small_config())
        b = bench_tree_orders(small_config())
        for sa, sb in zip(a, b):
            assert sa.visited == sb.visited


class TestForestSpeedup:
    def test_smoke_and_csv(self, tmp_path):
        sp = bench_forest_speedup(small_config(), tmp_path)
        assert sp.forest_visited > 0 and sp.single_visited > 0
        assert sp.visited_ratio == pytest.approx(sp.single_visited / sp.forest_visited)
        assert sp.theoretical_eta > 1
        lines = (tmp_path / "fig4_forest_speed.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("forest,")
        assert lines[2].startswith("single_tree,")


def test_scaling_rows_and_csv(tmp_path):
    rows = bench_scaling(small_config(), [40, 80], tmp_path)
    assert [r["n_docs"] for r in rows] == [40, 80]
    for r in rows:
        assert r["forest_visited"] > 0 and r["single_visited"] > 0
    lines = (tmp_path / "fig5_scaling.csv").read_text().strip().splitlines()
    assert lines[0] == "n_docs,forest_visited,single_visited,forest_time_s,single_time_s"
    assert len(lines) == 3


def test_scaling_keeps_base_corpus_shape(monkeypatch):
    seen = []
    real = benchmarks.bench_forest_speedup
    monkeypatch.setattr(benchmarks, "bench_forest_speedup", lambda cfg: seen.append(cfg) or real(cfg))
    bench_scaling(small_config(mean_len=25, zipf_a=2.0), [40, 80])
    assert [(c.n_docs, c.queries, c.mean_len, c.zipf_a) for c in seen] == [(40, 20, 25, 2.0), (80, 20, 25, 2.0)]


def test_update_bench(tmp_path):
    ub = bench_update(small_config(), inserts=10, out_dir=tmp_path)
    # With s partitions each tree is smaller, so a single insert touches
    # no more nodes on average than in the one big tree.
    assert ub.forest_mean_touched >= 2
    assert ub.single_mean_touched >= 2
    assert 0 < ub.theoretical_per_update < 1
    assert ub.amortized_all_partitions < ub.theoretical_per_update
    lines = (tmp_path / "update_cost.csv").read_text().strip().splitlines()
    assert lines[0].startswith("forest_mean_touched,")
    assert len(lines) == 2
