import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from encsearch.aspe import keygen, make_trapdoor
from encsearch.corpus import synthetic_corpus
from encsearch.engine import Pipeline, PipelineConfig
from encsearch.errors import ForestError
from encsearch import forest
from encsearch.forest import (
    ProbeConfig,
    Tree,
    build_tree,
    delete_leaf,
    encrypt_tree,
    gdfs,
    insert_leaf,
    load_forest,
    order_by_likelihood,
    probe_aggregate,
    rebuild_tree,
    round_score,
    save_forest,
    search_forest,
    _insert_rank,
    _probe_scores,
)


def random_rows(n, dim, seed=0):
    """Doc ids 0..n-1 and their (n, dim) rows."""
    return np.arange(n), np.random.default_rng(seed).random((n, dim))


def ordered_tree(ids, rows, probe, **kwargs):
    """A tree of the rows in likelihood order under ``probe``."""
    order = order_by_likelihood(ids, rows, probe)
    return build_tree(ids[order], rows[order], probe=probe, **kwargs)


def brute_force_topk(ids, rows, query, k):
    """Oracle: full scan with the (-score, doc_id) tie rule."""
    scored = [(round_score(row @ query), doc_id) for doc_id, row in zip(ids.tolist(), rows)]
    scored.sort(key=lambda t: (-t[0], t[1]))
    return [(doc_id, s) for s, doc_id in scored[:k]]


class TestOrdering:
    def test_all_ones_probe_sorts_by_sum(self):
        ids = np.array([0, 1, 2])
        order = order_by_likelihood(ids, np.array([[1.0, 1.0], [3.0, 0.0], [0.5, 0.5]]), np.ones(2))
        assert ids[order].tolist() == [1, 0, 2]

    def test_ties_by_doc_id(self):
        ids = np.array([5, 2, 9])
        order = order_by_likelihood(ids, np.array([[1.0], [1.0], [2.0]]), np.ones(1))
        assert ids[order].tolist() == [9, 2, 5]

    def test_matches_sort_oracle(self):
        ids, rows = random_rows(30, 6, seed=3)
        probe = np.abs(np.random.default_rng(1).normal(size=6))
        order = order_by_likelihood(ids, rows, probe)
        want = sorted(ids.tolist(), key=lambda d: (-float(rows[d] @ probe), d))
        assert ids[order].tolist() == want

    def test_probe_aggregate_shape_and_pseudo_zero(self):
        agg = probe_aggregate(5, 8, np.arange(5, dtype=float), ProbeConfig(count=50, seed=1))
        assert agg.shape == (8,)
        assert not agg[5:].any()
        assert (agg[:5] >= 0).all() and agg[:5].sum() > 0

    def test_probe_aggregate_deterministic(self):
        cfg = ProbeConfig(count=20, seed=4)
        pop = np.arange(6, dtype=float)
        np.testing.assert_array_equal(
            probe_aggregate(6, 6, pop, cfg), probe_aggregate(6, 6, pop, cfg)
        )

    def test_probe_count_error(self):
        with pytest.raises(ForestError):
            probe_aggregate(3, 3, np.ones(3), ProbeConfig(count=0))


# Small integer cells: scores tie often, and exactly.
CELLS = st.integers(0, 3)


@st.composite
def ids_rows_probe(draw, max_rows=40):
    """Unique doc ids, their (m, dim) rows for m = 0..max_rows, and a probe."""
    dim = draw(st.integers(1, 4), label="dim")
    ids = draw(st.lists(st.integers(0, 10_000), max_size=max_rows, unique=True), label="ids")
    vector = st.lists(CELLS, min_size=dim, max_size=dim)
    rows = draw(st.lists(vector, min_size=len(ids), max_size=len(ids)), label="rows")
    probe = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=dim, max_size=dim))
    return (
        np.array(ids, dtype=np.int64),
        np.array(rows, dtype=np.float64).reshape(len(ids), dim),
        np.array(probe),
    )


class TestRowArrays:
    @settings(max_examples=150, deadline=None)
    @given(case=ids_rows_probe())
    def test_order_and_build(self, case):
        """The order is a sort by (-probe score, doc id), a bulk load keeps
        it in its leaves, every internal row is the max of its children, and
        the search is exact; with no rows the tree is empty and searches
        nothing."""
        ids, rows, probe = case
        order = order_by_likelihood(ids, rows, probe)
        want = sorted(range(len(ids)), key=lambda i: (-float(rows[i] @ probe), int(ids[i])))
        assert order.tolist() == want
        tree = build_tree(ids[order], rows[order], 2, probe)
        assert tree.leaves.tolist() == ids[order].tolist()
        leaf_ids, leaf_rows = tree.leaf_rows()
        np.testing.assert_array_equal(leaf_ids, ids[order])
        np.testing.assert_array_equal(leaf_rows, rows[order])
        assert tree.nodes.shape == (max(2 * len(ids) - 1, 0), rows.shape[1])
        assert tree.size_at_build == len(ids) and tree.partition == 2
        right = tree.right_children()
        for i in np.flatnonzero(tree.doc_ids < 0).tolist():
            np.testing.assert_array_equal(
                tree.nodes[i], np.maximum(tree.nodes[i + 1], tree.nodes[right[i]])
            )
        got, visited = gdfs(tree, probe, 5)
        assert got == brute_force_topk(ids, rows, probe, 5)
        assert (visited == 0) == (len(ids) == 0)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_rebuild_is_build_of_ordered_leaf_rows(self, data):
        """From leaves in any order, after random inserts and deletes, also
        through an empty tree, a rebuild equals a bulk load of the live rows
        in likelihood order."""
        ids, rows, probe = data.draw(ids_rows_probe(max_rows=12))
        config = ProbeConfig(count=7, seed=3)
        tree = build_tree(ids, rows, 1, probe, config)
        live = dict(zip(ids.tolist(), rows))
        vector = st.lists(CELLS, min_size=len(probe), max_size=len(probe))
        for _ in range(data.draw(st.integers(0, 16), label="updates")):
            if live and data.draw(st.booleans(), label="delete"):
                victim = data.draw(st.sampled_from(sorted(live)), label="victim")
                delete_leaf(tree, victim)
                del live[victim]
            else:
                new_id = data.draw(st.integers(0, 10_000).filter(lambda d: d not in live))
                vec = np.array(data.draw(vector, label="vec"), dtype=np.float64)
                insert_leaf(tree, new_id, vec)
                live[new_id] = vec
        rebuilt = rebuild_tree(tree)
        live_ids = np.array(sorted(live), dtype=np.int64)
        live_rows = np.array([live[d] for d in live_ids.tolist()]).reshape(len(live), len(probe))
        want = ordered_tree(live_ids, live_rows, probe, partition=1, probe_config=config)
        np.testing.assert_array_equal(rebuilt.doc_ids, want.doc_ids)
        np.testing.assert_array_equal(rebuilt.nodes, want.nodes)
        assert rebuilt.size_at_build == want.size_at_build == len(live)
        assert (rebuilt.partition, rebuilt.probe_config) == (1, config)
        assert rebuilt.probe is probe


class TestBuildTree:
    def test_single_leaf(self):
        tree = build_tree([7], np.array([[1.0, 2.0]]))
        assert tree.doc_ids.tolist() == [7]
        assert tree.depth() == 0

    def test_unit_basis_root_is_all_ones(self):
        tree = build_tree(np.arange(4), np.eye(4))
        np.testing.assert_array_equal(tree.nodes[0], np.ones(4))
        assert len(tree.doc_ids) == 7
        assert tree.depth() == 2

    def test_odd_promotion(self):
        # 3 leaves: pair (0, 1), promote 2; root pairs that with leaf 2.
        tree = build_tree(np.arange(3), np.repeat([[1.0], [2.0], [3.0]], 2, axis=1))
        assert tree.depth() == 2
        assert tree.doc_ids[tree.right_children()[0]] == 2
        assert tree.doc_ids[1] == -1  # the root's left child is internal

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 17, 64, 100])
    def test_depth_bound_and_leaf_order(self, m):
        ids, rows = random_rows(m, 3, seed=m)
        tree = build_tree(ids, rows)
        assert tree.depth() <= int(np.ceil(np.log2(m))) + 1 if m > 1 else tree.depth() == 0
        assert tree.leaves.tolist() == ids.tolist()
        assert len(tree.doc_ids) == 2 * m - 1

    def test_internal_bound_soundness(self):
        # Every internal vector dominates every descendant leaf elementwise,
        # so for a non-negative query the internal score is an upper bound.
        tree = build_tree(*random_rows(25, 5, seed=9))
        right = tree.right_children()

        def check(i):
            if tree.doc_ids[i] >= 0:
                return [tree.nodes[i]]
            below = check(i + 1) + check(right[i])
            for v in below:
                assert (tree.nodes[i] >= v - 1e-12).all()
            return below

        assert len(check(0)) == 25

    def test_empty_tree(self):
        """No rows give an empty tree of the rows' width, which searches
        nothing and takes an insert."""
        probe = np.ones(3)
        tree = build_tree(np.zeros(0, dtype=np.int64), np.zeros((0, 3)), 4, probe)
        assert tree.doc_ids.shape == (0,) and tree.nodes.shape == (0, 3)
        assert (tree.partition, tree.size_at_build) == (4, 0)
        assert gdfs(tree, probe, 5) == ([], 0)
        assert insert_leaf(tree, 6, np.array([1.0, 0.0, 2.0])) == (1, False)
        assert gdfs(tree, probe, 5) == ([(6, 3.0)], 1)

    def test_ids_must_match_rows(self):
        with pytest.raises(ForestError, match="2 doc ids for 3 rows"):
            build_tree([0, 1], np.ones((3, 2)))

    def test_negative_doc_id_rejected(self):
        # -1 marks internal nodes in the preorder doc_ids array.
        with pytest.raises(ForestError, match="non-negative"):
            build_tree([-1], np.ones((1, 2)))
        tree = build_tree([0], np.ones((1, 2)))
        with pytest.raises(ForestError, match="non-negative"):
            insert_leaf(tree, -1, np.ones(2))


class TestGdfs:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_matches_brute_force(self, seed, k):
        ids, rows = random_rows(40, 6, seed=seed)
        tree = build_tree(ids, rows)
        query = np.abs(np.random.default_rng(seed + 100).normal(size=6))
        got, visited = gdfs(tree, query, k)
        assert got == brute_force_topk(ids, rows, query, k)
        assert 1 <= visited <= len(tree.doc_ids)

    def test_zero_query_returns_lowest_doc_ids(self):
        tree = build_tree(*random_rows(12, 4, seed=5))
        got, _ = gdfs(tree, np.zeros(4), 3)
        assert [d for d, _ in got] == [0, 1, 2]

    def test_quota_larger_than_tree(self):
        ids, rows = random_rows(4, 3, seed=1)
        tree = build_tree(ids, rows)
        query = np.ones(3)
        got, _ = gdfs(tree, query, 10)
        assert len(got) == 4
        assert got == brute_force_topk(ids, rows, query, 4)

    def test_quota_error(self):
        tree = build_tree(*random_rows(2, 2))
        with pytest.raises(ForestError):
            gdfs(tree, np.ones(2), 0)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_exactness_property(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 64))
        dim = int(rng.integers(1, 8))
        ids, rows = np.arange(m), rng.random((m, dim))
        probe = np.abs(rng.normal(size=dim))
        tree = ordered_tree(ids, rows, probe)
        query = np.abs(rng.normal(size=dim)) * rng.integers(0, 2, size=dim)
        k = int(rng.integers(1, m + 1))
        got, _ = gdfs(tree, query, k)
        assert got == brute_force_topk(ids, rows, query, k)


class TestSearchForest:
    def make_forest(self, seed=0):
        """Three trees of ids 0.., 100.., 200..; also all ids and rows."""
        rng = np.random.default_rng(seed)
        trees, ids, rows = [], [], []
        for p in range(3):
            ids.append(100 * p + np.arange(10 + p))
            rows.append(rng.random((10 + p, 4)))
            trees.append(build_tree(ids[p], rows[p], partition=p))
        return trees, np.concatenate(ids), np.concatenate(rows)

    def test_merge_matches_global_oracle(self):
        trees, ids, rows = self.make_forest()
        query = np.abs(np.random.default_rng(7).normal(size=4))
        queries = {p: query for p in range(3)}
        got, visits = search_forest(trees, queries, k=8, quota=8)
        assert got == brute_force_topk(ids, rows, query, 8)
        assert set(visits) == {0, 1, 2}

    def test_selected_subset(self):
        trees, ids, rows = self.make_forest()
        query = np.ones(4)
        got, visits = search_forest(trees, {1: query}, k=5, quota=5)
        in_tree = (100 <= ids) & (ids < 200)
        assert got == brute_force_topk(ids[in_tree], rows[in_tree], query, 5)
        assert set(visits) == {1}

    def test_default_quota_is_ceil_k_over_t(self):
        trees, _, _ = self.make_forest()
        queries = {p: np.ones(4) for p in range(3)}
        got, _ = search_forest(trees, queries, k=7)  # quota ceil(7/3)=3 per tree
        assert len(got) == 7

    def test_errors(self):
        trees, _, _ = self.make_forest()
        queries = {p: np.ones(4) for p in range(3)}
        with pytest.raises(ForestError, match="k must be"):
            search_forest(trees, queries, k=0)
        with pytest.raises(ForestError, match="no index partitions selected"):
            search_forest(trees, {}, k=3)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_searches_exactly_the_mapped_trees(self, data):
        """Random small forests with small integer entries, so scores tie
        often and exactly.  Searching a random non-empty subset of the trees,
        named in random order, gives the brute-force top-k of each searched
        tree under the quota ceil(k/t), merged by the doc-id tie rule, and
        visits exactly those trees in ascending order."""
        dim = data.draw(st.integers(1, 4), label="dim")
        cells = st.lists(CELLS, min_size=dim, max_size=dim)
        trees, parts = [], []
        for p in range(data.draw(st.integers(1, 4), label="trees")):
            rows = np.array(data.draw(st.lists(cells, min_size=1, max_size=8), label=f"rows{p}"),
                            dtype=np.float64)
            ids = 100 * p + np.arange(len(rows))
            trees.append(build_tree(ids, rows, partition=p))
            parts.append((ids, rows))
        chosen = data.draw(
            st.lists(st.integers(0, len(trees) - 1), min_size=1, unique=True), label="chosen"
        )
        queries = {p: np.array(data.draw(cells), dtype=np.float64) for p in chosen}
        k = data.draw(st.integers(1, 12), label="k")
        got, visits = search_forest(trees, queries, k)
        quota = -(-k // len(chosen))
        merged = [e for p in chosen for e in brute_force_topk(*parts[p], queries[p], quota)]
        assert got == sorted(merged, key=lambda e: (-e[1], e[0]))[:k]
        assert list(visits) == sorted(chosen)


class TestEncryptedTree:
    def test_shape_preserved_and_results_match(self):
        tree = build_tree(*random_rows(20, 5, seed=11))
        key = keygen([5], seed=2)[0]
        rng = np.random.default_rng(3)
        enc = encrypt_tree(tree, key, rng)
        assert enc.encrypted
        assert enc.doc_ids is tree.doc_ids
        query = np.abs(np.random.default_rng(5).normal(size=5))
        trap = make_trapdoor(query, key, rng)
        plain, _ = gdfs(tree, query, 6)
        cipher, _ = gdfs(enc, trap, 6)
        assert [d for d, _ in cipher] == [d for d, _ in plain]
        for (_, a), (_, b) in zip(plain, cipher):
            assert a == pytest.approx(b, abs=1e-6)

    def test_query_kind_must_match_tree(self):
        tree = build_tree(*random_rows(4, 3))
        key = keygen([3], seed=0)[0]
        rng = np.random.default_rng(0)
        enc = encrypt_tree(tree, key, rng)
        with pytest.raises(ForestError, match="trapdoor"):
            gdfs(enc, np.ones(3), 2)
        with pytest.raises(ForestError, match="trapdoor"):
            gdfs(tree, make_trapdoor(np.ones(3), key, rng), 2)

    def test_dim_mismatch(self):
        tree = build_tree(*random_rows(4, 3))
        key = keygen([5], seed=0)[0]
        with pytest.raises(ForestError, match="dimension"):
            encrypt_tree(tree, key, np.random.default_rng(0))


def scanned_rank(tree, doc_id, vec):
    """The insert position as a scan of every leaf finds it: the index of the
    first leaf ranking after the new one by (-probe score, doc id)."""
    leaf_at = np.flatnonzero(tree.doc_ids >= 0)
    ids = tree.doc_ids[leaf_at]
    scores = np.array([float(tree.nodes[i] @ tree.probe) for i in leaf_at.tolist()])
    score = float(vec @ tree.probe)
    later = np.flatnonzero((scores < score) | ((scores == score) & (ids > doc_id)))
    return int(later[0]) if len(later) else len(ids)


class TestInsertDelete:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_bisection_places_like_a_full_scan(self, data):
        """On likelihood-ordered trees, also ones whose rows repeat a few
        vectors so that scores tie everywhere, and through random inserts
        and deletes, the bisection picks the leaf a full scan picks, and the
        leaves stay in likelihood order."""
        ids, rows, probe = data.draw(ids_rows_probe(max_rows=24))
        vector = st.lists(CELLS, min_size=len(probe), max_size=len(probe))
        few = data.draw(st.lists(vector, min_size=1, max_size=3), label="few")
        if data.draw(st.booleans(), label="tie-heavy"):
            pick = data.draw(st.lists(st.sampled_from(range(len(few))), min_size=len(ids),
                                      max_size=len(ids)), label="pick")
            rows = np.array([few[j] for j in pick], dtype=np.float64).reshape(rows.shape)
        tree = ordered_tree(ids, rows, probe)
        live = set(ids.tolist())
        for _ in range(data.draw(st.integers(1, 20), label="updates")):
            if live and data.draw(st.booleans(), label="delete"):
                victim = data.draw(st.sampled_from(sorted(live)), label="victim")
                delete_leaf(tree, victim)
                live.discard(victim)
                continue
            new_id = data.draw(st.integers(0, 10_000).filter(lambda d: d not in live))
            vec = np.array(data.draw(st.sampled_from(few) | vector, label="vec"), dtype=np.float64)
            leaf_at = np.flatnonzero(tree.doc_ids >= 0)
            if len(leaf_at):
                assert _insert_rank(tree, leaf_at, new_id, vec) == scanned_rank(tree, new_id, vec)
            insert_leaf(tree, new_id, vec)
            live.add(new_id)
        leaf_ids, leaf_rows = tree.leaf_rows()
        assert leaf_ids[order_by_likelihood(leaf_ids, leaf_rows, probe)].tolist() == leaf_ids.tolist()

    def test_bisection_scores_log_many_leaves(self, monkeypatch):
        """An insert into a 679-leaf tree scores at most ceil(log2(680)) = 10
        of its leaves."""
        tree = ordered_tree(*random_rows(679, 16, seed=5), np.ones(16))
        scored = []

        def counting(rows, probe):
            rows = list(rows)
            scored.extend(rows)
            return _probe_scores(rows, probe)

        monkeypatch.setattr(forest, "_probe_scores", counting)
        vec = np.random.default_rng(6).random(16)
        leaf_at = np.flatnonzero(tree.doc_ids >= 0)
        assert _insert_rank(tree, leaf_at, 1000, vec) == scanned_rank(tree, 1000, vec)
        assert 1 <= len(scored) <= 10

    def test_insert_into_single_leaf(self):
        tree = build_tree([0], np.array([[1.0, 0.0]]), probe=np.ones(2))
        touched, rebuild = insert_leaf(tree, 1, np.array([0.0, 2.0]))
        assert touched == 2
        assert rebuild  # size doubled since the bulk load
        assert sorted(tree.leaves.tolist()) == [0, 1]
        np.testing.assert_array_equal(tree.nodes[0], [1.0, 2.0])

    def test_insert_touched_bounded_by_path(self):
        tree = ordered_tree(*random_rows(33, 4, seed=2), np.ones(4))
        rng = np.random.default_rng(8)
        for new_id in range(100, 110):
            depth_before = tree.depth()
            touched, _ = insert_leaf(tree, new_id, rng.random(4))
            assert touched <= 2 * (depth_before + 2)

    def test_post_insert_search_matches_rebuilt(self):
        probe = np.abs(np.random.default_rng(0).normal(size=3))
        tree = ordered_tree(*random_rows(16, 3, seed=4), probe)
        rng = np.random.default_rng(1)
        for new_id in range(200, 208):
            insert_leaf(tree, new_id, rng.random(3))
        rebuilt = rebuild_tree(tree)
        for qseed in range(5):
            query = np.abs(np.random.default_rng(qseed).normal(size=3))
            a, _ = gdfs(tree, query, 5)
            b, _ = gdfs(rebuilt, query, 5)
            assert a == b

    def test_insert_duplicate_error(self):
        tree = build_tree(*random_rows(3, 2))
        with pytest.raises(ForestError, match="already present"):
            insert_leaf(tree, 1, np.zeros(2))

    def test_insert_into_encrypted_rejected(self):
        tree = build_tree(*random_rows(3, 2))
        enc = encrypt_tree(tree, keygen([2], seed=0)[0], np.random.default_rng(0))
        with pytest.raises(ForestError):
            insert_leaf(enc, 9, np.zeros(2))
        with pytest.raises(ForestError):
            delete_leaf(enc, 0)

    def test_delete_only_leaf_empties_tree(self):
        tree = build_tree([3], np.ones((1, 2)))
        assert delete_leaf(tree, 3) == (1, False)  # an empty tree is not rebuilt
        assert len(tree.doc_ids) == 0 and len(tree.nodes) == 0

    def test_delete_then_search_absent(self):
        ids, rows = random_rows(10, 3, seed=6)
        tree = build_tree(ids, rows)
        delete_leaf(tree, 4)
        got, _ = gdfs(tree, np.ones(3), 9)
        assert 4 not in {d for d, _ in got}
        kept = ids != 4
        assert got == brute_force_topk(ids[kept], rows[kept], np.ones(3), 9)

    def test_delete_missing_error(self):
        tree = build_tree(*random_rows(3, 2))
        with pytest.raises(ForestError, match="not found"):
            delete_leaf(tree, 99)
        with pytest.raises(ForestError, match="not found"):
            delete_leaf(tree, -1)  # the internal-node marker

    def test_delete_then_insert_restores_results(self):
        ids, rows = random_rows(12, 3, seed=7)
        tree = ordered_tree(ids, rows, np.ones(3))
        delete_leaf(tree, 5)
        insert_leaf(tree, 5, rows[5])
        query = np.abs(np.random.default_rng(2).normal(size=3))
        got, _ = gdfs(tree, query, 12)
        assert got == brute_force_topk(ids, rows, query, 12)

    def test_doubling_triggers_rebuild_flag(self):
        tree = build_tree(*random_rows(4, 2, seed=0), probe=np.ones(2))
        rng = np.random.default_rng(0)
        flagged = False
        for new_id in range(100, 110):
            _, rebuild = insert_leaf(tree, new_id, rng.random(2))
            flagged = flagged or rebuild
        assert flagged  # size more than doubled since the bulk load

    def test_halving_triggers_rebuild_flag(self):
        tree = build_tree(*random_rows(8, 2, seed=0), probe=np.ones(2))
        flags = [delete_leaf(tree, doc_id)[1] for doc_id in range(5)]
        # 7, 6, 5, 4 and 3 leaves left of the 8 at build: 4 is half.
        assert flags == [False, False, False, True, True]


class TestForestFile:
    def test_plaintext_round_trip(self, tmp_path):
        probe = np.abs(np.random.default_rng(0).normal(size=4))
        trees = [
            ordered_tree(
                *random_rows(9 + p, 4, seed=p),
                probe,
                partition=p,
                probe_config=ProbeConfig(count=10, seed=p),
            )
            for p in range(2)
        ]
        path = tmp_path / "forest.bin"
        save_forest(trees, path)
        loaded = load_forest(path)
        assert len(loaded) == 2
        for a, b in zip(trees, loaded):
            np.testing.assert_array_equal(a.doc_ids, b.doc_ids)
            assert a.partition == b.partition
            assert a.size_at_build == b.size_at_build
            np.testing.assert_array_equal(a.probe, b.probe)
            assert a.probe_config == b.probe_config
            query = np.abs(np.random.default_rng(9).normal(size=4))
            assert gdfs(a, query, 5)[0] == gdfs(b, query, 5)[0]

    def test_encrypted_round_trip(self, tmp_path):
        tree = build_tree(*random_rows(7, 3, seed=3))
        key = keygen([3], seed=1)[0]
        rng = np.random.default_rng(4)
        enc = encrypt_tree(tree, key, rng)
        path = tmp_path / "forest.bin"
        save_forest([enc], path)
        loaded = load_forest(path)[0]
        assert loaded.encrypted
        np.testing.assert_array_equal(loaded.doc_ids, enc.doc_ids)
        trap = make_trapdoor(np.abs(rng.normal(size=3)), key, rng)
        assert gdfs(loaded, trap, 4)[0] == gdfs(enc, trap, 4)[0]

    def test_empty_tree_round_trip(self, tmp_path):
        path = tmp_path / "forest.bin"
        save_forest([Tree(0, np.empty(0, dtype=np.int64), np.zeros((0, 3)))], path)
        loaded = load_forest(path)[0]
        assert len(loaded.doc_ids) == 0 and loaded.nodes.shape == (0, 3)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "forest.bin"
        save_forest([build_tree(*random_rows(5, 3))], path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ForestError, match="truncated"):
            load_forest(path)

    def test_oversized_node_count_fails_before_allocating(self, tmp_path):
        path = tmp_path / "forest.bin"
        save_forest([build_tree(*random_rows(5, 3))], path)
        raw = bytearray(path.read_bytes())
        raw[8 + 13 : 8 + 21] = (2**62).to_bytes(8, "little")  # the node count
        path.write_bytes(bytes(raw))
        with pytest.raises(ForestError, match="truncated"):
            load_forest(path)

    def test_loaded_arrays_writable_and_updatable(self, tmp_path):
        """Updates write into a loaded tree's node matrix in place."""
        tree = build_tree(*random_rows(9, 4, seed=2))
        path = tmp_path / "forest.bin"
        save_forest([tree], path)
        loaded = load_forest(path)[0]
        for arr in (loaded.doc_ids, loaded.nodes):
            assert arr.flags.writeable and arr.flags.owndata and arr.flags.c_contiguous
        assert delete_leaf(loaded, 4) == delete_leaf(tree, 4)
        np.testing.assert_array_equal(loaded.nodes, tree.nodes)
        np.testing.assert_array_equal(loaded.doc_ids, tree.doc_ids)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "forest.bin"
        path.write_bytes(b"XXXX1234")
        with pytest.raises(ForestError, match="magic"):
            load_forest(path)


def test_plaintext_forest_matches_recorded_behaviour():
    """Search results, per-tree visited counts, preorder layouts and update
    touched counts of a plaintext forest, pinned to the values recorded from
    the earlier Node-object implementation (tests/data/forest_golden.json).
    Queries without their pseudo entries tie often, which pins the order in
    which the search visits tied children."""
    golden = json.loads((Path(__file__).parent / "data" / "forest_golden.json").read_text())
    pipe = Pipeline.build(synthetic_corpus(300, 400, 5, seed=0), PipelineConfig(s=4, sigma=0.05))
    queries = pipe.sample_queries(20, 10, seed=1)

    def searches(pseudo=1.0):
        out = []
        for q in queries:
            real = pipe.real_query_vectors(q.keywords)
            vecs = {p: np.concatenate([real[p], pseudo * q.alphas[p]]) for p in range(pipe.s)}
            res, visits = search_forest(pipe.trees, vecs, k=10)
            out.append({"results": [[d, s] for d, s in res],
                        "visited": {str(p): v for p, v in visits.items()}})
        return out

    def preorder():
        return [t.doc_ids.tolist() for t in pipe.trees]

    assert preorder() == golden["preorder"]
    assert searches() == golden["searches"]
    assert searches(0.0) == golden["searches_tied"]
    rng = np.random.default_rng(7)
    inserts = []
    for i in range(10):
        p = i % pipe.s
        dim = pipe.secure_mats[p].shape[1]
        vec = np.round(rng.random(dim) * (rng.random(dim) < 0.05), 2)
        touched, rebuild = insert_leaf(pipe.trees[p], 1000 + i, vec)
        if rebuild:
            pipe.trees[p] = rebuild_tree(pipe.trees[p])
        inserts.append([p, touched, rebuild])
    assert inserts == golden["inserts"]
    deletes = []
    for i in range(5):
        p = i % pipe.s
        victim = int(pipe.trees[p].leaves[3 * i + 1])
        touched, rebuild = delete_leaf(pipe.trees[p], victim)
        assert not rebuild
        deletes.append([p, victim, touched])
    assert deletes == golden["deletes"]
    assert preorder() == golden["preorder_after"]
    assert searches() == golden["searches_after"]
