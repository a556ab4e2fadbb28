import gc
import hashlib
import json
import re
import shutil
import tempfile
import weakref
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from encsearch import forest as forest_mod, padding, partitioning, weighting
from encsearch.corpus import Document, build_dictionary, synthetic_corpus
from encsearch.aspe import load_key, make_trapdoor, save_key
from encsearch.cli import main
from encsearch.engine import Pipeline, PipelineConfig, QuerySpec, _load_config
from encsearch.errors import EncSearchError, ForestError
from encsearch.forest import load_forest, order_by_likelihood, round_score, save_forest
from encsearch.partitioning import PartitionSet

RUN_FILES = {"config.json", "partitions.json", "weights.bin", "forest_plain.bin",
             "keys.bin", "forest_enc.bin"}


def brute_force(pipe, query, k):
    """Every padded row scored against the padded query over all
    partitions, top k by (score desc, doc id asc) on the 1e-9 grid."""
    real = pipe.real_query_vectors(query.keywords)
    scored = []
    for p in range(pipe.s):
        q = np.concatenate([real[p], query.alphas[p]])
        scores = np.round(pipe.secure_mats[p] @ q, 9).tolist()
        scored.extend(zip([d for d, _ in pipe.pset.members[p]], scores))
    scored.sort(key=lambda e: (-e[1], e[0]))
    return scored[:k]


def assert_same_answer(got, want):
    assert [d for d, _ in got] == [d for d, _ in want]
    for (_, a), (_, b) in zip(got, want):
        assert a == pytest.approx(b, abs=1e-6)


def empty_smallest_partition(pipe):
    """Delete every member of the smallest partition; returns its id."""
    p = min(range(pipe.s), key=lambda i: len(pipe.pset.members[i]))
    for doc_id, _owner in list(pipe.pset.members[p]):
        pipe.delete_document(doc_id)
    return p


def assert_rows_stored_once(pipe, queries):
    """The padded rows live only as tree leaves: the pipeline stores no
    ``secure_mats``, each ``secure_mats[p]`` is tree p's leaf rows in
    ``pset.members`` order, and ``exact_search`` ranks every document as the
    per-row scores of those rows do."""
    assert "secure_mats" not in vars(pipe)
    mats = pipe.secure_mats
    for tree, members, rows in zip(pipe.trees, pipe.pset.members, mats):
        ids, leaf_rows = tree.leaf_rows()
        at = {doc_id: i for i, doc_id in enumerate(ids.tolist())}
        assert rows.shape == (len(members), tree.nodes.shape[1])
        np.testing.assert_array_equal(rows, leaf_rows[[at[d] for d, _ in members]])
    for q in queries:
        real = pipe.real_query_vectors(q.keywords)
        want = []
        for p, rows in enumerate(mats):
            scores = [round_score(row[: len(real[p])] @ real[p]) for row in rows]
            want.extend(zip([d for d, _ in pipe.pset.members[p]], scores))
        want.sort(key=lambda e: (-e[1], e[0]))
        assert pipe.exact_search(q.keywords) == want


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_weights(got, want):
    """Every correlativity, w_max and owner weight array bit for bit, the
    owners in the same order."""
    assert len(got.correlativity) == len(want.correlativity) == got.s
    for p in range(got.s):
        assert same_bits(got.correlativity[p], want.correlativity[p])
        assert same_bits(got.w_max[p], want.w_max[p])
        assert list(got.weights[p]) == list(want.weights[p])
        for owner, vec in want.weights[p].items():
            assert same_bits(got.weights[p][owner], vec)


def toy_config(**overrides):
    """s=1, no padding, no noise: scores equal the weighted plaintext model."""
    base = dict(s=1, u_ratio=0.0, sigma=0.0, probe_count=50, seed=0)
    base.update(overrides)
    return PipelineConfig(**base)


@pytest.fixture(scope="module")
def toy():
    docs = synthetic_corpus(10, 20, n_owners=3, seed=1)
    return Pipeline.build(docs, toy_config()), docs


@pytest.fixture(scope="module")
def multi():
    docs = synthetic_corpus(80, 160, n_owners=5, seed=2)
    return Pipeline.build(docs, PipelineConfig(s=3, sigma=0.0, u_ratio=0.0, probe_count=100, seed=3))


def inserted_rows():
    """(doc id, partition, padded row) of 21 inserts spread over the
    partitions.  A sigma=0.05 pipeline takes 16 seeded documents, owners 5
    and 6 among them unknown to every partition, plus one unknown owner's
    document whose counts push its raw weights past the partition's maxima;
    a sigma=0 pipeline takes 4 more."""
    base = synthetic_corpus(80, 160, 5, seed=2)
    new = synthetic_corpus(20, 160, 7, seed=5)
    out = []
    for sigma, batch in ((0.05, new[:16]), (0.0, new[16:])):
        pipe = Pipeline.build(base, PipelineConfig(s=3, sigma=sigma, probe_count=50, seed=3, encrypt=False))
        if sigma:
            heavy = {word: 50 for word in pipe.pset.sub_dictionaries[1][:3]}
            batch = batch + [Document(22, 9, heavy)]  # doc 1022, into partition 1
        for d in batch:
            doc = Document(1000 + d.doc_id, d.owner_id, d.counts)
            report = pipe.insert_document(doc, partition=d.doc_id % pipe.s)
            out.append((report.doc_id, report.partition, pipe.secure_mats[report.partition][-1]))
    return out


def row_digest(row):
    return hashlib.sha256(np.ascontiguousarray(row, dtype="<f8").tobytes()).hexdigest()


class TestBuild:
    def test_home_keys_are_the_dictionary(self, multi):
        docs = synthetic_corpus(80, 160, n_owners=5, seed=2)
        assert sorted(multi.pset.home) == build_dictionary(docs)

    def test_s_exceeds_docs(self):
        docs = synthetic_corpus(3, 10, 2, seed=0)
        with pytest.raises(EncSearchError, match="exceeds"):
            Pipeline.build(docs, PipelineConfig(s=5))

    def test_artifacts_present(self, toy):
        pipe, docs = toy
        assert pipe.s == 1
        assert len(pipe.trees) == 1
        assert pipe.server is not None
        assert len(pipe.trees[0].leaves) == len(docs)

    def test_weight_sort_oracle(self, toy):
        # Oracle: rank docs by the sum over query keywords of
        # bit * normalized owner weight, recomputed by hand per document.
        pipe, docs = toy
        words = pipe.pset.sub_dictionaries[0][:4]
        want = []
        for d in docs:
            score = 0.0
            for w in words:
                if w in d.counts:
                    dim = pipe.pset.sub_dictionaries[0].index(w)
                    score += pipe.weights[0][d.owner_id][dim]
            want.append((d.doc_id, round(score, 9)))
        want.sort(key=lambda e: (-e[1], e[0]))
        res = pipe.query(words, k=10)  # s=1: the one tree gives its top k
        assert [d for d, _ in res.results] == [d for d, _ in want]
        for (_, a), (_, b) in zip(res.results, want):
            assert a == pytest.approx(b, abs=1e-6)


class TestQueryPath:
    def test_encrypted_matches_exact(self, multi):
        pipe = multi
        for qseed in range(5):
            q = pipe.sample_queries(1, n_keywords=6, seed=qseed)[0]
            enc = pipe.run_query(q, k=10)
            exact = pipe.exact_query(q, k=10)
            assert [d for d, _ in enc] == [d for d, _ in exact]
            for (_, a), (_, b) in zip(enc, exact):
                assert a == pytest.approx(b, abs=1e-6)

    def test_unknown_keyword_contributes_nothing(self, toy):
        pipe, _ = toy
        known = pipe.pset.sub_dictionaries[0][0]
        a = pipe.exact_search([known])
        b = pipe.exact_search([known, "definitelynotaword"])
        assert a == b

    def test_negative_weight_rejected(self, toy):
        pipe, _ = toy
        with pytest.raises(EncSearchError, match="negative"):
            pipe.exact_search({"kw": -1.0})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "1", None, True])
    def test_non_finite_weight_rejected_by_query(self, toy, bad):
        """Rejected before partition selection and any trapdoor draw: the
        query generator does not move."""
        pipe, _ = toy
        words = pipe.pset.sub_dictionaries[0][:2]
        state = pipe._query_rng.bit_generator.state
        with pytest.raises(EncSearchError, match="non-finite"):
            pipe.query({words[0]: bad, words[1]: 1.0}, k=3)
        assert pipe._query_rng.bit_generator.state == state

    @pytest.mark.parametrize("keywords", ["kw00", b"kw00"])
    def test_bare_string_keywords_rejected(self, multi, keywords):
        """A string is not read as the words of its characters: each step of
        a query fails before any random draw."""
        pipe = multi
        state = pipe._query_rng.bit_generator.state
        for step in (lambda: pipe.query(keywords, k=3), lambda: pipe.exact_search(keywords),
                     lambda: pipe.select_partitions(keywords, None),
                     lambda: pipe.make_trapdoors(keywords, [0])):
            with pytest.raises(EncSearchError, match="keywords must be a list or mapping"):
                step()
        assert pipe._query_rng.bit_generator.state == state

    def test_nan_weight_rejected_by_exact_search(self, toy):
        pipe, _ = toy
        for bad in (float("nan"), "1", None):
            with pytest.raises(EncSearchError, match="non-finite"):
                pipe.exact_search({pipe.pset.sub_dictionaries[0][0]: bad})

    @pytest.mark.parametrize("bad", ["1", None, True, float("nan"), -1.0])
    def test_select_and_trapdoors_check_weights(self, multi, bad):
        """Both public steps of a query reject bad weights with
        ``EncSearchError``; ``make_trapdoors`` does so before its first draw,
        even when the bad weight belongs to the last selected partition."""
        pipe = multi
        words = [pipe.pset.sub_dictionaries[p][0] for p in range(pipe.s)]
        weights = {**{w: 1.0 for w in words[:-1]}, words[-1]: bad}
        with pytest.raises(EncSearchError, match="weight"):
            pipe.select_partitions(weights, None)
        state = pipe._query_rng.bit_generator.state
        with pytest.raises(EncSearchError, match="weight"):
            pipe.make_trapdoors(weights, list(range(pipe.s)))
        assert pipe._query_rng.bit_generator.state == state

    def test_query_checks_weights_once(self, multi):
        """``query`` hands its checked weights to ``select_partitions`` and
        ``make_trapdoors``, which do not check them again."""

        class Weight(float):
            checks = 0

            def __lt__(self, other):  # the sign check compares each weight once
                Weight.checks += 1
                return float(self) < other

        pipe = multi
        words = pipe.pset.sub_dictionaries[0][:2]
        result = pipe.query({w: Weight(1.0) for w in words}, k=3)
        assert Weight.checks == len(words)
        assert [d for d, _ in result.results] == [d for d, _ in pipe.query(words, k=3).results]

    @pytest.mark.parametrize("k", [0, -2, 1.5, 2.0, True, "3", None])
    def test_query_k_must_be_positive_integer(self, toy, k):
        pipe, _ = toy
        with pytest.raises(EncSearchError, match="k must be an integer"):
            pipe.query(pipe.pset.sub_dictionaries[0][:2], k=k)

    @pytest.mark.parametrize("k", [0, -2, 1.5, True])
    def test_exact_search_k_must_be_positive_integer(self, toy, k):
        pipe, _ = toy
        with pytest.raises(EncSearchError, match="k must be an integer"):
            pipe.exact_search(pipe.pset.sub_dictionaries[0][:2], k=k)

    def test_numpy_integer_k_accepted(self, toy):
        pipe, _ = toy
        words = pipe.pset.sub_dictionaries[0][:2]
        assert len(pipe.query(words, k=np.int64(3)).results) == 3
        assert pipe.exact_search(words, np.int32(3)) == pipe.exact_search(words, 3)

    def test_repeat_same_ranking_fresh_trapdoors(self, toy):
        pipe, _ = toy
        words = pipe.pset.sub_dictionaries[0][:3]
        t1 = pipe.make_trapdoors({w: 1.0 for w in words}, [0])
        t2 = pipe.make_trapdoors({w: 1.0 for w in words}, [0])
        assert not np.allclose(t1[0].t1, t2[0].t1)  # randomized trapdoors
        r1 = pipe.query(words, k=5)
        r2 = pipe.query(words, k=5)
        assert [d for d, _ in r1.results] == [d for d, _ in r2.results]

    def test_k_exceeds_corpus(self, toy):
        pipe, docs = toy
        res = pipe.query(pipe.pset.sub_dictionaries[0][:2], k=100)
        assert len(res.results) == len(docs)

    def test_exact_search_tie_rule(self, toy):
        pipe, _ = toy
        ranked = pipe.exact_search(pipe.pset.sub_dictionaries[0][:2])
        for (d1, s1), (d2, s2) in zip(ranked, ranked[1:]):
            assert s1 > s2 or (s1 == s2 and d1 < d2)

    def test_exact_search_matches_per_document_ranking(self, multi):
        pipe = multi
        for qseed in range(5):
            q = pipe.sample_queries(1, n_keywords=6, seed=qseed)[0]
            real = pipe.real_query_vectors(q.keywords)
            want = []
            for p in range(pipe.s):
                rows = pipe.secure_mats[p][:, : len(pipe.pset.sub_dictionaries[p])]
                for (doc_id, _owner), sc in zip(pipe.pset.members[p], rows @ real[p]):
                    want.append((doc_id, round_score(sc)))
            want.sort(key=lambda e: (-e[1], e[0]))
            assert pipe.exact_search(q.keywords) == want
            assert pipe.exact_search(q.keywords, 7) == want[:7]

    def test_query_without_encryption(self):
        docs = synthetic_corpus(6, 12, 2, seed=4)
        pipe = Pipeline.build(docs, toy_config(encrypt=False))
        with pytest.raises(EncSearchError, match="without encryption"):
            pipe.query(["kw00"], k=2)
        assert pipe.exact_search(pipe.pset.sub_dictionaries[0][:1])


def per_tree_topk(pipe, query, k):
    """The reference for ``run_query``, the per-tree quota k over all s
    trees that ``query`` once took as arguments: each tree's padded rows
    scored against its padded query on the 1e-9 grid, its top k by (score
    desc, doc id asc), the lists merged under the same rule and cut to k."""
    real = pipe.real_query_vectors(query.keywords)
    merged = []
    for p in range(pipe.s):
        q = np.concatenate([real[p], query.alphas[p]])
        scores = np.round(pipe.secure_mats[p] @ q, 9).tolist()
        ranked = sorted(zip([d for d, _ in pipe.pset.members[p]], scores),
                        key=lambda e: (-e[1], e[0]))
        merged.extend(ranked[:k])
    merged.sort(key=lambda e: (-e[1], e[0]))
    return merged[:k]


@settings(max_examples=50, deadline=None)
@given(
    corpus_seed=st.integers(0, 10_000),
    n_docs=st.integers(4, 30),
    s=st.integers(1, 4),
    k=st.integers(1, 40),
    sigma=st.sampled_from([0.0, 0.05]),
)
def test_run_query_is_each_trees_top_k(corpus_seed, n_docs, s, k, sigma):
    """``run_query`` asks every tree for its top k, through the one per-tree
    quota rule ceil(k'/t) at k' = k*s and t = s."""
    docs = synthetic_corpus(n_docs, 40, 3, seed=corpus_seed)
    s = min(s, n_docs)
    pipe = Pipeline.build(docs, PipelineConfig(s=s, sigma=sigma, probe_count=20, seed=corpus_seed))
    for q in pipe.sample_queries(4, n_keywords=3, seed=corpus_seed):
        assert_same_answer(pipe.run_query(q, k), per_tree_topk(pipe, q, k))


class TestPartitionSelection:
    def test_select_covers_best_partitions(self, multi):
        pipe = multi
        words = pipe.pset.sub_dictionaries[1][:3]
        assert pipe.select_partitions({w: 1.0 for w in words}, t=1) == [1]

    def test_no_known_keyword_selects_all(self, multi):
        assert multi.select_partitions({"nope": 1.0}, None) == [0, 1, 2]

    def test_t_out_of_range(self, multi):
        for t in (0, 9, 2.5, True, "2"):
            with pytest.raises(EncSearchError, match="t must be an integer"):
                multi.select_partitions({"nope": 1.0}, t=t)
        words = multi.pset.sub_dictionaries[0][:2]
        with pytest.raises(EncSearchError, match="t must be an integer"):
            multi.query(words, k=3, t=2.5)

    def test_t_pads_with_remaining_partitions(self, multi):
        pipe = multi
        word = pipe.pset.sub_dictionaries[2][0]
        selected = pipe.select_partitions({word: 1.0}, t=2)
        assert len(selected) == 2 and 2 in selected

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_ranking_matches_two_branch_rule(self, data):
        """The one ranking picks what the earlier rule picked: the covered
        partitions ranked, all of them when none is covered, and with t the
        first t of those, padded with the uncovered ones in id order."""
        s = data.draw(st.integers(1, 6), label="s")
        covered = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5]),
                                     min_size=s, max_size=s), label="covered")
        t = data.draw(st.none() | st.integers(1, s), label="t")
        pipe = Pipeline()
        pipe.pset = PartitionSet.from_members([[f"w{p}"] for p in range(s)], [[] for _ in range(s)])
        keywords = {f"w{p}": weight for p, weight in enumerate(covered)}

        candidates = [p for p in range(s) if covered[p] > 0] or list(range(s))
        candidates.sort(key=lambda p: (-covered[p], p))
        if t is not None:
            candidates = candidates[:t] if len(candidates) >= t else (
                candidates + [p for p in range(s) if p not in candidates]
            )[:t]
        assert pipe.select_partitions(keywords, t) == sorted(candidates)


class TestSampleQueries:
    @pytest.mark.parametrize("count, n_keywords", [(0, 5), (-2, 5), (3, 0), (3, -1)])
    def test_rejects_counts_below_one(self, multi, count, n_keywords):
        with pytest.raises(EncSearchError, match="count and n_keywords must be >= 1"):
            multi.sample_queries(count, n_keywords=n_keywords)

    @pytest.mark.parametrize("count, n_keywords", [
        (1.5, 5), (2.0, 5), ("3", 5), (True, 5), (2, 2.5), (2, True), (None, 5),
    ])
    def test_rejects_non_integer_counts(self, multi, count, n_keywords):
        """True used to sample one query, and a float or string raised a
        raw TypeError."""
        with pytest.raises(EncSearchError, match="count and n_keywords must be >= 1"):
            multi.sample_queries(count, n_keywords=n_keywords)

    def test_shapes_and_determinism(self, multi):
        pipe = multi
        a = pipe.sample_queries(3, n_keywords=4, seed=5)
        b = pipe.sample_queries(3, n_keywords=4, seed=5)
        assert len(a) == 3
        for qa, qb in zip(a, b):
            assert qa.keywords == qb.keywords
            assert len(qa.keywords) == 4
            for p in range(pipe.s):
                np.testing.assert_array_equal(qa.alphas[p], qb.alphas[p])
                assert qa.alphas[p].shape == (pipe.noise[p].pseudo_count,)

    def test_partition_restricted(self, multi):
        pipe = multi
        qs = pipe.sample_queries(2, n_keywords=3, seed=1, partition=2)
        sub = set(pipe.pset.sub_dictionaries[2])
        for q in qs:
            assert set(q.keywords) <= sub


class TestNoiseSettings:
    """A bad noise setting fails with the package's error wherever it
    enters, and leaves nothing behind."""

    DOCS = synthetic_corpus(30, 60, 3, seed=6)

    @pytest.mark.parametrize("setting", [
        {"sigma": float("nan")},
        {"sigma": float("inf")},
        {"omega": -1},
        {"u_ratio": float("nan")},
        {"u_ratio": float("inf")},
        {"u_ratio": -0.1},
        {"u_ratio": 1.5},
        {"u_ratio": 1e9},
        {"omega": 1.5},
    ])
    def test_build_rejects(self, setting):
        name = next(iter(setting))
        with pytest.raises(EncSearchError, match=f"{name} must be"):
            Pipeline.build(self.DOCS, PipelineConfig(s=2, probe_count=50, **setting))

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.1])
    def test_set_sigma_rejects_and_changes_nothing(self, sigma):
        pipe = Pipeline.build(self.DOCS, PipelineConfig(s=2, probe_count=50, seed=7))
        q = pipe.sample_queries(2, n_keywords=5, seed=2)
        before = [pipe.run_query(x, k=8) for x in q]
        noise, config = list(pipe.noise), pipe.config
        with pytest.raises(EncSearchError, match="sigma must be finite and >= 0"):
            pipe.set_sigma(sigma)
        assert pipe.noise == noise and pipe.config is config
        assert [pipe.run_query(x, k=8) for x in q] == before
        word = pipe.pset.sub_dictionaries[0][0]
        report = pipe.insert_document(Document.from_terms(999, 1, [word] * 3), partition=0)
        assert report.partition == 0
        assert np.isfinite(pipe.trees[0].nodes).all()

    @pytest.mark.parametrize("key", ["sigma", "u_ratio"])
    def test_load_rejects_nan_in_config(self, tmp_path, key):
        """json.loads reads a bare NaN; the load fails naming config.json."""
        Pipeline.build(self.DOCS, PipelineConfig(s=2, probe_count=50)).save(tmp_path / "run")
        path = tmp_path / "run" / "config.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), key: float("nan")}))
        assert f'"{key}": NaN' in path.read_text()
        with pytest.raises(EncSearchError, match=re.escape(f"{path}: {key} must be finite")):
            Pipeline.load(tmp_path / "run")

    def test_u_ratio_of_one_builds(self):
        pipe = Pipeline.build(self.DOCS, PipelineConfig(s=2, probe_count=50, u_ratio=1))
        for p, noise in enumerate(pipe.noise):
            assert noise.pseudo_count == max(len(pipe.pset.sub_dictionaries[p]), 1)

    @pytest.mark.parametrize("key, value, kind", [
        ("omega", 1.5, "an integer or null"),
        ("omega", True, "an integer or null"),
        ("s", "2", "an integer or null"),
        ("probe_count", None, "an integer"),
        ("seed", 0.0, "an integer"),
        ("u_ratio", "0.1", "a number"),
        ("sigma", False, "a number"),
        ("zipf_a", [1.0], "a number"),
        ("encrypt", 1, "true or false"),
    ])
    def test_load_rejects_mistyped_config(self, tmp_path, key, value, kind):
        """A config field of the wrong JSON type fails the load naming
        config.json, before a later update trips over it."""
        Pipeline.build(self.DOCS, PipelineConfig(s=2, probe_count=50)).save(tmp_path / "run")
        path = tmp_path / "run" / "config.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
        message = f"{path}: {key} must be {kind}, got {value!r}"
        with pytest.raises(EncSearchError, match=re.escape(message)):
            Pipeline.load(tmp_path / "run")

    def test_load_takes_integral_numbers_and_null(self, tmp_path):
        Pipeline.build(self.DOCS, PipelineConfig(s=2, probe_count=50)).save(tmp_path / "run")
        path = tmp_path / "run" / "config.json"
        config = {**json.loads(path.read_text()), "sigma": 0, "zipf_a": 1, "omega": None}
        path.write_text(json.dumps(config))
        assert Pipeline.load(tmp_path / "run").config == PipelineConfig(**config)


class TestConfigChecks:
    """``PipelineConfig`` checks every field at construction, by the rules
    ``load`` applies to ``config.json``, so a bad setting fails before any
    work and ``save`` never writes a config that ``load`` rejects."""

    DOCS = synthetic_corpus(60, 80, 3, seed=6)

    @pytest.mark.parametrize("setting", [
        # Built, then saved a run directory that load rejected.
        {"seed": 1.5}, {"encrypt": "no"}, {"encrypt": 1}, {"sigma": True}, {"s": True},
        # Built, then failed to save: json cannot write numpy integers or float32.
        {"s": np.int64(2)}, {"omega": np.int64(1)}, {"probe_count": np.int64(50)},
        {"sigma": np.float32(0.1)}, {"encrypt": np.bool_(True)},
        # Raw numpy or Python errors, probe_count=0 after the partitioning.
        {"zipf_a": float("nan")}, {"zipf_a": float("-inf")}, {"zipf_a": "1"}, {"sigma": "a"},
        {"u_ratio": "0.1"}, {"s": 2.0}, {"probe_count": 2.5}, {"probe_count": 0}, {"s": 0},
    ])
    def test_bad_setting_fails_before_partitioning(self, monkeypatch, setting):
        monkeypatch.setattr(
            partitioning, "cluster_indexes", lambda *a, **k: pytest.fail("partitioned first")
        )
        (key, value), = setting.items()
        want = f"{key} must be .*, got {re.escape(repr(value))}$"
        with pytest.raises(EncSearchError, match=want):
            Pipeline.build(self.DOCS, PipelineConfig(**setting))

    def test_set_sigma_rejects_a_string_and_changes_nothing(self):
        pipe = Pipeline.build(self.DOCS, PipelineConfig(s=2, probe_count=50))
        noise, config = list(pipe.noise), pipe.config
        with pytest.raises(EncSearchError, match="sigma must be a number, got 'a'"):
            pipe.set_sigma("a")
        assert pipe.noise == noise and pipe.config is config

    def test_infinite_zipf_a_and_numpy_float64_build_and_reload(self, tmp_path):
        config = PipelineConfig(s=2, probe_count=50, zipf_a=float("inf"), sigma=np.float64(0.1))
        Pipeline.build(self.DOCS, config).save(tmp_path / "run")
        assert Pipeline.load(tmp_path / "run").config == config

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(
        st.sampled_from([f.name for f in fields(PipelineConfig)]),
        st.one_of(
            st.integers(), st.floats(), st.booleans(), st.none(), st.text(max_size=3),
            st.integers(-(2**63), 2**63 - 1).map(np.int64), st.floats().map(np.float64),
            st.floats(width=32).map(np.float32), st.booleans().map(np.bool_),
        ),
    ))
    def test_fails_naming_the_field_or_round_trips(self, tmp_path_factory, setting):
        try:
            config = PipelineConfig(**setting)
        except EncSearchError as exc:
            assert str(exc).split(" must be ")[0] in setting
            return
        path = tmp_path_factory.getbasetemp() / "round_trip_config.json"
        path.write_text(json.dumps(asdict(config)))
        assert _load_config(path) == config


class TestSigmaSweep:
    def test_set_sigma_roundtrip(self):
        docs = synthetic_corpus(30, 60, 3, seed=6)
        pipe = Pipeline.build(docs, PipelineConfig(s=1, sigma=0.0, probe_count=50, seed=7))
        q = pipe.sample_queries(1, n_keywords=5, seed=2)[0]
        base = pipe.run_query(q, k=8)
        pipe.set_sigma(0.3)
        assert pipe.noise[0].sigma == 0.3
        pipe.set_sigma(0.0)
        again = pipe.run_query(q, k=8)
        assert [d for d, _ in base] == [d for d, _ in again]


class TestEmptiedPartition:
    @pytest.fixture
    def emptied(self):
        docs = synthetic_corpus(80, 160, 5, seed=2)
        pipe = Pipeline.build(docs, PipelineConfig(s=3, probe_count=50, seed=3))
        p = empty_smallest_partition(pipe)
        return pipe, p

    def test_sigma_sweep_runs(self, emptied):
        pipe, p = emptied
        queries = pipe.sample_queries(4, n_keywords=5, seed=1)
        report = padding.optimize_noise(pipe, [0.0, 0.1], 8, queries)
        assert [r.sigma for r in report.rows] == [0.0, 0.1]
        assert pipe.trees[p].nodes.shape == (0, pipe.key[p].dim)
        assert pipe.secure_mats[p].shape == (0, pipe.key[p].dim)
        assert len(pipe.server.trees[p].doc_ids) == 0
        for q in queries:  # sigma = 0.1, the last grid value
            assert_same_answer(pipe.run_query(q, k=8), brute_force(pipe, q, 8))
        pipe.set_sigma(0.0)
        for q in queries:
            assert_same_answer(pipe.run_query(q, k=8), pipe.exact_query(q, k=8))

    def test_cli_tune(self, emptied, tmp_path, capsys):
        from encsearch.cli import main

        pipe, _ = emptied
        pipe.save(tmp_path / "run")
        argv = ["tune", "--run", str(tmp_path / "run"), "--grid", "0.0:0.1:0.1",
                "--k", "5", "--queries", "3"]
        assert main(argv) == 0
        assert "sigma*=" in capsys.readouterr().out


class TestPartitionWithoutKeywords:
    # Partition 0 of this corpus gets documents but no home keyword.
    DOCS = dict(n_docs=40, n_keywords=40, n_owners=4, seed=0)

    def test_builds_with_one_pseudo_dimension(self):
        pipe = Pipeline.build(synthetic_corpus(**self.DOCS), PipelineConfig(s=2, seed=0))
        assert pipe.pset.sizes[0] == 0 and len(pipe.pset.members[0]) > 0
        assert [m.pseudo_count for m in pipe.noise] == [1, 4]
        assert pipe.key[0].dim == 1
        for q in pipe.sample_queries(10, n_keywords=5, seed=3):
            assert_same_answer(pipe.run_query(q, k=10), brute_force(pipe, q, 10))
            assert_same_answer(pipe.exact_query(q, k=10), pipe.exact_search(q.keywords, 10))
        # Partition 0's documents score 0 but are ranked.
        assert len(pipe.exact_search(["kw00"])) == len(pipe.pset.assignments)

    def test_partitions_with_keywords_unchanged(self):
        cfg = PipelineConfig(s=2, u_ratio=0.0, seed=0)
        pipe = Pipeline.build(synthetic_corpus(**self.DOCS), cfg)
        assert [m.pseudo_count for m in pipe.noise] == [1, 0]


def expected_incidence(pipe, doc, p):
    """Where ``doc``'s padded row in partition p must be positive: at the
    sub-dictionary words it holds.  A build document's owner weighs its own
    words above 0; elsewhere an inserted document is weighted through the
    correlativity, whose unit diagonal keeps every word it holds above 0."""
    return np.array([w in doc.counts for w in pipe.pset.sub_dictionaries[p]], dtype=bool)


@settings(max_examples=25, deadline=None)
@given(
    corpus_seed=st.integers(0, 10_000),
    n_docs=st.integers(6, 30),
    s=st.integers(1, 4),
    inserts=st.lists(
        st.tuples(st.integers(0, 5), st.booleans(), st.integers(0, 10_000)), max_size=8
    ),
    delete_seed=st.integers(0, 10_000),
)
def test_padded_rows_carry_the_incidence(corpus_seed, n_docs, s, inserts, delete_seed):
    """The positive real entries of each padded row, built or inserted, are
    its document's keyword incidence over the partition's sub-dictionary.  So
    sampled queries drawn from keyword counts of the rows match those drawn
    from a per-document recount, through random inserts (owners 3-5 unknown
    to the build) and deletes."""
    docs = synthetic_corpus(n_docs, 40, 3, seed=corpus_seed)
    pipe = Pipeline.build(docs, PipelineConfig(s=s, probe_count=20, seed=corpus_seed, encrypt=False))
    for p, rows in enumerate(pipe.secure_mats):
        for row, (doc_id, _owner) in enumerate(pipe.pset.members[p]):
            bits = [w in docs[doc_id].counts for w in pipe.pset.sub_dictionaries[p]]
            np.testing.assert_array_equal(rows[row, : len(bits)] > 0, bits)
    live = {d.doc_id: d for d in docs}
    for i, (owner, pick, seed) in enumerate(inserts):
        new = synthetic_corpus(1, 40, 1, seed=seed)[0]
        doc = Document(1000 + i, owner, new.counts)
        pipe.insert_document(doc, partition=seed % pipe.s if pick else None)
        live[doc.doc_id] = doc
    rng = np.random.default_rng(delete_seed)
    for doc_id in rng.choice(sorted(live), size=len(live) // 3, replace=False).tolist():
        pipe.delete_document(doc_id)
        del live[doc_id]

    recount = [np.zeros(len(words)) for words in pipe.pset.sub_dictionaries]
    for p, rows in enumerate(pipe.secure_mats):
        for row, (doc_id, _owner) in enumerate(pipe.pset.members[p]):
            want = expected_incidence(pipe, live[doc_id], p)
            np.testing.assert_array_equal(rows[row, : len(want)] > 0, want)
            recount[p] += want

    def sampled_keywords():
        parts = [None] + [p for p in range(pipe.s) if pipe.pset.sub_dictionaries[p]]
        return [[q.keywords for q in pipe.sample_queries(3, 4, seed=7, partition=p)]
                for p in parts]

    got = sampled_keywords()
    pipe._keyword_counts = lambda p: recount[p]
    assert got == sampled_keywords()


@settings(max_examples=50, deadline=None)
@given(
    corpus_seed=st.integers(0, 10_000),
    s=st.integers(1, 3),
    updates=st.lists(st.tuples(st.booleans(), st.integers(0, 10_000)), max_size=30),
)
def test_updates_keep_leaves_in_likelihood_order(corpus_seed, s, updates):
    """After every insert and delete, rebuilds included, each tree's leaves
    are in ``order_by_likelihood`` order, so a rebuild need not sort them."""
    docs = synthetic_corpus(12, 40, 3, seed=corpus_seed)
    pipe = Pipeline.build(docs, PipelineConfig(s=s, probe_count=20, seed=corpus_seed, encrypt=False))
    live = sorted(pipe.pset.assignments)
    for i, (delete, seed) in enumerate(updates):
        if delete and live:
            pipe.delete_document(live.pop(seed % len(live)))
        else:
            new = synthetic_corpus(1, 40, 1, seed=seed)[0]
            pipe.insert_document(Document(1000 + i, seed % 5, new.counts))
            live.append(1000 + i)
        for tree in pipe.trees:
            ids, rows = tree.leaf_rows()
            assert order_by_likelihood(ids, rows, tree.probe).tolist() == list(range(len(ids)))


def check_server_trees(pipe, rng):
    """Each server tree holds its plaintext tree's doc ids and scores every
    node, under random trapdoors, as a freshly encrypted twin does; queries
    asking every tree for its top k answer as ``exact_search`` ranks."""
    for p, (plain, enc) in enumerate(zip(pipe.trees, pipe.server.trees)):
        np.testing.assert_array_equal(enc.doc_ids, plain.doc_ids)
        key = pipe.key[p]
        fresh = forest_mod.encrypt_tree(plain, key, rng)
        for _ in range(2):
            td = make_trapdoor(rng.random(key.dim), key, rng)
            np.testing.assert_allclose(
                enc.enc1 @ td.t1 + enc.enc2 @ td.t2,
                fresh.enc1 @ td.t1 + fresh.enc2 @ td.t2,
                rtol=0, atol=1e-9,
            )
    for q in pipe.sample_queries(2, 3, seed=int(rng.integers(1 << 30))):
        assert_same_answer(pipe.run_query(q, 5), pipe.exact_search(q.keywords, 5))


def check_encrypted_rows(pipe, report, deleted):
    """A delete that neither rebuilds nor empties its tree re-encrypts the
    refreshed ancestors, the touched nodes but the dropped leaf and parent;
    every other update re-encrypts the whole tree."""
    n = len(pipe.trees[report.partition].doc_ids)
    whole = not deleted or report.rebuilt or n == 0
    assert report.encrypted_rows == (n if whole else report.touched_nodes - 2)


@settings(max_examples=20, deadline=None)
@given(
    corpus_seed=st.integers(0, 10_000),
    s=st.integers(2, 3),
    updates=st.lists(st.tuples(st.booleans(), st.integers(0, 10_000)), max_size=12),
    save_at=st.integers(0, 12),
)
def test_row_local_deletes_keep_server_trees_fresh(corpus_seed, s, updates, save_at):
    """Through random deletes mixed with inserts, one save and load, and the
    deletes that empty the largest partition, rebuilding it on the way, the
    server trees stay in step with the plaintext trees (check_server_trees)
    and each update reports the rows it re-encrypted."""
    docs = synthetic_corpus(16, 40, 3, seed=corpus_seed)
    config = PipelineConfig(s=s, sigma=0.0, u_ratio=0.0, probe_count=20, seed=corpus_seed)
    pipe = Pipeline.build(docs, config)
    rng = np.random.default_rng(corpus_seed)

    def reloaded(pipe):
        with tempfile.TemporaryDirectory() as tmp:
            pipe.save(Path(tmp) / "run")
            pipe = Pipeline.load(Path(tmp) / "run")
        check_server_trees(pipe, rng)
        return pipe

    live = sorted(pipe.pset.assignments)
    for i, (delete, seed) in enumerate(updates):
        if i == save_at:
            pipe = reloaded(pipe)
        delete = delete and len(live) > 1
        if delete:
            report = pipe.delete_document(live.pop(seed % len(live)))
        else:
            new = synthetic_corpus(1, 40, 1, seed=seed)[0]
            report = pipe.insert_document(Document(1000 + i, seed % 4, new.counts))
            live.append(1000 + i)
        check_encrypted_rows(pipe, report, delete)
        check_server_trees(pipe, rng)
    if save_at >= len(updates):
        pipe = reloaded(pipe)

    p = max(range(pipe.s), key=lambda q: len(pipe.pset.members[q]))
    for j in range(2 - len(pipe.pset.members[p])):
        new = synthetic_corpus(1, 40, 1, seed=j)[0]
        pipe.insert_document(Document(2000 + j, 0, new.counts), partition=p)
    victims = [doc_id for doc_id, _owner in pipe.pset.members[p]]
    reports = []
    for doc_id in rng.permutation(victims).tolist():
        reports.append(pipe.delete_document(doc_id))
        check_encrypted_rows(pipe, reports[-1], True)
        check_server_trees(pipe, rng)
    # From two leaves down to one halves any tree, so emptying one rebuilds.
    assert any(r.rebuilt for r in reports)
    assert len(pipe.server.trees[p].doc_ids) == 0 and reports[-1].encrypted_rows == 0


class TestUpdates:
    def test_insert_then_searchable(self, ):
        docs = synthetic_corpus(20, 40, 3, seed=8)
        pipe = Pipeline.build(docs, PipelineConfig(s=2, sigma=0.0, u_ratio=0.0, probe_count=50, seed=9))
        word = pipe.pset.sub_dictionaries[0][0]
        new = Document.from_terms(999, 1, [word] * 5)
        report = pipe.insert_document(new)
        assert report.doc_id == 999
        assert report.partition == 0
        assert report.touched_nodes >= 2
        got = pipe.run_query(QuerySpec({word: 1.0}), k=21)  # both trees, 21 results each
        assert 999 in {d for d, _ in got}
        exact = pipe.exact_search([word], k=21)
        assert [d for d, _ in got] == [d for d, _ in exact]

    def test_known_owner_insert_scores_a_keyword_its_weights_miss(self):
        """Owner 1's build documents give keyword b weight 0; its new
        document holding b is weighted through the correlativity and ranks
        with the other holders of b."""
        docs = [Document(0, 1, {"a": 2}), Document(1, 1, {"a": 1, "c": 1}),
                Document(2, 2, {"b": 1}), Document(3, 2, {"b": 3})]
        pipe = Pipeline.build(docs, PipelineConfig(s=1, sigma=0.0, u_ratio=0.0))
        np.testing.assert_array_equal(pipe.weights[0][1], [1.0, 0.0, 1.0])
        pipe.insert_document(Document(9, 1, {"b": 5}))
        np.testing.assert_array_equal(pipe.secure_mats[0][-1], [0.0, 1.0, 0.0])
        want = [(2, 1.0), (3, 1.0), (9, 1.0)]
        assert pipe.query(["b"], k=5).results[:3] == want
        assert pipe.exact_search(["b"], k=5)[:3] == want

    def test_insert_duplicate_and_bad_partition(self):
        docs = synthetic_corpus(10, 20, 2, seed=10)
        pipe = Pipeline.build(docs, toy_config(seed=10))
        with pytest.raises(EncSearchError, match="already exists"):
            pipe.insert_document(Document.from_terms(0, 1, ["kw00"]))
        with pytest.raises(ForestError, match="partition"):
            pipe.insert_document(Document.from_terms(500, 1, ["kw00"]), partition=4)

    def test_negative_doc_id_rejected_before_any_change(self, tmp_path):
        """An insert that fails on its doc id leaves the partition set, the
        trees and the server trees as they were, so a save still loads."""
        pipe = Pipeline.build(synthetic_corpus(60, 80, 3, seed=1), PipelineConfig(s=2, seed=2))
        pset = json.dumps([sorted(pipe.pset.assignments.items()), pipe.pset.members])
        trees = [(t.doc_ids.tobytes(), t.nodes.tobytes()) for t in pipe.trees]
        served = [(t.doc_ids.tobytes(), t.enc1.tobytes(), t.enc2.tobytes()) for t in pipe.server.trees]
        with pytest.raises(ForestError, match="non-negative"):
            pipe.insert_document(Document(-5, 1, {"kw000": 2}))
        assert json.dumps([sorted(pipe.pset.assignments.items()), pipe.pset.members]) == pset
        assert [(t.doc_ids.tobytes(), t.nodes.tobytes()) for t in pipe.trees] == trees
        assert [(t.doc_ids.tobytes(), t.enc1.tobytes(), t.enc2.tobytes())
                for t in pipe.server.trees] == served
        pipe.save(tmp_path / "run")
        assert Pipeline.load(tmp_path / "run").pset.members == pipe.pset.members

    def test_delete_removes_from_results(self):
        docs = synthetic_corpus(15, 30, 3, seed=11)
        pipe = Pipeline.build(docs, toy_config(seed=11))
        word = pipe.pset.sub_dictionaries[0][0]
        before = pipe.exact_search([word], k=15)
        victim = before[0][0]
        report = pipe.delete_document(victim)
        assert report.doc_id == victim
        res = pipe.query([word], k=14)
        assert victim not in {d for d, _ in res.results}
        assert victim not in pipe.pset.assignments
        with pytest.raises(EncSearchError, match="unknown doc_id"):
            pipe.delete_document(victim)

    @pytest.mark.parametrize("doc_id", [3.0, True, "3", None])
    def test_delete_doc_id_must_be_an_integer(self, doc_id):
        """3.0 used to delete document 3 and report doc_id=3.0."""
        pipe = Pipeline.build(synthetic_corpus(12, 24, 2, seed=12), toy_config(seed=12))
        members = [list(m) for m in pipe.pset.members]
        with pytest.raises(EncSearchError, match=re.escape(f"doc_id must be an integer, got {doc_id!r}")):
            pipe.delete_document(doc_id)
        assert pipe.pset.members == members
        assert pipe.delete_document(np.int64(3)).doc_id == 3 and 3 not in pipe.pset.assignments

    def test_delete_then_insert_round_trip(self):
        docs = synthetic_corpus(12, 24, 2, seed=12)
        pipe = Pipeline.build(docs, toy_config(seed=12))
        q = pipe.sample_queries(1, n_keywords=4, seed=0)[0]
        before = pipe.run_query(q, k=12)
        doc = next(d for d in docs if d.doc_id == 3)
        p = pipe.pset.assignments[3]
        pipe.delete_document(3)
        pipe.insert_document(doc, partition=p)
        after = pipe.run_query(q, k=12)
        assert [d for d, _ in before] == [d for d, _ in after]

    def test_inserted_rows_match_recorded_digests(self):
        """Padded rows of new documents, pinned bit for bit to
        tests/data/insert_golden.json."""
        golden = json.loads((Path(__file__).parent / "data" / "insert_golden.json").read_text())
        got = [[doc_id, p, row_digest(row)] for doc_id, p, row in inserted_rows()]
        assert got == golden

    def test_delete_reencrypts_only_its_path(self):
        """A delete that neither rebuilds nor empties the tree keeps every
        server row but its path rows bit for bit, in preorder, and
        re-encrypts the path rows, which are internal nodes.  The delete
        moves the server's rows in place, so the rows from before are
        copies."""
        docs = synthetic_corpus(40, 60, 3, seed=8)
        pipe = Pipeline.build(docs, PipelineConfig(s=2, probe_count=50, seed=9))
        p = max(range(pipe.s), key=lambda q: len(pipe.pset.members[q]))
        before = {enc: getattr(pipe.server.trees[p], enc).copy() for enc in ("enc1", "enc2")}
        leaves = pipe.trees[p].leaves
        report = pipe.delete_document(int(leaves[len(leaves) // 2]))
        after = pipe.server.trees[p]
        assert not report.rebuilt
        assert 0 < report.encrypted_rows == report.touched_nodes - 2 < len(after.doc_ids)
        for enc in ("enc1", "enc2"):
            old = {row.tobytes(): i for i, row in enumerate(before[enc])}
            new = [row.tobytes() for row in getattr(after, enc)]
            kept = [i for i, row in enumerate(new) if row in old]
            assert len(new) - len(kept) == report.encrypted_rows
            assert (after.doc_ids[sorted(set(range(len(new))) - set(kept))] < 0).all()
            positions = [old[new[i]] for i in kept]
            assert positions == sorted(positions)

    def test_row_local_delete_moves_rows_in_place(self):
        """A row-local delete drops its rows inside each tree's own arrays:
        the plaintext doc ids and node matrix, and the server's doc ids and
        ciphertext halves.  Each tree's new doc ids are a view of its own
        array from before, not of the other tree's."""
        docs = synthetic_corpus(40, 60, 3, seed=8)
        pipe = Pipeline.build(docs, PipelineConfig(s=2, probe_count=50, seed=9))
        p = max(range(pipe.s), key=lambda q: len(pipe.pset.members[q]))
        plain, enc = pipe.trees[p], pipe.server.trees[p]
        arrays = {
            (plain, "doc_ids"): plain.doc_ids, (plain, "nodes"): plain.nodes,
            (enc, "doc_ids"): enc.doc_ids, (enc, "enc1"): enc.enc1, (enc, "enc2"): enc.enc2,
        }
        leaves = plain.leaves
        report = pipe.delete_document(int(leaves[len(leaves) // 3]))
        assert not report.rebuilt and report.encrypted_rows == report.touched_nodes - 2
        assert pipe.trees[p] is plain and pipe.server.trees[p] is enc
        for (tree, name), before in arrays.items():
            after = getattr(tree, name)
            assert after.shape == (len(before) - 2,) + before.shape[1:]
            assert np.shares_memory(after, before)
        np.testing.assert_array_equal(enc.doc_ids, plain.doc_ids)
        assert not np.shares_memory(plain.doc_ids, arrays[enc, "doc_ids"])
        assert not np.shares_memory(enc.doc_ids, arrays[plain, "doc_ids"])

    def test_server_trees_share_no_array_with_plaintext_trees(self, tmp_path):
        """No array of a server tree shares memory with an array of its
        plaintext tree after a build, a save and load, an insert, a
        row-local delete, a rebuilding delete and a sigma change."""
        docs = synthetic_corpus(40, 60, 3, seed=8)
        pipe = Pipeline.build(docs, PipelineConfig(s=2, probe_count=50, seed=9))

        def check(pipe):
            for plain, enc in zip(pipe.trees, pipe.server.trees):
                ours = [a for a in vars(plain).values() if isinstance(a, np.ndarray)]
                theirs = [a for a in vars(enc).values() if isinstance(a, np.ndarray)]
                assert len(ours) >= 2 and len(theirs) == 3
                assert not any(np.shares_memory(a, b) for a in ours for b in theirs)

        check(pipe)
        pipe.save(tmp_path / "run")
        pipe = Pipeline.load(tmp_path / "run")
        check(pipe)
        word = pipe.pset.sub_dictionaries[0][0]
        pipe.insert_document(Document.from_terms(999, 1, [word] * 3), partition=0)
        check(pipe)
        p = max(range(pipe.s), key=lambda q: len(pipe.pset.members[q]))
        reports = []
        while not reports or not reports[-1].rebuilt:
            leaves = pipe.trees[p].leaves
            reports.append(pipe.delete_document(int(leaves[len(leaves) // 2])))
            check(pipe)
        assert len(reports) > 1 and 0 < reports[0].encrypted_rows == reports[0].touched_nodes - 2
        pipe.set_sigma(0.1)
        check(pipe)

    def test_replaced_tree_freed_without_cyclic_gc(self):
        docs = synthetic_corpus(20, 40, 3, seed=8)
        pipe = Pipeline.build(docs, PipelineConfig(s=2, probe_count=50, seed=9))
        word = pipe.pset.sub_dictionaries[0][0]
        gc.disable()
        try:
            old = weakref.ref(pipe.server.trees[0].enc1)
            pipe.insert_document(Document.from_terms(999, 1, [word] * 5), partition=0)
            assert old() is None
        finally:
            gc.enable()


class TestPersistence:
    def test_save_load_same_results(self, tmp_path, multi):
        pipe = multi
        out = tmp_path / "run"
        pipe.save(out)
        loaded = Pipeline.load(out)
        assert loaded.s == pipe.s
        for qseed in range(3):
            q = pipe.sample_queries(1, n_keywords=5, seed=qseed)[0]
            assert loaded.run_query(q, k=8) == pipe.run_query(q, k=8)
            assert loaded.exact_query(q, k=8) == pipe.exact_query(q, k=8)

    def test_arrays_hold_no_rows_or_raw_weights(self, tmp_path, multi):
        """weights.bin holds its headers and, per partition, the
        correlativity, w_max, owner ids and one weight row per owner, each
        array after zero padding to the next multiple of 64 bytes: nothing
        else, so no index rows and no raw weights."""
        multi.save(tmp_path / "run")
        raw = (tmp_path / "run" / "weights.bin").read_bytes()
        held = 8
        for corr, wmax, w in zip(multi.correlativity, multi.w_max, multi.weights):
            held += 8
            ids = np.array(list(w), dtype="<i8")
            for arr in (corr, wmax, ids, np.array(list(w.values()))):
                held = -(-held // 64) * 64
                assert raw[held : held + arr.nbytes] == arr.tobytes()
                held += arr.nbytes
        assert all(multi.weights)
        assert len(raw) == held

    def test_load_rebuilds_padded_rows_after_updates(self, tmp_path):
        docs = synthetic_corpus(80, 160, 5, seed=2)
        pipe = Pipeline.build(docs, PipelineConfig(s=3, probe_count=50, seed=3))
        checks = pipe.sample_queries(3, n_keywords=5, seed=8)
        assert_rows_stored_once(pipe, checks)
        for i, d in enumerate(synthetic_corpus(12, 160, 5, seed=21)):
            pipe.insert_document(Document(1000 + i, d.owner_id, d.counts))
        assert_rows_stored_once(pipe, checks)
        back = next(d for d in docs if d.doc_id == 17)
        for doc_id in (4, 17, 33, 1003, 1007):
            pipe.delete_document(doc_id)
        pipe.insert_document(back)  # members out of doc id order
        assert_rows_stored_once(pipe, checks)
        emptied = empty_smallest_partition(pipe)
        assert_rows_stored_once(pipe, checks)
        pipe.save(tmp_path / "run")
        loaded = Pipeline.load(tmp_path / "run")
        assert_rows_stored_once(loaded, checks)
        assert loaded.secure_mats[emptied].shape == (0, pipe.key[emptied].dim)
        for a, b in zip(pipe.secure_mats, loaded.secure_mats):
            assert a.shape == b.shape and a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        queries = pipe.sample_queries(5, n_keywords=5, seed=6)
        for q in queries:
            assert loaded.exact_search(q.keywords) == pipe.exact_search(q.keywords)
            assert_same_answer(loaded.run_query(q, k=8), pipe.run_query(q, k=8))
        pipe.set_sigma(0.1)
        loaded.set_sigma(0.1)
        assert_rows_stored_once(pipe, checks)
        assert_rows_stored_once(loaded, checks)
        for a, b in zip(pipe.secure_mats, loaded.secure_mats):
            np.testing.assert_array_equal(a, b)
        for q in queries:
            assert_same_answer(loaded.run_query(q, k=8), pipe.run_query(q, k=8))

    def test_load_keeps_weights_of_owner_gone_from_partition(self, tmp_path):
        docs = synthetic_corpus(80, 160, 5, seed=2)
        pipe = Pipeline.build(docs, PipelineConfig(s=3, probe_count=50, seed=3, encrypt=False))
        gone = [d for d, owner in pipe.pset.members[1] if owner == 4]
        assert len(gone) == 11
        for doc_id in gone:
            pipe.delete_document(doc_id)
        pipe.save(tmp_path / "run")
        loaded = Pipeline.load(tmp_path / "run")
        np.testing.assert_array_equal(loaded.weights[1][4], pipe.weights[1][4])
        for i, d in enumerate(synthetic_corpus(5, 160, 5, seed=7)):
            doc = Document(1000 + i, 4, d.counts)
            np.testing.assert_array_equal(
                loaded._secure_vector_for(doc, 1), pipe._secure_vector_for(doc, 1)
            )

    def test_load_rejects_retired_config_keys(self, tmp_path, multi):
        """The fields older versions also saved, now constants, fail the
        load as any other unknown key does."""
        multi.save(tmp_path / "run")
        path = tmp_path / "run" / "config.json"
        config = json.loads(path.read_text())
        for extra in ({"probe_keywords": 10}, {"cond_cap": 1e6}, {"depth": 3}):
            path.write_text(json.dumps({**config, **extra}))
            want = re.escape(f"{path}: unknown config keys {list(extra)}")
            with pytest.raises(EncSearchError, match=want):
                Pipeline.load(tmp_path / "run")

    @pytest.mark.parametrize("name", ["keys.bin", "forest_plain.bin", "forest_enc.bin"])
    @pytest.mark.parametrize("cut", ["3", "10", "half", "len-1", "+2 bytes"])
    def test_damaged_file_fails_load(self, tmp_path, multi, name, cut):
        """A file shorter or longer than its headers say fails with the
        package's error, not a struct or numpy one."""
        multi.save(tmp_path / "run")
        path = tmp_path / "run" / name
        raw = path.read_bytes()
        cuts = {"3": 3, "10": 10, "half": len(raw) // 2, "len-1": len(raw) - 1}
        path.write_bytes(raw[: cuts[cut]] if cut in cuts else raw + b"\0\0")
        with pytest.raises(EncSearchError, match="truncated|magic|after the last record"):
            Pipeline.load(tmp_path / "run")

    def test_save_load_save_byte_identical(self, tmp_path, multi):
        multi.save(tmp_path / "a")
        Pipeline.load(tmp_path / "a").save(tmp_path / "b")
        names = sorted(f.name for f in (tmp_path / "a").iterdir())
        assert names == sorted(f.name for f in (tmp_path / "b").iterdir())
        assert {"keys.bin", "forest_plain.bin", "forest_enc.bin"} <= set(names)
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_save_writes_no_corpus_and_load_keeps_assignments(self, tmp_path, multi):
        """The run directory holds the six files load cannot derive; the doc
        id map, noise models and dictionary come back all the same."""
        multi.save(tmp_path / "run")
        assert {f.name for f in (tmp_path / "run").iterdir()} == RUN_FILES
        loaded = Pipeline.load(tmp_path / "run")
        assert loaded.pset.assignments == multi.pset.assignments
        assert loaded.pset.members == multi.pset.members
        assert loaded.pset == multi.pset
        assert loaded.noise == multi.noise

    def test_set_sigma_recorded_for_load(self, tmp_path):
        docs = synthetic_corpus(80, 160, 5, seed=2)
        config = PipelineConfig(s=3, probe_count=50, seed=3)
        pipe = Pipeline.build(docs, config)
        pipe.set_sigma(0.2)
        assert config.sigma == 0.05 and pipe.config.sigma == 0.2
        pipe.save(tmp_path / "run")
        loaded = Pipeline.load(tmp_path / "run")
        assert loaded.noise == pipe.noise
        doc = Document(1000, 9, docs[0].counts)
        for p in range(pipe.s):
            np.testing.assert_array_equal(
                loaded._secure_vector_for(doc, p), pipe._secure_vector_for(doc, p)
            )

    @pytest.mark.parametrize("name, damage", [
        ("config.json", "truncated"),
        ("config.json", "not JSON"),
        ("config.json", "not an object"),
        ("partitions.json", "truncated"),
        ("partitions.json", "missing key"),
    ])
    def test_malformed_json_fails_load(self, tmp_path, multi, name, damage):
        multi.save(tmp_path / "run")
        path = tmp_path / "run" / name
        text = path.read_text()
        lacking = {k: v for k, v in json.loads(text).items() if k != "sub_dictionaries"}
        path.write_text({
            "truncated": text[: len(text) // 2],
            "not JSON": "s=3\n",
            "not an object": "[]",
            "missing key": json.dumps(lacking),
        }[damage])
        with pytest.raises(EncSearchError):
            Pipeline.load(tmp_path / "run")

    def test_save_over_encrypted_run_leaves_no_stale_files(self, tmp_path):
        """An unencrypted pipeline saved over an encrypted run leaves no old
        keys.bin or forest_enc.bin for load to pair with its partitions."""
        out = tmp_path / "run"
        docs = synthetic_corpus(60, 120, 4, seed=5)
        Pipeline.build(docs, PipelineConfig(s=2, probe_count=50, seed=5)).save(out)
        plain = Pipeline.build(docs[:40], PipelineConfig(s=2, probe_count=50, seed=5, encrypt=False))
        plain.save(out)
        assert {f.name for f in out.iterdir()} == RUN_FILES - {"keys.bin", "forest_enc.bin"}
        loaded = Pipeline.load(out)
        assert loaded.key is None and loaded.server is None
        assert sorted(loaded.pset.assignments) == list(range(40))
        with pytest.raises(EncSearchError, match="without encryption"):
            loaded.query(["kw000"], k=5)
        assert sorted(f.name for f in tmp_path.iterdir()) == ["run"]

    def test_failed_save_keeps_old_run_directory(self, tmp_path, multi, monkeypatch):
        """A save that fails part-way leaves the run directory it would have
        replaced as it was, and no temporary directory behind."""
        out = tmp_path / "run"
        multi.save(out)
        before = {f.name: f.read_bytes() for f in out.iterdir()}
        q = multi.sample_queries(1, n_keywords=5, seed=6)[0]
        want = Pipeline.load(out).run_query(q, k=8)
        pipe = Pipeline.build(synthetic_corpus(30, 60, 3, seed=7), PipelineConfig(s=2, probe_count=50))

        def fail(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(forest_mod, "save_forest", fail)
        with pytest.raises(OSError, match="disk full"):
            pipe.save(out)
        assert sorted(f.name for f in tmp_path.iterdir()) == ["run"]
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before
        assert Pipeline.load(out).run_query(q, k=8) == want

    def test_save_over_a_file_fails_and_keeps_it(self, tmp_path, multi):
        path = tmp_path / "run"
        path.write_text("not a run directory")
        with pytest.raises(EncSearchError, match="not a directory"):
            multi.save(path)
        assert path.read_text() == "not a run directory"
        assert sorted(f.name for f in tmp_path.iterdir()) == ["run"]

    def test_load_rejects_forest_of_other_members(self, tmp_path, multi):
        multi.save(tmp_path / "run")
        path = tmp_path / "run" / "forest_plain.bin"
        save_forest(load_forest(path)[::-1], path)
        with pytest.raises(ForestError, match="leaves do not match"):
            Pipeline.load(tmp_path / "run")

    @pytest.fixture(scope="class")
    def small(self):
        return Pipeline.build(synthetic_corpus(40, 80, 3, seed=1), PipelineConfig(s=3, probe_count=50))

    def test_load_rejects_encrypted_tree_of_other_doc_ids(self, tmp_path, small):
        """A delete splices rows at the plaintext tree's positions, so an
        encrypted tree must hold the same doc ids in the same order."""
        small.save(tmp_path / "run")
        path = tmp_path / "run" / "forest_enc.bin"
        trees = load_forest(path)
        leaves = np.flatnonzero(trees[0].doc_ids >= 0)
        trees[0].doc_ids[leaves[:2]] = trees[0].doc_ids[leaves[1::-1]]
        save_forest(trees, path)
        with pytest.raises(EncSearchError, match="forest_enc.bin: tree 0 does not hold the doc ids"):
            Pipeline.load(tmp_path / "run")

    @pytest.mark.parametrize("name", ["forest_plain.bin", "forest_enc.bin"])
    def test_load_rejects_probe_that_does_not_fit(self, tmp_path, small, name):
        """A plaintext tree's probe is empty or of the tree's width, and an
        encrypted tree holds none: a short probe would fail the first insert
        with a numpy error."""
        small.save(tmp_path / "run")
        path = tmp_path / "run" / name
        trees = load_forest(path)
        for tree, plain in zip(trees, small.trees):
            tree.probe = plain.probe[:-1] if name == "forest_plain.bin" else plain.probe
        save_forest(trees, path)
        want = "not 0 or" if name == "forest_plain.bin" else "not 0$"
        with pytest.raises(EncSearchError, match=f"{name}: tree 0 holds a probe of length .*{want}"):
            Pipeline.load(tmp_path / "run")

    def test_load_accepts_plain_tree_without_probe(self, tmp_path, small):
        small.save(tmp_path / "run")
        path = tmp_path / "run" / "forest_plain.bin"
        trees = load_forest(path)
        trees[1].probe = None
        save_forest(trees, path)
        loaded = Pipeline.load(tmp_path / "run")
        assert loaded.trees[1].probe is None and loaded.trees[0].probe is not None

    def test_load_rejects_plain_forest_without_a_tree(self, tmp_path, small):
        small.save(tmp_path / "run")
        path = tmp_path / "run" / "forest_plain.bin"
        save_forest(load_forest(path)[:2], path)
        with pytest.raises(EncSearchError, match="forest_plain.bin"):
            Pipeline.load(tmp_path / "run")

    def test_load_rejects_weights_of_no_partition(self, tmp_path, small):
        """A weights.bin with a record past the last partition fails the
        load."""
        small.save(tmp_path / "run")
        path = tmp_path / "run" / "weights.bin"
        corr, wmax, weights = small.correlativity, small.w_max, small.weights
        weighting.save_weights(path, [*corr, corr[0]], [*wmax, wmax[0]], [*weights, weights[0]])
        with pytest.raises(EncSearchError, match=re.escape(f"{path}: holds 4 partitions, not 3")):
            Pipeline.load(tmp_path / "run")

    def test_weights_round_trip_bit_for_bit(self, tmp_path):
        """weights.bin loads every array as it was saved, also the weights of
        a negative owner id and of an owner whose documents in the partition
        were all deleted."""
        docs = [
            Document(d.doc_id, -7 if d.owner_id == 0 else d.owner_id, d.counts)
            for d in synthetic_corpus(60, 120, 4, seed=5)
        ]
        pipe = Pipeline.build(docs, PipelineConfig(s=2, probe_count=50, seed=5))
        p = max(range(pipe.s), key=lambda i: len(pipe.pset.members[i]))
        gone = pipe.pset.members[p][0][1]
        for doc_id, owner in list(pipe.pset.members[p]):
            if owner == gone:
                pipe.delete_document(doc_id)
        assert gone not in {owner for _id, owner in pipe.pset.members[p]}
        assert gone in pipe.weights[p]
        assert any(-7 in w for w in pipe.weights)
        run = tmp_path / "run"
        pipe.save(run)
        loaded = Pipeline.load(run)
        assert_same_weights(loaded, pipe)

    @pytest.mark.parametrize("damage, message", [
        ("truncated", "truncated weights file"),
        ("trailing bytes", "1 bytes after the last record"),
        ("partitions", "holds 2 partitions, not 3"),
        ("dimension", "partition 0 has dimension"),
    ])
    def test_load_rejects_damaged_weights_file(self, tmp_path, small, damage, message):
        small.save(tmp_path / "run")
        path = tmp_path / "run" / "weights.bin"
        data = path.read_bytes()
        corr, wmax, weights = small.correlativity, small.w_max, small.weights
        if damage == "truncated":
            path.write_bytes(data[:-8])
        elif damage == "trailing bytes":
            path.write_bytes(data + b"\0")
        elif damage == "partitions":
            weighting.save_weights(path, corr[:2], wmax[:2], weights[:2])
        else:  # partition 0 one keyword short
            weighting.save_weights(
                path,
                [corr[0][:-1, :-1], *corr[1:]],
                [wmax[0][:-1], *wmax[1:]],
                [{o: v[:-1] for o, v in weights[0].items()}, *weights[1:]],
            )
        with pytest.raises(EncSearchError, match=f"weights.bin: .*{message}"):
            Pipeline.load(tmp_path / "run")

    def test_resaved_older_run_holds_weights_bin(self, tmp_path, small):
        """An older run directory, which no longer loads, is rebuilt in
        place: a save over it leaves the six files of this format and none
        of the older ones."""
        run = tmp_path / "run"
        small.save(run)
        (run / "weights.bin").unlink()
        for name in ("arrays.npz", "corpus.jsonl", "dictionary.txt", "noise.json", "partitions.npz"):
            (run / name).write_bytes(b"older")
        with pytest.raises(EncSearchError, match="weights.bin: missing"):
            Pipeline.load(run)
        small.save(run)
        assert {f.name for f in run.iterdir()} == RUN_FILES
        assert_same_weights(Pipeline.load(run), small)

    def test_load_rejects_owner_listed_twice(self, tmp_path, small):
        """A weights.bin that lists an owner of a partition twice fails the
        load rather than keep one of its two weight rows."""
        small.save(tmp_path / "run")
        path = tmp_path / "run" / "weights.bin"
        raw = bytearray(path.read_bytes())
        n = len(small.w_max[0])
        assert len(small.weights[0]) >= 2
        wmax_at = -(-(64 + 8 * n * n) // 64) * 64  # the correlativity starts at 64
        at = -(-(wmax_at + 8 * n) // 64) * 64  # partition 0's owner ids
        raw[at + 8 : at + 16] = raw[at : at + 8]
        path.write_bytes(bytes(raw))
        with pytest.raises(EncSearchError, match=re.escape(f"{path}: partition 0 lists an owner twice")):
            Pipeline.load(tmp_path / "run")

    @pytest.mark.parametrize("name, message", [
        ("keys.bin", "not a key file (magic b'ESK1', expected b'ESK3')"),
        ("forest_plain.bin", "not a forest file (magic b'ESF2', expected b'ESF4')"),
        ("forest_enc.bin", "not a forest file (magic b'ESF2', expected b'ESF4')"),
        ("arrays.npz", "missing from the run directory"),
        ("partitions.json", "not a version-3 partition set"),
        ("config.json", "unknown config keys ['cond_cap']"),
    ])
    def test_older_format_fails_load_and_update(self, tmp_path, small, capsys, name, message):
        """A run directory with one file in a format an older version wrote
        fails the load with one error that names the file, and
        ``encsearch update`` on it exits 1 with one error line and changes
        no file.  An older ESK1 key file or ESF2 forest file is told by its
        magic, and older weights by an ``arrays.npz`` in place of
        ``weights.bin``."""
        run = tmp_path / "run"
        small.save(run)
        path = run / name
        if name in ("keys.bin", "forest_plain.bin", "forest_enc.bin"):
            path.write_bytes((b"ESK1" if name == "keys.bin" else b"ESF2") + path.read_bytes()[4:])
        elif name == "arrays.npz":
            (run / "weights.bin").unlink()
            arrays = {f"corr{p}": corr for p, corr in enumerate(small.correlativity)}
            arrays |= {f"wmax{p}": wmax for p, wmax in enumerate(small.w_max)}
            arrays |= {f"w{p}_{o}": v for p, w in enumerate(small.weights) for o, v in w.items()}
            np.savez(path, **arrays)
            path = run / "weights.bin"
        else:
            payload = json.loads(path.read_text())
            payload |= {"version": 2} if name == "partitions.json" else {"cond_cap": 1e6}
            path.write_text(json.dumps(payload))
        with pytest.raises(EncSearchError) as caught:
            Pipeline.load(run)
        assert str(caught.value) == f"{path}: {message}"
        before = {f.name: f.read_bytes() for f in run.iterdir()}
        assert main(["update", "--run", str(run), "--delete", "3"]) == 1
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")
        assert {f.name: f.read_bytes() for f in run.iterdir()} == before
        assert sorted(f.name for f in tmp_path.iterdir()) == ["run"]

    @pytest.mark.parametrize("name", sorted(RUN_FILES))
    def test_load_names_a_missing_file(self, tmp_path, small, name):
        small.save(tmp_path / "run")
        (tmp_path / "run" / name).unlink()
        with pytest.raises(EncSearchError, match=re.escape(f"{name}: missing")):
            Pipeline.load(tmp_path / "run")

    @pytest.mark.parametrize("name", ["keys.bin", "forest_enc.bin"])
    def test_load_rejects_key_files_of_an_unencrypted_run(self, tmp_path, small, name):
        """Key files beside a config that builds without encryption fail
        the load rather than go unread."""
        small.save(tmp_path / "enc")
        plain = Pipeline.build(
            synthetic_corpus(40, 80, 3, seed=1), PipelineConfig(s=3, probe_count=50, encrypt=False)
        )
        plain.save(tmp_path / "run")
        shutil.copy(tmp_path / "enc" / name, tmp_path / "run" / name)
        with pytest.raises(EncSearchError, match=re.escape(f"{name}: present")):
            Pipeline.load(tmp_path / "run")

    def test_load_rejects_swapped_encrypted_trees(self, tmp_path, small):
        small.save(tmp_path / "run")
        path = tmp_path / "run" / "forest_enc.bin"
        trees = load_forest(path)
        trees[0], trees[1] = trees[1], trees[0]
        save_forest(trees, path)
        with pytest.raises(EncSearchError, match="forest_enc.bin"):
            Pipeline.load(tmp_path / "run")

    def test_load_rejects_keys_of_other_partitions(self, tmp_path, small):
        small.save(tmp_path / "run")
        path = tmp_path / "run" / "keys.bin"
        save_key(load_key(path)[:2], path)
        with pytest.raises(EncSearchError, match="key dimensions"):
            Pipeline.load(tmp_path / "run")

    def test_same_seed_bit_identical_forest_files(self, tmp_path):
        docs = synthetic_corpus(80, 160, 5, seed=2)
        cfg = PipelineConfig(s=2, probe_count=50, seed=13)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        Pipeline.build(docs, cfg).save(out_a)
        Pipeline.build(docs, cfg).save(out_b)
        assert (out_a / "forest_enc.bin").read_bytes() == (out_b / "forest_enc.bin").read_bytes()

    def test_loaded_copies_send_unlinkable_trapdoors(self, tmp_path, multi):
        multi.save(tmp_path / "run")
        first, second = Pipeline.load(tmp_path / "run"), Pipeline.load(tmp_path / "run")
        q = multi.sample_queries(1, n_keywords=5, seed=4)[0]
        p = int(np.argmax([pk.dim for pk in multi.key]))  # a one-dimensional key may split nothing
        a = first.make_trapdoors(q.keywords, [p], q.alphas)
        b = second.make_trapdoors(q.keywords, [p], q.alphas)
        assert not np.allclose(a[p].t1, b[p].t1)
        assert [d for d, _ in first.run_query(q, k=8)] == [d for d, _ in second.run_query(q, k=8)]


def test_empty_subdictionary_query_sampling_error():
    # A single-doc partition with every keyword homed elsewhere cannot supply
    # sample queries; the failure must be explicit, not a numpy crash.
    docs = synthetic_corpus(8, 16, 2, seed=14)
    pipe = Pipeline.build(docs, toy_config(seed=14))
    pipe.pset.sub_dictionaries[0] = []
    with pytest.raises(EncSearchError, match="empty sub-dictionary"):
        pipe.sample_queries(1, partition=0)


@pytest.mark.parametrize("partition", [-1, 1])
def test_query_sampling_partition_out_of_range(partition):
    # Not the last partition for -1, nor an IndexError for s.
    pipe = Pipeline.build(synthetic_corpus(8, 16, 2, seed=14), toy_config(seed=14))
    assert pipe.s == 1
    with pytest.raises(EncSearchError, match=f"partition {partition} out of range"):
        pipe.sample_queries(1, partition=partition)


@pytest.mark.parametrize("partition", [True, False, 0.0, "0"])
def test_partition_argument_must_be_an_integer(partition):
    """A partition that is a bool or no integer fails as a bad t or k does:
    True used to insert into and sample partition 1."""
    pipe = Pipeline.build(synthetic_corpus(20, 40, 2, seed=14), toy_config(s=2, seed=14))
    doc = Document.from_terms(500, 1, ["kw00"])
    want = re.escape(f"partition must be an integer, got {partition!r}")
    with pytest.raises(EncSearchError, match=want):
        pipe.insert_document(doc, partition=partition)
    with pytest.raises(EncSearchError, match=want):
        pipe.sample_queries(1, partition=partition)
    assert 500 not in pipe.pset.assignments


def test_numpy_integer_partition_accepted():
    pipe = Pipeline.build(synthetic_corpus(20, 40, 2, seed=14), toy_config(s=2, seed=14))
    p = int(np.argmax(pipe.pset.sizes))
    got = pipe.sample_queries(2, seed=3, partition=np.int64(p))
    assert [q.keywords for q in got] == [q.keywords for q in pipe.sample_queries(2, seed=3, partition=p)]
    report = pipe.insert_document(Document.from_terms(500, 1, ["kw00"]), partition=np.int32(p))
    assert report.partition == p and type(report.partition) is int
    assert pipe.pset.assignments[500] == p
