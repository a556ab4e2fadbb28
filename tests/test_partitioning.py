import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from encsearch.corpus import BinaryIndex, KeywordDictionary, build_binary_indexes, build_dictionary, synthetic_corpus
from encsearch import partitioning
from encsearch.errors import PartitioningError
from encsearch.partitioning import (
    InitialPartition,
    _farthest_pair,
    cluster_indexes,
    default_partition_count,
    global_cluster,
    load_partition_set,
    local_split,
    save_partition_set,
    segment_dictionary,
)


def bi(doc_id, owner_id, bits):
    return BinaryIndex(doc_id, owner_id, np.array(bits, dtype=np.uint8))


def l1_cost(vectors, labels):
    """Oracle: within-cluster L1 cost around component-wise medians."""
    cost = 0.0
    for c in set(labels):
        group = np.stack([v for v, l in zip(vectors, labels) if l == c])
        cost += np.abs(group - np.median(group, axis=0)).sum()
    return cost


@st.composite
def binary_rows(draw):
    """0/1 matrices built from a few distinct rows, so that duplicate rows and
    tied distances are common."""
    n = draw(st.integers(1, 10))
    bases = draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(bases) - 1), min_size=1, max_size=16))
    return np.array([bases[i] for i in picks], dtype=np.float64)


class TestLocalSplit:
    def test_two_against_one(self):
        # Oracle: brute-force best 2-partition under L1 within-cluster cost.
        vectors = [np.array(v, dtype=float) for v in [(1, 0), (1, 0), (0, 1)]]
        indexes = [bi(i, 1, v) for i, v in enumerate(vectors)]
        best = min(
            (labels for labels in itertools.product((0, 1), repeat=3) if len(set(labels)) == 2),
            key=lambda labels: l1_cost(vectors, labels),
        )
        parts = local_split(indexes)
        assert len(parts) == 2
        got = {frozenset(d for d, _ in p.members) for p in parts}
        want = {
            frozenset(i for i, l in enumerate(best) if l == 0),
            frozenset(i for i, l in enumerate(best) if l == 1),
        }
        assert got == want
        reps = {tuple(p.representative) for p in parts}
        assert reps == {(1.0, 0.0), (0.0, 1.0)}

    def test_single_vector(self):
        parts = local_split([bi(7, 2, (1, 0, 1))])
        assert len(parts) == 1
        assert parts[0].members == [(7, 2)]

    def test_identical_vectors_one_cluster(self):
        parts = local_split([bi(1, 1, (1, 1)), bi(2, 1, (1, 1))])
        assert len(parts) == 1
        assert sorted(d for d, _ in parts[0].members) == [1, 2]

    def test_empty_error(self):
        with pytest.raises(PartitioningError):
            local_split([])

    def test_representative_is_mean(self):
        parts = local_split([bi(1, 1, (1, 0)), bi(2, 1, (1, 1)), bi(3, 1, (0, 1))])
        for p in parts:
            bits = np.stack([[1, 0], [1, 1], [0, 1]])
            ids = [d for d, _ in p.members]
            np.testing.assert_allclose(p.representative, bits[[i - 1 for i in ids]].mean(axis=0))

    @settings(max_examples=200, deadline=None)
    @given(binary_rows())
    def test_matches_direct_l1_two_means(self, X):
        # Oracle: 2-means with explicit |x - c| distances and np.median
        # centers, seeded with the brute-force farthest pair.
        m = len(X)
        labels = np.zeros(m, dtype=int)
        if np.any(X != X[0]):
            pairs = [(np.abs(X[i] - X[j]).sum(), -i, -j) for i in range(m) for j in range(i + 1, m)]
            _, a, b = max(pairs)
            centers = np.stack([X[-a], X[-b]])
            labels = None
            for _ in range(20):
                d0 = np.abs(X - centers[0]).sum(axis=1)
                d1 = np.abs(X - centers[1]).sum(axis=1)
                new = (d1 < d0).astype(int)
                if labels is not None and np.array_equal(new, labels):
                    break
                labels = new
                if labels.min() == labels.max():
                    break
                centers = np.stack([np.median(X[labels == c], axis=0) for c in (0, 1)])
        want = [[i for i in range(m) if labels[i] == c] for c in (0, 1)]
        parts = local_split([bi(i, 1, row.astype(np.uint8)) for i, row in enumerate(X)])
        assert [[d for d, _ in p.members] for p in parts] == [g for g in want if g]


class TestFarthestPair:
    @settings(max_examples=300, deadline=None)
    @given(binary_rows())
    def test_matches_brute_force_l1(self, X):
        # Oracle: every ordered pair in row-major order, first maximum kept.
        best, want = -1.0, None
        for i in range(len(X)):
            for j in range(len(X)):
                d = np.abs(X[i] - X[j]).sum()
                if d > best:
                    best, want = d, (min(i, j), max(i, j))
        assert _farthest_pair(X) == want

    def test_lowest_indexes_on_ties(self):
        X = np.array([[0, 0], [1, 1], [0, 0], [1, 1]], dtype=np.float64)
        assert _farthest_pair(X) == (0, 1)


class TestGlobalCluster:
    def test_s1_everything_together(self):
        initials = [InitialPartition([(i, 1)], np.array([float(i)])) for i in range(5)]
        assignments = global_cluster(initials, 1)
        assert set(assignments.values()) == {0}
        assert set(assignments) == set(range(5))

    def test_corner_pairs(self):
        # Oracle: exhaustive 2-partition L1 cost minimum over 4 corner reps.
        reps = [np.array(v, dtype=float) for v in [(0, 0, 9, 9), (0, 0, 9, 8), (9, 9, 0, 0), (9, 8, 0, 0)]]
        initials = [InitialPartition([(i, 1)], r) for i, r in enumerate(reps)]
        best = min(
            (labels for labels in itertools.product((0, 1), repeat=4) if len(set(labels)) == 2),
            key=lambda labels: l1_cost(reps, labels),
        )
        assignments = global_cluster(initials, 2, seed=0)
        got = {frozenset(i for i in range(4) if assignments[i] == c) for c in set(assignments.values())}
        want = {
            frozenset(i for i, l in enumerate(best) if l == 0),
            frozenset(i for i, l in enumerate(best) if l == 1),
        }
        assert got == want

    def test_s_out_of_range(self):
        initials = [InitialPartition([(0, 1)], np.zeros(2))]
        with pytest.raises(PartitioningError):
            global_cluster(initials, 2)
        with pytest.raises(PartitioningError):
            global_cluster(initials, 0)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(5)
        initials = [
            InitialPartition([(i, 1)], rng.integers(0, 2, 10).astype(float)) for i in range(20)
        ]
        a = global_cluster(initials, 3, seed=11)
        b = global_cluster(initials, 3, seed=11)
        assert a == b


class TestSegmentDictionary:
    def test_one_partition_keeps_occurring_words(self):
        docs_bits = [bi(1, 1, (1, 0, 1)), bi(2, 1, (1, 0, 0))]
        d = KeywordDictionary.from_words(["a", "b", "c"])
        pset, compressed = segment_dictionary({1: 0, 2: 0}, docs_bits, d, 1)
        assert pset.sub_dictionaries == [["a", "c"]]  # "b" never occurs
        assert compressed[0].tolist() == [[1, 1], [1, 0]]

    def test_max_frequency_assignment(self):
        # "w" appears 3x in partition 0, 1x in partition 1 -> home partition 0,
        # and its column is absent from partition 1's compressed indexes.
        d = KeywordDictionary.from_words(["v", "w"])
        indexes = [
            bi(1, 1, (0, 1)),
            bi(2, 1, (0, 1)),
            bi(3, 1, (0, 1)),
            bi(4, 2, (1, 1)),
        ]
        pset, _ = segment_dictionary({1: 0, 2: 0, 3: 0, 4: 1}, indexes, d, 2)
        assert pset.home["w"] == (0, 0)
        assert "w" not in pset.sub_positions[1]
        assert pset.sub_dictionaries[1] == ["v"]

    def test_tie_goes_to_lowest_partition(self):
        d = KeywordDictionary.from_words(["w"])
        indexes = [bi(1, 1, (1,)), bi(2, 2, (1,))]
        pset, _ = segment_dictionary({1: 1, 2: 0}, indexes, d, 2)
        assert pset.home["w"][0] == 0

    def test_reconstruction(self):
        # Scattering compressed vectors back to n dims reproduces the original
        # bits restricted to the partition's assigned keywords.
        docs = synthetic_corpus(40, 80, 4, seed=5)
        dictionary = build_dictionary(docs)
        indexes = build_binary_indexes(docs, dictionary)
        pset, compressed = cluster_indexes(indexes, dictionary, 3, seed=1)
        by_id = {ix.doc_id: ix for ix in indexes}
        for p in range(pset.s):
            dims = [dictionary.position[w] for w in pset.sub_dictionaries[p]]
            for row, (doc_id, _owner) in enumerate(pset.members[p]):
                np.testing.assert_array_equal(
                    compressed[p][row], by_id[doc_id].bits[dims]
                )

    def test_missing_assignment_error(self):
        d = KeywordDictionary.from_words(["a"])
        with pytest.raises(PartitioningError, match="no partition assignment"):
            segment_dictionary({}, [bi(1, 1, (1,))], d, 1)


@pytest.fixture(scope="module")
def pset():
    docs = synthetic_corpus(60, 150, 6, seed=2)
    dictionary = build_dictionary(docs)
    indexes = build_binary_indexes(docs, dictionary)
    ps, compressed = cluster_indexes(indexes, dictionary, 4, seed=3)
    return ps, compressed, dictionary


class TestClusterIndexes:

    def test_disjoint_sub_dictionaries(self, pset):
        ps, _, _ = pset
        for i in range(ps.s):
            for j in range(i + 1, ps.s):
                assert not set(ps.sub_dictionaries[i]) & set(ps.sub_dictionaries[j])

    def test_compression_soundness(self, pset):
        # No all-zero retained dimension within any non-empty partition.
        ps, compressed, _ = pset
        for p in range(ps.s):
            if compressed[p].shape[0]:
                assert (compressed[p].sum(axis=0) > 0).all()

    def test_every_doc_assigned_once(self, pset):
        ps, _, _ = pset
        assert sum(len(m) for m in ps.members) == 60
        assert len(ps.assignments) == 60

    def test_stability(self):
        docs = synthetic_corpus(30, 70, 3, seed=8)
        dictionary = build_dictionary(docs)
        indexes = build_binary_indexes(docs, dictionary)
        a, _ = cluster_indexes(indexes, dictionary, 2, seed=4)
        b, _ = cluster_indexes(indexes, dictionary, 2, seed=4)
        assert a.assignments == b.assignments
        assert a.sub_dictionaries == b.sub_dictionaries

    def test_matches_recorded_assignments(self):
        """Assignments pinned to the values recorded before the Gram-matrix
        seeding of local_split (tests/data/build_golden.json)."""
        golden = json.loads((Path(__file__).parent / "data" / "build_golden.json").read_text())
        n_docs, n_words, owners, seed = golden["cluster"]["corpus"]
        docs = synthetic_corpus(n_docs, n_words, owners, seed=seed)
        dictionary = build_dictionary(docs)
        indexes = build_binary_indexes(docs, dictionary)
        ps, _ = cluster_indexes(indexes, dictionary, golden["cluster"]["s"])
        assert [ps.assignments[i] for i in range(n_docs)] == golden["cluster"]["assignments"]

    def test_owners_grouped_once(self, pset, monkeypatch):
        # One grouping pass over the corpus, then one splitter call per owner.
        _, _, dictionary = pset
        docs = synthetic_corpus(60, 150, 6, seed=2)
        indexes = build_binary_indexes(docs, dictionary)
        groupings, calls = [], []
        group = partitioning.partition_owners

        def counting_group(binary_indexes):
            groupings.append(len(binary_indexes))
            return group(binary_indexes)

        def splitter(owner_indexes):
            calls.append({ix.owner_id for ix in owner_indexes})
            return local_split(owner_indexes)

        monkeypatch.setattr(partitioning, "partition_owners", counting_group)
        cluster_indexes(indexes, dictionary, 4, seed=3, splitter=splitter)
        assert groupings == [60]
        assert calls == [{owner} for owner in sorted({ix.owner_id for ix in indexes})]

    def test_round_trip(self, tmp_path, pset):
        # The file holds the members and sub-dictionaries; the doc id map,
        # positions and homes are rebuilt from them.
        ps, _, _ = pset
        path = tmp_path / "partitions.json"
        save_partition_set(ps, path)
        payload = json.loads(path.read_text())
        assert sorted(payload) == ["members", "s", "sub_dictionaries", "version"]
        assert payload["version"] == 3
        assert load_partition_set(path) == ps

    def test_version_2_assignments_ignored(self, tmp_path, pset):
        ps, _, _ = pset
        path = tmp_path / "partitions.json"
        save_partition_set(ps, path)
        payload = json.loads(path.read_text())
        wrong = {str(doc_id): 0 for doc_id in ps.assignments}
        path.write_text(json.dumps({**payload, "version": 2, "assignments": wrong}))
        assert load_partition_set(path) == ps

    def test_bad_version(self, tmp_path):
        path = tmp_path / "partitions.json"
        path.write_text('{"version": 99}')
        with pytest.raises(PartitioningError, match="version"):
            load_partition_set(path)

    @pytest.mark.parametrize("damage", [
        "truncated", "cut-record", "not-an-object", "missing-key", "wrong-s", "doc-twice",
    ])
    def test_malformed_record(self, tmp_path, pset, damage):
        ps, _, _ = pset
        path = tmp_path / "partitions.json"
        save_partition_set(ps, path)
        text = path.read_text()
        payload = json.loads(text)
        members = payload["members"]
        damaged, message = {
            "truncated": (text[: len(text) // 2], "invalid JSON"),
            "cut-record": ('{"version": 2, "s": 2', "invalid JSON"),
            "not-an-object": ("[3]", "version"),
            "missing-key": (json.dumps({k: v for k, v in payload.items() if k != "members"}),
                            "missing keys \\['members'\\]"),
            "wrong-s": (json.dumps({**payload, "s": payload["s"] + 1}), "does not hold s=5"),
            "doc-twice": (json.dumps({**payload, "members": [members[0] + members[1][:1], *members[1:]]}),
                          "listed twice"),
        }[damage]
        path.write_text(damaged)
        with pytest.raises(PartitioningError, match=message):
            load_partition_set(path)


def test_default_partition_count():
    assert default_partition_count(1) == 1
    assert default_partition_count(1000) == 1
    assert default_partition_count(1001) == 2
    assert default_partition_count(4000) == 4
