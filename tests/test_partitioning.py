import itertools
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from encsearch.corpus import build_binary_indexes, build_dictionary, id_arrays, synthetic_corpus
from encsearch import partitioning
from encsearch.errors import PartitioningError
from encsearch.partitioning import (
    PartitionSet,
    _bit_median,
    _farthest_pair,
    cluster_indexes,
    default_partition_count,
    global_cluster,
    load_partition_set,
    local_split,
    save_partition_set,
    segment_dictionary,
)


def rows(*bits):
    return np.array(bits, dtype=np.uint8)


def ids(*values):
    return np.array(values, dtype=np.int64)


def indexed(docs):
    """The term-count matrix, doc ids, owner ids and dictionary of a corpus."""
    dictionary = build_dictionary(docs)
    return (build_binary_indexes(docs, dictionary), *id_arrays(docs), dictionary)


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
        best = min(
            (labels for labels in itertools.product((0, 1), repeat=3) if len(set(labels)) == 2),
            key=lambda labels: l1_cost(vectors, labels),
        )
        parts = local_split(np.stack(vectors).astype(np.uint8))
        assert len(parts) == 2
        got = {frozenset(p.tolist()) for p in parts}
        want = {
            frozenset(i for i, l in enumerate(best) if l == 0),
            frozenset(i for i, l in enumerate(best) if l == 1),
        }
        assert got == want

    def test_single_vector(self):
        parts = local_split(rows((1, 0, 1)))
        assert [p.tolist() for p in parts] == [[0]]

    def test_identical_vectors_one_cluster(self):
        parts = local_split(rows((1, 1), (1, 1)))
        assert [p.tolist() for p in parts] == [[0, 1]]

    def test_empty_error(self):
        with pytest.raises(PartitioningError):
            local_split(np.zeros((0, 3), dtype=np.uint8))

    def test_representative_is_mean(self, monkeypatch):
        # cluster_indexes hands global_cluster the mean of each local
        # cluster's rows, owners in ascending id order.
        bits = rows((1, 0), (1, 1), (0, 1), (1, 1))
        owners = ids(5, 5, 5, 2)
        seen = []

        def capture(R, s, seed=0):
            seen.append(R)
            return np.zeros(len(R), dtype=int)

        monkeypatch.setattr(partitioning, "global_cluster", capture)
        cluster_indexes(bits, ids(1, 2, 3, 4), owners, ["a", "b"], 1)
        split = local_split(bits[:3])
        assert len(split) == 2
        want = [[1.0, 1.0]] + [bits[p].mean(axis=0).tolist() for p in split]
        assert seen[0].tolist() == want

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
        parts = local_split(X.astype(np.uint8))
        assert [p.tolist() for p in parts] == [g for g in want if g]


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
        labels = global_cluster(np.arange(5.0)[:, None], 1)
        assert labels.tolist() == [0] * 5

    def test_corner_pairs(self):
        # Oracle: exhaustive 2-partition L1 cost minimum over 4 corner reps.
        reps = [np.array(v, dtype=float) for v in [(0, 0, 9, 9), (0, 0, 9, 8), (9, 9, 0, 0), (9, 8, 0, 0)]]
        best = min(
            (labels for labels in itertools.product((0, 1), repeat=4) if len(set(labels)) == 2),
            key=lambda labels: l1_cost(reps, labels),
        )
        labels = global_cluster(np.stack(reps), 2, seed=0)
        got = {frozenset(np.flatnonzero(labels == c).tolist()) for c in set(labels.tolist())}
        want = {
            frozenset(i for i, l in enumerate(best) if l == 0),
            frozenset(i for i, l in enumerate(best) if l == 1),
        }
        assert got == want

    def test_s_out_of_range(self):
        R = np.zeros((1, 2))
        with pytest.raises(PartitioningError):
            global_cluster(R, 2)
        with pytest.raises(PartitioningError):
            global_cluster(R, 0)

    def test_repeated_representatives_fill_every_partition(self):
        # Re-seating an empty cluster must not empty another one: with two
        # equal representatives, no seed may leave a partition empty (and
        # its median NaN).
        R = np.array([[1, 0], [0, 0], [0, 0], [0, 1]], dtype=np.float64)
        for seed in range(5):
            assert sorted(global_cluster(R, 4, seed=seed).tolist()) == [0, 1, 2, 3]

    @settings(max_examples=300, deadline=None)
    @given(binary_rows(), st.data())
    def test_no_empty_partition_or_nan_center(self, R, data):
        s = data.draw(st.integers(1, len(R)), label="s")
        seed = data.draw(st.integers(0, 5), label="seed")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            labels = global_cluster(R, s, seed=seed)
        assert np.bincount(labels, minlength=s).min() >= 1
        centers = np.stack([np.median(R[labels == c], axis=0) for c in range(s)])
        assert not np.isnan(centers).any()

    def test_deterministic_under_seed(self):
        R = np.random.default_rng(5).integers(0, 2, (20, 10)).astype(float)
        a = global_cluster(R, 3, seed=11)
        b = global_cluster(R, 3, seed=11)
        assert a.tolist() == b.tolist()


class TestSegmentDictionary:
    def test_one_partition_keeps_occurring_words(self):
        d = ["a", "b", "c"]
        counts = np.array([[2, 0, 1], [1, 0, 0]], dtype=np.float64)
        pset, compressed = segment_dictionary(ids(0, 0), counts, ids(1, 2), ids(1, 1), d, 1)
        assert pset.sub_dictionaries == [["a", "c"]]  # "b" never occurs
        assert compressed[0].tolist() == [[2, 1], [1, 0]]  # the counts, cut
        assert compressed[0].dtype == np.float64

    def test_rows_sorted_by_doc_id(self):
        d = ["a", "b"]
        pset, compressed = segment_dictionary(
            ids(0, 1, 0), rows((1, 0), (1, 1), (0, 1)), ids(9, 4, 2), ids(3, 1, 7), d, 2
        )
        assert pset.members == [[(2, 7), (9, 3)], [(4, 1)]]
        assert pset.assignments == {2: 0, 9: 0, 4: 1}
        assert compressed[0].tolist() == [[0, 1], [1, 0]]
        assert compressed[1].shape == (1, 0)

    def test_empty_partition(self):
        d = ["a"]
        pset, compressed = segment_dictionary(ids(0, 0), rows((1,), (1,)), ids(1, 2), ids(1, 1), d, 2)
        assert pset.members[1] == [] and pset.sub_dictionaries[1] == []
        assert compressed[1].shape == (0, 0) and compressed[1].dtype == np.uint8

    def test_max_frequency_assignment(self):
        # "w" is in 3 documents of partition 0 and in 1 of partition 1, 5
        # times there: document frequency, not term count, makes partition 0
        # its home, and its column is absent from partition 1's matrix.
        d = ["v", "w"]
        counts = rows((0, 1), (0, 1), (0, 1), (1, 5))
        pset, _ = segment_dictionary(ids(0, 0, 0, 1), counts, ids(1, 2, 3, 4), ids(1, 1, 1, 2), d, 2)
        assert pset.home["w"] == (0, 0)
        assert "w" not in pset.sub_dictionaries[1]
        assert pset.sub_dictionaries[1] == ["v"]

    def test_tie_goes_to_lowest_partition(self):
        d = ["w"]
        pset, _ = segment_dictionary(ids(1, 0), rows((1,), (1,)), ids(1, 2), ids(1, 2), d, 2)
        assert pset.home["w"][0] == 0

    def test_reconstruction(self):
        # Scattering compressed vectors back to n dims reproduces the original
        # counts restricted to the partition's assigned keywords.
        counts, doc_ids, owner_ids, dictionary = indexed(synthetic_corpus(40, 80, 4, seed=5))
        pset, compressed = cluster_indexes(counts, doc_ids, owner_ids, dictionary, 3, seed=1)
        row_of = {doc_id: i for i, doc_id in enumerate(doc_ids.tolist())}
        for p in range(pset.s):
            dims = [dictionary.index(w) for w in pset.sub_dictionaries[p]]
            for row, (doc_id, _owner) in enumerate(pset.members[p]):
                np.testing.assert_array_equal(compressed[p][row], counts[row_of[doc_id], dims])

    def test_missing_assignment_error(self):
        # Every row needs exactly one partition id in [0, s).
        d = ["a"]
        for part in ([0], [0, 2], [-1, 0]):
            with pytest.raises(PartitioningError, match="partition id"):
                segment_dictionary(ids(*part), rows((1,), (1,)), ids(1, 2), ids(1, 1), d, 2)


# ---------------------------------------------------------------------------
# Reference: the per-document algorithm.  Each document is an (id, owner,
# bits) entry; entries are regrouped by owner, split into member lists with a
# mean-of-bits representative, mapped doc id -> partition and summed one
# document at a time.  The matrix path must give the same partition set and
# the same compressed matrices.

def reference_local_split(entries):
    X = np.stack([bits for _, _, bits in entries]).astype(np.float64)
    members = [(doc_id, owner) for doc_id, owner, _ in entries]
    if len(X) == 1 or not np.any(X != X[0]):
        return [(members, X.mean(axis=0))]
    a, b = _farthest_pair(X)
    centers = X[[a, b]]
    labels = None
    for _ in range(partitioning._LOCAL_MAX_ITER):
        d = centers.sum(axis=1) + X @ (1.0 - 2.0 * centers).T
        new_labels = (d[:, 1] < d[:, 0]).astype(int)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        if labels.min() == labels.max():
            break
        centers = np.stack([_bit_median(X[labels == c]) for c in (0, 1)])
    return [
        ([members[i] for i in np.flatnonzero(labels == c)], X[labels == c].mean(axis=0))
        for c in (0, 1) if np.any(labels == c)
    ]


def reference_initials(entries):
    by_owner = {}
    for entry in entries:
        by_owner.setdefault(entry[1], []).append(entry)
    return [ip for owner in sorted(by_owner) for ip in reference_local_split(by_owner[owner])]


def reference_cluster(entries, dictionary, s, seed):
    """The partition set and the compressed 0/1 matrices of the per-document
    algorithm; ``entries`` hold 0/1 rows."""
    initials = reference_initials(entries)
    labels = global_cluster(np.stack([rep for _, rep in initials]), s, seed=seed)
    assignments = {
        doc_id: int(label) for (members, _), label in zip(initials, labels) for doc_id, _ in members
    }
    df = np.zeros((s, len(dictionary)), dtype=np.int64)
    members = [[] for _ in range(s)]
    by_id = {}
    for doc_id, owner, bits in entries:
        df[assignments[doc_id]] += bits
        members[assignments[doc_id]].append((doc_id, owner))
        by_id[doc_id] = bits
    for group in members:
        group.sort()
    home_part = df.argmax(axis=0)
    sub_dictionaries = [[] for _ in range(s)]
    for j, word in enumerate(dictionary):
        if df[home_part[j], j] > 0:
            sub_dictionaries[home_part[j]].append(word)
    compressed = []
    for p in range(s):
        dims = [dictionary.index(w) for w in sub_dictionaries[p]]
        mat = np.zeros((len(members[p]), len(dims)), dtype=np.uint8)
        for row, (doc_id, _) in enumerate(members[p]):
            mat[row] = by_id[doc_id][dims]
        compressed.append(mat)
    return PartitionSet.from_members(sub_dictionaries, members), compressed


@st.composite
def owned_corpora(draw):
    """(doc ids, owner ids, term counts) with rows drawn from a few distinct
    ones, so duplicate incidence rows are common.  An owner may hold a
    single document or only identical ones, and the owners' documents come
    interleaved under unsorted ids."""
    n = draw(st.integers(1, 8))
    bases = draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=1, max_size=6))
    owners = draw(st.lists(st.integers(-3, 40), min_size=1, max_size=5, unique=True))
    entries = []
    for owner in owners:
        picks = draw(st.lists(st.integers(0, len(bases) - 1), min_size=1, max_size=8))
        if draw(st.booleans()):
            picks = [picks[0]] * len(picks)
        entries.extend((owner, bases[i]) for i in picks)
    order = draw(st.permutations(range(len(entries))))
    doc_ids = draw(st.lists(st.integers(-100, 10**6), min_size=len(entries),
                            max_size=len(entries), unique=True))
    counts = np.array([entries[i][1] for i in order], dtype=np.float64).reshape(len(entries), n)
    return ids(*doc_ids), ids(*(entries[i][0] for i in order)), counts


@settings(max_examples=300, deadline=None)
@given(owned_corpora(), st.data())
def test_cluster_indexes_matches_per_document_reference(corpus, data):
    # The matrix path reads term counts; the reference reads their 0/1
    # incidence.  Each compressed matrix is the cut of the counts.
    doc_ids, owner_ids, counts = corpus
    dictionary = [f"w{j}" for j in range(counts.shape[1])]
    entries = list(zip(doc_ids.tolist(), owner_ids.tolist(), (counts > 0).astype(np.uint8)))
    s = data.draw(st.integers(1, len(reference_initials(entries))), label="s")
    seed = data.draw(st.integers(0, 3), label="seed")
    pset, compressed = cluster_indexes(counts, doc_ids, owner_ids, dictionary, s, seed=seed)
    want_pset, want_compressed = reference_cluster(entries, dictionary, s, seed)
    assert pset == want_pset
    assert len(compressed) == len(want_compressed)
    row_of = {doc_id: i for i, doc_id in enumerate(doc_ids.tolist())}
    for p, (got, want) in enumerate(zip(compressed, want_compressed)):
        assert got.dtype == np.float64 and got.shape == want.shape
        np.testing.assert_array_equal(got > 0, want.astype(bool))
        rows_p = [row_of[doc_id] for doc_id, _owner in pset.members[p]]
        dims = [dictionary.index(w) for w in pset.sub_dictionaries[p]]
        np.testing.assert_array_equal(got, counts[np.ix_(rows_p, dims)])


@pytest.fixture(scope="module")
def pset():
    bits, doc_ids, owner_ids, dictionary = indexed(synthetic_corpus(60, 150, 6, seed=2))
    ps, compressed = cluster_indexes(bits, doc_ids, owner_ids, dictionary, 4, seed=3)
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
        corpus = indexed(synthetic_corpus(30, 70, 3, seed=8))
        a, _ = cluster_indexes(*corpus, 2, seed=4)
        b, _ = cluster_indexes(*corpus, 2, seed=4)
        assert a.assignments == b.assignments
        assert a.sub_dictionaries == b.sub_dictionaries

    def test_matches_recorded_assignments(self):
        """Assignments pinned to the values recorded before the Gram-matrix
        seeding of local_split (tests/data/build_golden.json)."""
        golden = json.loads((Path(__file__).parent / "data" / "build_golden.json").read_text())
        n_docs, n_words, owners, seed = golden["cluster"]["corpus"]
        corpus = indexed(synthetic_corpus(n_docs, n_words, owners, seed=seed))
        ps, _ = cluster_indexes(*corpus, golden["cluster"]["s"])
        assert [ps.assignments[i] for i in range(n_docs)] == golden["cluster"]["assignments"]

    def test_owners_grouped_once(self):
        # One splitter call per owner, owners in ascending id order, each
        # with that owner's 0/1 rows in corpus order.
        docs = synthetic_corpus(60, 150, 6, seed=2)
        docs = [d for d in docs if d.owner_id != 3] + [d for d in docs if d.owner_id == 3]
        counts, doc_ids, owner_ids, dictionary = indexed(docs)
        calls = []

        def splitter(owner_bits):
            calls.append(owner_bits)
            return local_split(owner_bits)

        cluster_indexes(counts, doc_ids, owner_ids, dictionary, 4, seed=3, splitter=splitter)
        assert len(calls) == 6
        for owner, got in enumerate(calls):
            np.testing.assert_array_equal(got, counts[owner_ids == owner] > 0)

    def test_round_trip(self, tmp_path, pset):
        # The file holds the members and sub-dictionaries; the doc id map and
        # the homes are rebuilt from them.
        ps, _, _ = pset
        path = tmp_path / "partitions.json"
        save_partition_set(ps, path)
        payload = json.loads(path.read_text())
        assert sorted(payload) == ["members", "s", "sub_dictionaries", "version"]
        assert payload["version"] == 3
        assert load_partition_set(path) == ps

    def test_version_2_rejected(self, tmp_path, pset):
        """A version-2 record, which also held each document's partition,
        fails the load and names the file."""
        ps, _, _ = pset
        path = tmp_path / "partitions.json"
        save_partition_set(ps, path)
        payload = json.loads(path.read_text())
        assignments = {str(doc_id): p for doc_id, p in ps.assignments.items()}
        path.write_text(json.dumps({**payload, "version": 2, "assignments": assignments}))
        with pytest.raises(PartitioningError, match=re.escape(f"{path}: not a version-3 partition set")):
            load_partition_set(path)

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

    @pytest.mark.parametrize("field, damage, message", [
        ("s", True, "s must be an integer >= 1, got True"),
        ("s", 0, "s must be an integer >= 1, got 0"),
        ("s", 4.0, "s must be an integer >= 1, got 4.0"),
        ("s", "4", "s must be an integer >= 1, got '4'"),
        ("sub_dictionaries", "abcd", "sub_dictionaries does not hold s=4 partitions"),
        ("sub_dictionaries", ["a", "b", "c", "d"], "sub_dictionaries holds a partition that is not a list"),
        ("sub_dictionaries", "int word", "sub_dictionaries holds 7, not a word"),
        ("sub_dictionaries", "word twice", "sub_dictionaries lists a word twice"),
        ("members", 5, "members does not hold s=4 partitions"),
        ("members", "member 5", "members holds 5, not a \\[doc id, owner id\\] pair"),
        ("members", "member [1, 2, 3]", "members holds \\[1, 2, 3\\], not a"),
        ("members", "member ['a', 1]", "members holds \\['a', 1\\], not a"),
        ("members", "member [true, 1]", "members holds \\[True, 1\\], not a"),
        ("members", "member [1.0, 1]", "members holds \\[1.0, 1\\], not a"),
        ("members", "member 2**63", "members holds \\[9223372036854775808, 1\\], not a"),
    ])
    def test_field_of_the_wrong_type(self, tmp_path, pset, field, damage, message):
        """Each field of the wrong type fails the load with one error that
        names the file and the field, not a numpy or Python one later."""
        ps, _, _ = pset
        path = tmp_path / "partitions.json"
        save_partition_set(ps, path)
        payload = json.loads(path.read_text())
        words, members = payload["sub_dictionaries"], payload["members"]
        value = {
            "int word": [[7, *words[0][1:]], *words[1:]],
            "word twice": [words[0], [*words[1], words[0][0]], *words[2:]],
            "member 5": [[5, *members[0][1:]], *members[1:]],
            "member [1, 2, 3]": [[[1, 2, 3], *members[0][1:]], *members[1:]],
            "member ['a', 1]": [[["a", 1], *members[0][1:]], *members[1:]],
            "member [true, 1]": [[[True, 1], *members[0][1:]], *members[1:]],
            "member [1.0, 1]": [[[1.0, 1], *members[0][1:]], *members[1:]],
            "member 2**63": [[[2**63, 1], *members[0][1:]], *members[1:]],
        }.get(damage, damage) if isinstance(damage, str) else damage
        path.write_text(json.dumps({**payload, field: value}))
        with pytest.raises(PartitioningError, match=re.escape(f"{path}: ") + message):
            load_partition_set(path)

    def test_largest_int64_ids_load(self, tmp_path):
        words = [["a", "b"]]
        members = [[(2**63 - 1, -(2**63)), (0, 0)]]
        ps = PartitionSet.from_members(words, members)
        path = tmp_path / "partitions.json"
        save_partition_set(ps, path)
        assert load_partition_set(path) == ps


def test_default_partition_count():
    assert default_partition_count(1) == 1
    assert default_partition_count(1000) == 1
    assert default_partition_count(1001) == 2
    assert default_partition_count(4000) == 4
