import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from encsearch.corpus import Document, build_binary_indexes, build_dictionary, id_arrays, synthetic_corpus
from encsearch.errors import WeightingError
from encsearch.partitioning import cluster_indexes
from encsearch.weighting import (
    build_correlativity,
    compute_weights,
    normalize,
    weight_indexes,
    weighted_matrix,
)


class TestCorrelativity:
    def test_always_cooccurring(self):
        mat = np.array([[1, 1], [1, 1], [1, 1]], dtype=np.uint8)
        S = build_correlativity(mat)
        assert S[0, 1] == pytest.approx(1.0)

    def test_never_cooccurring(self):
        mat = np.array([[1, 0], [1, 0], [0, 1]], dtype=np.uint8)
        S = build_correlativity(mat)
        assert S[0, 1] == pytest.approx(0.0)

    def test_matches_cosine_oracle(self):
        # Oracle: direct double loop over incidence columns.
        rng = np.random.default_rng(4)
        mat = rng.integers(0, 2, size=(10, 6)).astype(np.uint8)
        S = build_correlativity(mat)
        X = mat.astype(float)
        for a in range(6):
            for b in range(6):
                if a == b:
                    assert S[a, b] == 1.0
                    continue
                na, nb = np.linalg.norm(X[:, a]), np.linalg.norm(X[:, b])
                want = float(X[:, a] @ X[:, b] / (na * nb)) if na > 0 and nb > 0 else 0.0
                assert S[a, b] == pytest.approx(want, abs=1e-12)

    def test_symmetric_unit_diagonal_in_range(self):
        rng = np.random.default_rng(1)
        mat = rng.integers(0, 2, size=(20, 9)).astype(np.uint8)
        S = build_correlativity(mat)
        np.testing.assert_array_equal(S, S.T)
        np.testing.assert_allclose(np.diag(S), 1.0)
        assert (S >= 0).all() and (S <= 1).all()

    def test_zero_column(self):
        mat = np.array([[1, 0], [1, 0]], dtype=np.uint8)
        S = build_correlativity(mat)
        assert S[0, 1] == 0.0
        assert S[1, 1] == 1.0  # diagonal forced even for absent keywords


def ids(*values):
    return np.array(values, dtype=np.int64)


def two_owner_fixture():
    """Hand-built 3-keyword partition (a, b, c): two owners, one doc each."""
    counts = np.array([[2.0, 1.0, 0.0],   # owner 1: tf a=2, b=1
                       [1.0, 0.0, 3.0]])  # owner 2: tf a=1, c=3
    owners = ids(1, 2)
    corr = build_correlativity(counts > 0)
    return counts, owners, corr


def reference_weights(docs_by_id, members, sub_dictionary, correlativity):
    """Reference: the per-document loop, reading each member's term counts
    from its document at the word's position in the sub-dictionary."""
    n = len(sub_dictionary)
    owners = sorted({owner for _, owner in members})
    tf = {o: np.zeros(n) for o in owners}
    df = {o: np.zeros(n) for o in owners}
    for doc_id, owner in members:
        for word, count in docs_by_id[doc_id].counts.items():
            if word in sub_dictionary:
                t = sub_dictionary.index(word)
                tf[owner][t] += count
                df[owner][t] += 1
    raw = {}
    for o in owners:
        with np.errstate(divide="ignore"):
            alpha = np.where(df[o] > 0, 1.0 / np.where(df[o] > 0, df[o], 1.0), 0.0)
        raw[o] = correlativity @ (tf[o] * alpha)
    w_max = np.zeros(n)
    for o in owners:
        w_max = np.maximum(w_max, raw[o])
    return {o: normalize(raw[o], w_max) for o in owners}, w_max


@st.composite
def partitions(draw):
    """A small partition's documents and members (ascending doc id).  Each
    document holds counts of 0 to 4 over the partition's keywords, so an
    owner may have several documents, lack a keyword in all of them, or
    hold a keyword more than once, plus one keyword homed elsewhere."""
    n = draw(st.integers(1, 6))
    words = [f"w{j}" for j in range(n)]
    owners = draw(st.lists(st.integers(-3, 9), min_size=1, max_size=4, unique=True))
    owned = [o for o in owners for _ in range(draw(st.integers(1, 4)))]
    doc_ids = sorted(draw(st.lists(st.integers(0, 1000), min_size=len(owned),
                                   max_size=len(owned), unique=True)))
    docs = {}
    for doc_id, owner in zip(doc_ids, draw(st.permutations(owned))):
        row = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        counts = {w: c for w, c in zip(words, row) if c} | {"elsewhere": 1}
        docs[doc_id] = Document(doc_id, owner, counts)
    members = [(d, docs[d].owner_id) for d in doc_ids]
    return docs, members, words


@settings(max_examples=200, deadline=None)
@given(partitions())
def test_compute_weights_matches_per_document_reference(partition):
    docs, members, words = partition
    counts = np.array([[docs[d].counts.get(w, 0) for w in words] for d, _ in members], dtype=float)
    owners = ids(*(o for _, o in members))
    corr = build_correlativity(counts > 0)
    w, w_max = compute_weights(counts, owners, corr)
    want, want_max = reference_weights(docs, members, words, corr)
    assert list(w) == list(want)
    for owner in want:
        assert w[owner].shape == want[owner].shape
        assert w[owner].tobytes() == want[owner].tobytes()
    assert w_max.shape == want_max.shape and w_max.tobytes() == want_max.tobytes()


class TestComputeWeights:
    def test_absent_keyword_zero(self):
        # With identity correlativity, normalized * w_max is the owner's AKP.
        counts, owners, _ = two_owner_fixture()
        w, w_max = compute_weights(counts, owners, np.eye(3))
        assert w[1][2] * w_max[2] == 0.0

    def test_single_owner_identity_corr_self_normalized(self):
        w, w_max = compute_weights(np.array([[2.0, 1.0]]), ids(1), np.eye(2))
        # AKP = (2, 1); with identity smoothing, normalized per keyword by the
        # only owner's own raw weight -> all present keywords weight 1.
        np.testing.assert_allclose(w[1] * w_max, [2.0, 1.0])
        np.testing.assert_allclose(w[1], [1.0, 1.0])

    def test_hand_computation(self):
        # Oracle: independent scalar recomputation of AKP, S@AKP and the
        # per-keyword normalization.
        counts, owners, corr = two_owner_fixture()
        w, w_max = compute_weights(counts, owners, corr)

        akp1 = np.array([2.0, 1.0, 0.0])  # tf/df: a 2/1, b 1/1, c absent
        akp2 = np.array([1.0, 0.0, 3.0])
        raw1 = corr @ akp1
        raw2 = corr @ akp2
        want_max = np.maximum(raw1, raw2)
        np.testing.assert_allclose(w_max, want_max)
        for owner, raw in ((1, raw1), (2, raw2)):
            want = np.where(want_max > 0, raw / np.where(want_max > 0, want_max, 1), 0.0)
            np.testing.assert_allclose(w[owner], want)
            np.testing.assert_allclose(w[owner] * w_max, raw)
        # With identity correlativity, normalized * w_max is each owner's AKP.
        w, w_max = compute_weights(counts, owners, np.eye(3))
        np.testing.assert_allclose(w[1] * w_max, akp1)
        np.testing.assert_allclose(w[2] * w_max, akp2)

    def test_per_keyword_max_is_one(self):
        docs = synthetic_corpus(30, 40, 4, seed=6)
        dictionary = build_dictionary(docs)
        counts = build_binary_indexes(docs, dictionary)
        pset, compressed = cluster_indexes(counts, *id_arrays(docs), dictionary, 2, seed=0)
        for p in range(pset.s):
            corr = build_correlativity(compressed[p] > 0)
            owners = ids(*(o for _, o in pset.members[p]))
            w, w_max = compute_weights(compressed[p], owners, corr)
            stacked = np.stack(list(w.values()))
            for t in range(stacked.shape[1]):
                if w_max[t] > 0:
                    assert stacked[:, t].max() == pytest.approx(1.0)
            assert (stacked >= 0).all() and (stacked <= 1 + 1e-12).all()

    def test_monotonicity_in_term_frequency(self):
        # Adding occurrences of a keyword never decreases that owner's AKP.
        w, w_max = compute_weights(np.array([[1.0, 1.0]]), ids(1), np.eye(2))
        wa = w[1] * w_max  # the AKP, under identity correlativity
        w, w_max = compute_weights(np.array([[3.0, 1.0]]), ids(1), np.eye(2))
        wb = w[1] * w_max
        assert (wb >= wa).all()

    def test_shape_mismatch_error(self):
        counts, owners, _ = two_owner_fixture()
        with pytest.raises(WeightingError, match="correlativity shape"):
            compute_weights(counts, owners, np.eye(2))


class TestWeightIndexes:
    def test_elementwise_product(self):
        w = np.array([0.5, 0.9, 1.0])
        bits = np.array([[1, 0, 1]], dtype=np.uint8)
        out = weighted_matrix(bits, weight_indexes(ids(1), {1: w}))
        np.testing.assert_allclose(out, [[0.5, 0.0, 1.0]])

    def test_zero_weights(self):
        w = np.zeros(2)
        out = weighted_matrix(np.array([[1, 1]], dtype=np.uint8), weight_indexes(ids(1), {1: w}))
        assert not out.any()

    def test_missing_owner_error(self):
        with pytest.raises(WeightingError, match="owner 9"):
            weight_indexes(ids(1, 9), {1: np.zeros(2)})

    def test_dimension_mismatch_error(self):
        w = np.zeros(3)
        with pytest.raises(WeightingError, match="mismatch"):
            weighted_matrix(np.ones((1, 2), dtype=np.uint8), weight_indexes(ids(1), {1: w}))

    def test_matches_oracle_on_toy_partition(self):
        counts, owners, corr = two_owner_fixture()
        w, _ = compute_weights(counts, owners, corr)
        owner_weights = weight_indexes(owners, w)
        mat = weighted_matrix(counts > 0, owner_weights)
        assert mat.shape == owner_weights.shape == counts.shape
        assert mat.dtype == np.float64
        for row, owner in enumerate(owners.tolist()):
            np.testing.assert_array_equal(owner_weights[row], w[owner])
            np.testing.assert_allclose(mat[row], (counts[row] > 0) * w[owner])
