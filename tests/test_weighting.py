import numpy as np
import pytest

from encsearch.corpus import Document, build_binary_indexes, build_dictionary, id_arrays, synthetic_corpus
from encsearch.errors import WeightingError
from encsearch.partitioning import cluster_indexes
from encsearch.weighting import (
    build_correlativity,
    compute_weights,
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


def two_owner_fixture():
    """Hand-built 3-keyword partition: two owners, one doc each."""
    docs = {
        1: Document.from_terms(1, 1, ["a", "a", "b"]),   # owner 1: tf a=2, b=1
        2: Document.from_terms(2, 2, ["a", "c", "c", "c"]),  # owner 2: tf a=1, c=3
    }
    members = [(1, 1), (2, 2)]
    sub_positions = {"a": 0, "b": 1, "c": 2}
    compressed = np.array([[1, 1, 0], [1, 0, 1]], dtype=np.uint8)
    corr = build_correlativity(compressed)
    return docs, members, sub_positions, compressed, corr


class TestComputeWeights:
    def test_absent_keyword_zero(self):
        # With identity correlativity, normalized * w_max is the owner's AKP.
        docs, members, pos, _, _ = two_owner_fixture()
        w, w_max = compute_weights(docs, members, pos, np.eye(3))
        assert w[1][pos["c"]] * w_max[pos["c"]] == 0.0

    def test_single_owner_identity_corr_self_normalized(self):
        docs = {1: Document.from_terms(1, 1, ["a", "a", "b"])}
        pos = {"a": 0, "b": 1}
        w, w_max = compute_weights(docs, [(1, 1)], pos, np.eye(2))
        # AKP = (2, 1); with identity smoothing, normalized per keyword by the
        # only owner's own raw weight -> all present keywords weight 1.
        np.testing.assert_allclose(w[1] * w_max, [2.0, 1.0])
        np.testing.assert_allclose(w[1], [1.0, 1.0])

    def test_hand_computation(self):
        # Oracle: independent scalar recomputation of AKP, S@AKP and the
        # per-keyword normalization.
        docs, members, pos, compressed, corr = two_owner_fixture()
        w, w_max = compute_weights(docs, members, pos, corr)

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
        w, w_max = compute_weights(docs, members, pos, np.eye(3))
        np.testing.assert_allclose(w[1] * w_max, akp1)
        np.testing.assert_allclose(w[2] * w_max, akp2)

    def test_per_keyword_max_is_one(self):
        docs = synthetic_corpus(30, 40, 4, seed=6)
        dictionary = build_dictionary(docs)
        bits = build_binary_indexes(docs, dictionary)
        pset, compressed = cluster_indexes(bits, *id_arrays(docs), dictionary, 2, seed=0)
        by_id = {d.doc_id: d for d in docs}
        for p in range(pset.s):
            corr = build_correlativity(compressed[p])
            w, w_max = compute_weights(by_id, pset.members[p], pset.sub_positions[p], corr)
            stacked = np.stack(list(w.values()))
            for t in range(stacked.shape[1]):
                if w_max[t] > 0:
                    assert stacked[:, t].max() == pytest.approx(1.0)
            assert (stacked >= 0).all() and (stacked <= 1 + 1e-12).all()

    def test_monotonicity_in_term_frequency(self):
        # Adding occurrences of a keyword never decreases that owner's AKP.
        base = {1: Document.from_terms(1, 1, ["a", "b"])}
        more = {1: Document.from_terms(1, 1, ["a", "a", "a", "b"])}
        pos = {"a": 0, "b": 1}
        w, w_max = compute_weights(base, [(1, 1)], pos, np.eye(2))
        wa = w[1] * w_max  # the AKP, under identity correlativity
        w, w_max = compute_weights(more, [(1, 1)], pos, np.eye(2))
        wb = w[1] * w_max
        assert (wb >= wa).all()

    def test_shape_mismatch_error(self):
        docs, members, pos, _, _ = two_owner_fixture()
        with pytest.raises(WeightingError, match="correlativity shape"):
            compute_weights(docs, members, pos, np.eye(2))


class TestWeightIndexes:
    def test_elementwise_product(self):
        w = np.array([0.5, 0.9, 1.0])
        bits = np.array([[1, 0, 1]], dtype=np.uint8)
        out = weighted_matrix(bits, weight_indexes([(1, 1)], {1: w}))
        np.testing.assert_allclose(out, [[0.5, 0.0, 1.0]])

    def test_zero_weights(self):
        w = np.zeros(2)
        out = weighted_matrix(np.array([[1, 1]], dtype=np.uint8), weight_indexes([(1, 1)], {1: w}))
        assert not out.any()

    def test_missing_owner_error(self):
        with pytest.raises(WeightingError, match="owner 9"):
            weight_indexes([(1, 1), (2, 9)], {1: np.zeros(2)})

    def test_dimension_mismatch_error(self):
        w = np.zeros(3)
        with pytest.raises(WeightingError, match="mismatch"):
            weighted_matrix(np.ones((1, 2), dtype=np.uint8), weight_indexes([(1, 1)], {1: w}))

    def test_matches_oracle_on_toy_partition(self):
        docs, members, pos, compressed, corr = two_owner_fixture()
        w, _ = compute_weights(docs, members, pos, corr)
        owner_weights = weight_indexes(members, w)
        mat = weighted_matrix(compressed, owner_weights)
        assert mat.shape == owner_weights.shape == compressed.shape
        assert mat.dtype == np.float64
        for row, (doc_id, owner) in enumerate(members):
            np.testing.assert_array_equal(owner_weights[row], w[owner])
            np.testing.assert_allclose(mat[row], compressed[row] * w[owner])
