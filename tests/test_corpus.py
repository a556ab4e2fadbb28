import numpy as np
import pytest

from encsearch.corpus import (
    Document,
    build_binary_indexes,
    build_dictionary,
    document_from_record,
    id_arrays,
    load_corpus,
    synthetic_corpus,
    tokenize,
)
from encsearch.errors import CorpusError


def doc(doc_id, owner_id, terms):
    return Document.from_terms(doc_id, owner_id, terms)


class TestTokenize:
    def test_lowercase_and_punctuation(self):
        assert tokenize("Hello, World! it's fine.") == ["hello", "world", "it", "s", "fine"]

    def test_whitespace_split(self):
        assert tokenize("a\tb\n c") == ["a", "b", "c"]


class TestDocument:
    def test_empty_rejected(self):
        with pytest.raises(CorpusError):
            Document(1, 1, {})

    @pytest.mark.parametrize("count", [0, -2, 1.0, 2.5, True, "3", None])
    def test_count_not_positive_integer_rejected(self, count):
        # A zero count would set a keyword's incidence bit with weight 0.
        with pytest.raises(CorpusError, match="not a positive integer"):
            Document(0, 0, {"a": 1, "b": count})

    def test_numpy_integer_count_accepted(self):
        assert Document(0, 0, {"a": np.int64(3)}).counts == {"a": 3}

    @pytest.mark.parametrize("field", ["doc_id", "owner_id"])
    @pytest.mark.parametrize("value", [1.5, 2.0, np.float64(2), "3", True, np.bool_(True), None, 2**63, -(2**63) - 1])
    def test_id_not_int64_rejected(self, field, value):
        # The build carries ids in int64 arrays: a float would be truncated.
        ids = {"doc_id": 1, "owner_id": 1, field: value}
        with pytest.raises(CorpusError, match="must be 64-bit integers"):
            Document(ids["doc_id"], ids["owner_id"], {"a": 1})

    def test_numpy_integer_ids_accepted(self):
        d = Document(np.int64(2**63 - 1), np.int32(-4), {"a": 1})
        assert id_arrays([d])[0].tolist() == [2**63 - 1]
        assert id_arrays([d])[1].tolist() == [-4]

    def test_counts_retained(self):
        d = Document.from_text(1, 2, "cat cat dog")
        assert d.counts == {"cat": 2, "dog": 1}
        assert set(d.counts) == {"cat", "dog"}


class TestBuildDictionary:
    def test_single_doc_sorted_union(self):
        assert build_dictionary([doc(1, 1, ["b", "a"])]) == ["a", "b"]

    def test_duplicate_collapse(self):
        assert build_dictionary([doc(1, 1, ["x"]), doc(2, 1, ["x", "y"])]) == ["x", "y"]

    def test_empty_corpus_error(self):
        with pytest.raises(CorpusError):
            build_dictionary([])

    def test_duplicate_doc_id_error(self):
        with pytest.raises(CorpusError, match="duplicate doc_id"):
            build_dictionary([doc(1, 1, ["a"]), doc(1, 2, ["b"])])


class TestBinaryIndexes:
    def test_single_term(self):
        assert build_binary_indexes([doc(1, 1, ["a", "a"])], ["a", "b"]).tolist() == [[2, 0]]

    def test_both_terms(self):
        assert build_binary_indexes([doc(1, 1, ["b", "a", "b", "b"])], ["a", "b"]).tolist() == [[1, 3]]

    def test_out_of_dictionary_named(self):
        with pytest.raises(CorpusError, match="'zebra'"):
            build_binary_indexes([doc(1, 1, ["zebra"])], ["a"])

    def test_matches_membership_oracle(self):
        # Oracle: direct nested-loop count lookup over a random 50-doc corpus,
        # whose Zipf draws repeat terms.
        docs = synthetic_corpus(50, 120, 5, seed=3)
        dictionary = build_dictionary(docs)
        counts = build_binary_indexes(docs, dictionary)
        assert counts.max() > 1
        for i, d in enumerate(docs):
            for j, w in enumerate(dictionary):
                assert counts[i, j] == d.counts.get(w, 0)

    def test_round_trip_terms(self):
        docs = synthetic_corpus(20, 60, 4, seed=9)
        dictionary = build_dictionary(docs)
        for d, row in zip(docs, build_binary_indexes(docs, dictionary)):
            recovered = {dictionary[j] for j in np.flatnonzero(row)}
            assert recovered == set(d.counts)

    def test_dimension(self):
        docs = synthetic_corpus(10, 40, 3, seed=1)
        dictionary = build_dictionary(docs)
        counts = build_binary_indexes(docs, dictionary)
        assert counts.shape == (10, len(dictionary)) and counts.dtype == np.float64

    def test_id_arrays_in_row_order(self):
        docs = [doc(7, 2, ["a"]), doc(-3, 9, ["b"]), doc(5, 2, ["a"])]
        doc_ids, owner_ids = id_arrays(docs)
        assert doc_ids.dtype == owner_ids.dtype == np.int64
        assert doc_ids.tolist() == [7, -3, 5] and owner_ids.tolist() == [2, 9, 2]


class TestSyntheticCorpus:
    def test_exact_dictionary_size(self):
        docs = synthetic_corpus(30, 200, 5, seed=0)
        assert len(build_dictionary(docs)) == 200

    def test_every_owner_present(self):
        docs = synthetic_corpus(25, 50, 5, seed=0)
        assert {d.owner_id for d in docs} == set(range(5))

    def test_deterministic(self):
        a = synthetic_corpus(15, 40, 3, seed=7)
        b = synthetic_corpus(15, 40, 3, seed=7)
        assert [d.counts for d in a] == [d.counts for d in b]

    def test_invalid_args(self):
        with pytest.raises(CorpusError):
            synthetic_corpus(0, 10, 1)


class TestIo:
    def test_corpus_round_trip(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"doc_id": 4, "owner_id": 2, "terms": ["kw1", "kw0", "kw1", "kw1"]}\n'
            "\n"
            '{"doc_id": 9, "owner_id": 0, "terms": ["kw2", "kw2"]}\n'
        )
        loaded = load_corpus(path)
        assert [(d.doc_id, d.owner_id, dict(d.counts)) for d in loaded] == [
            (4, 2, {"kw0": 1, "kw1": 3}),
            (9, 0, {"kw2": 2}),
        ]

    def test_text_records(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"doc_id": 1, "owner_id": 1, "text": "Cats and Dogs"}\n')
        (d,) = load_corpus(path)
        assert set(d.counts) == {"cats", "and", "dogs"}

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("not json\n")
        with pytest.raises(CorpusError, match="invalid JSON"):
            load_corpus(path)

    @pytest.mark.parametrize("line, message", [
        ('{"owner_id": 1, "terms": ["a"]}', "record lacks \\['doc_id'\\]"),
        ('{"doc_id": 2, "text": "a"}', "record lacks \\['owner_id'\\]"),
        ('{"doc_id": 1.5, "owner_id": 1, "terms": ["a"]}', "doc_id 1.5 and owner_id 1 must be 64-bit integers"),
        ('{"doc_id": "2", "owner_id": 1, "text": "a"}', "doc_id '2' and owner_id 1 must be 64-bit integers"),
        ('{"doc_id": 2, "owner_id": 0.5, "text": "a"}', "doc_id 2 and owner_id 0.5 must be 64-bit integers"),
        ('{"doc_id": 2, "owner_id": 1}', "record needs 'terms'"),
        ('{"doc_id": 2, "owner_id": 1, "terms": "abc"}', "record needs 'terms'"),
        ('{"doc_id": 2, "owner_id": 1, "text": 5}', "record needs 'terms'"),
        ('[2, 1, "a"]', "record is not a JSON object"),
    ])
    def test_bad_record_names_its_line(self, tmp_path, line, message):
        path = tmp_path / "c.jsonl"
        path.write_text('{"doc_id": 1, "owner_id": 1, "text": "a"}\n' + line + "\n")
        with pytest.raises(CorpusError, match=f"c.jsonl:2: {message}"):
            load_corpus(path)

    def test_terms_take_precedence_over_text(self):
        d = document_from_record({"doc_id": 1, "owner_id": 1, "terms": ["x"], "text": "y"}, "r")
        assert d.counts == {"x": 1}

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("\n")
        with pytest.raises(CorpusError, match="empty"):
            load_corpus(path)
