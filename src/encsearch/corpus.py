"""Corpus ingestion: documents, the global keyword dictionary and the
term-count matrix.

Documents arrive from multiple owners.  Each document keeps its term counts
(the weighting stage needs frequencies, not just incidence).  The dictionary
is the sorted list of distinct keywords, a keyword's position in it is its
dimension, and the corpus gets one term-count row per document over those
dimensions.
"""

from __future__ import annotations

import json
import string
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CorpusError

_PUNCT_TABLE = str.maketrans({c: " " for c in string.punctuation})
_INT = {int}


def tokenize(text: str) -> list[str]:
    """Lowercase, strip punctuation, split on whitespace.  No stemming."""
    return text.lower().translate(_PUNCT_TABLE).split()


def all_ints(values) -> bool:
    """Whether every value is an int or a numpy integer (a bool is not)."""
    kinds = set(map(type, values))
    return kinds == _INT or not any(k is bool or not issubclass(k, (int, np.integer)) for k in kinds)


@dataclass(frozen=True)
class Document:
    """A single document: unique id, owner id and its term multiset."""

    doc_id: int
    owner_id: int
    counts: Mapping[str, int]

    def __post_init__(self):
        # The build carries ids in int64 arrays, which would truncate a
        # float id or overflow on a huge one.
        ids = (self.doc_id, self.owner_id)
        if not all_ints(ids) or not -(2**63) <= min(ids) <= max(ids) < 2**63:
            raise CorpusError(
                f"doc_id {self.doc_id!r} and owner_id {self.owner_id!r} must be 64-bit integers"
            )
        if not self.counts:
            raise CorpusError(f"document {self.doc_id} has no terms")
        # A term's weight is positive exactly when it occurs, which the
        # derived keyword incidence relies on.
        counts = self.counts.values()
        if not all_ints(counts) or min(counts) < 1:
            raise CorpusError(f"document {self.doc_id} has a term count that is not a positive integer")

    @classmethod
    def from_text(cls, doc_id: int, owner_id: int, text: str) -> "Document":
        return cls(doc_id, owner_id, dict(Counter(tokenize(text))))

    @classmethod
    def from_terms(cls, doc_id: int, owner_id: int, terms: Iterable[str]) -> "Document":
        return cls(doc_id, owner_id, dict(Counter(terms)))


def _check_unique_ids(docs: Sequence[Document]) -> None:
    seen: set[int] = set()
    for d in docs:
        if d.doc_id in seen:
            raise CorpusError(f"duplicate doc_id {d.doc_id}")
        seen.add(d.doc_id)


def build_dictionary(docs: Sequence[Document]) -> list[str]:
    """Sorted union of all document terms."""
    if not docs:
        raise CorpusError("cannot build a dictionary from an empty corpus")
    _check_unique_ids(docs)
    words: set[str] = set()
    for d in docs:
        words.update(d.counts)
    return sorted(words)


def build_binary_indexes(docs: Sequence[Document], dictionary: Sequence[str]) -> np.ndarray:
    """The (D, n) float64 term counts of the corpus: row i belongs to
    ``docs[i]``, and counts[i, j] is how often ``dictionary[j]`` occurs in
    it, so the nonzero pattern is the binary keyword index.  The build
    carries the rows' doc ids and owner ids beside it as int64 arrays in the
    same order."""
    position = {word: j for j, word in enumerate(dictionary)}
    counts = np.zeros((len(docs), len(dictionary)))
    for row, d in zip(counts, docs):
        for term, count in d.counts.items():
            j = position.get(term)
            if j is None:
                raise CorpusError(
                    f"term {term!r} of document {d.doc_id} is not in the dictionary"
                )
            row[j] = count
    return counts


def id_arrays(docs: Sequence[Document]) -> tuple[np.ndarray, np.ndarray]:
    """The int64 doc ids and owner ids of ``docs``, in order: the arrays that
    travel beside the count matrix."""
    return (
        np.array([d.doc_id for d in docs], dtype=np.int64),
        np.array([d.owner_id for d in docs], dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# I/O: one JSON record per line with doc_id, owner_id and text or terms.

def document_from_record(rec, where: str) -> Document:
    """The document of one parsed JSON record; ``where`` names the record
    in the CorpusError raised for a malformed one."""
    if not isinstance(rec, dict):
        raise CorpusError(f"{where}: record is not a JSON object")
    missing = [key for key in ("doc_id", "owner_id") if key not in rec]
    if missing:
        raise CorpusError(f"{where}: record lacks {missing}")
    try:
        if isinstance(rec.get("terms"), list) and all(isinstance(t, str) for t in rec["terms"]):
            return Document.from_terms(rec["doc_id"], rec["owner_id"], rec["terms"])
        if isinstance(rec.get("text"), str) and "terms" not in rec:
            return Document.from_text(rec["doc_id"], rec["owner_id"], rec["text"])
    except CorpusError as exc:
        raise CorpusError(f"{where}: {exc}") from None
    raise CorpusError(f"{where}: record needs 'terms' (a list of strings) or 'text' (a string)")


def load_corpus(path: str | Path) -> list[Document]:
    docs = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
            docs.append(document_from_record(rec, f"{path}:{lineno}"))
    if not docs:
        raise CorpusError(f"{path}: empty corpus")
    _check_unique_ids(docs)
    return docs


# ---------------------------------------------------------------------------
# Synthetic corpus generator (stand-in for a large real-world document set).

def synthetic_corpus(
    n_docs: int,
    n_keywords: int,
    n_owners: int = 10,
    seed: int = 0,
    mean_len: int = 40,
    zipf_a: float = 1.1,
) -> list[Document]:
    """Generate a corpus whose dictionary has exactly ``n_keywords`` words.

    Keyword popularity is Zipf-distributed (rank = dictionary order), document
    lengths are Poisson around ``mean_len``, owners are assigned round-robin so
    every owner holds at least one document.
    """
    if n_docs < 1 or n_keywords < 1 or n_owners < 1:
        raise CorpusError("n_docs, n_keywords and n_owners must be positive")
    rng = np.random.default_rng(seed)
    width = len(str(n_keywords - 1))
    words = [f"kw{i:0{width}d}" for i in range(n_keywords)]
    pmf = 1.0 / np.arange(1, n_keywords + 1) ** zipf_a
    pmf /= pmf.sum()
    docs = []
    for doc_id in range(n_docs):
        length = max(3, int(rng.poisson(mean_len)))
        picks = rng.choice(n_keywords, size=length, p=pmf)
        counts = Counter(words[j] for j in picks)
        docs.append(Document(doc_id, doc_id % n_owners, dict(counts)))
    # Fold any never-sampled keyword into a random document so the built
    # dictionary has exactly n_keywords entries.
    used = set()
    for d in docs:
        used.update(d.counts)
    missing = [w for w in words if w not in used]
    for w in missing:
        i = int(rng.integers(n_docs))
        d = docs[i]
        counts = dict(d.counts)
        counts[w] = 1
        docs[i] = Document(d.doc_id, d.owner_id, counts)
    return docs
