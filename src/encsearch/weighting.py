"""Keyword correlativity and owner-level weight generation.

For each partition the keyword correlativity matrix is the cosine similarity
of keyword incidence columns over that partition's documents.  Per owner, the
average keyword popularity (average term frequency over the owner's documents
containing the keyword) is smoothed through the correlativity matrix and then
normalized per keyword by the maximum raw weight across owners in the
partition, giving weights in [0, 1].  Weighted index vectors are the
elementwise product of a document's compressed bits with its owner's weights.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .corpus import Document
from .errors import WeightingError


def build_correlativity(compressed: np.ndarray) -> np.ndarray:
    """Cosine similarity of keyword incidence columns; unit diagonal.

    ``compressed`` is the (M_i, N_i) 0/1 matrix of one partition.  Columns
    with no occurrences get similarity 0 against everything.
    """
    X = compressed.astype(np.float64)
    gram = X.T @ X
    norms = np.sqrt(np.diag(gram))
    denom = np.outer(norms, norms)
    with np.errstate(invalid="ignore", divide="ignore"):
        S = np.where(denom > 0, gram / np.where(denom > 0, denom, 1.0), 0.0)
    np.fill_diagonal(S, 1.0)
    S = np.clip(S, 0.0, 1.0)
    return (S + S.T) / 2.0  # exact symmetry despite float rounding


def compute_weights(
    docs_by_id: Mapping[int, Document],
    members: Sequence[tuple[int, int]],
    sub_positions: Mapping[str, int],
    correlativity: np.ndarray,
) -> tuple[dict[int, np.ndarray], np.ndarray]:
    """Per-owner normalized weights for one partition, plus the per-keyword
    maximum raw weight ``w_max`` they are normalized by.

    Keyword weights are compared (and the per-keyword maximum taken) only
    across owners present in this partition.
    """
    n = len(sub_positions)
    if correlativity.shape != (n, n):
        raise WeightingError(
            f"correlativity shape {correlativity.shape} does not match N={n}"
        )
    owners = sorted({owner for _, owner in members})
    tf = {o: np.zeros(n) for o in owners}
    df = {o: np.zeros(n) for o in owners}
    for doc_id, owner in members:
        doc = docs_by_id[doc_id]
        for word, count in doc.counts.items():
            t = sub_positions.get(word)
            if t is not None:
                tf[owner][t] += count
                df[owner][t] += 1

    raw = {}
    for o in owners:
        # Average keyword popularity: term frequency over the owner's
        # documents that contain the keyword.
        with np.errstate(divide="ignore"):
            alpha = np.where(df[o] > 0, 1.0 / np.where(df[o] > 0, df[o], 1.0), 0.0)
        raw[o] = correlativity @ (tf[o] * alpha)

    w_max = np.zeros(n)
    for o in owners:
        w_max = np.maximum(w_max, raw[o])
    return {o: normalize(raw[o], w_max) for o in owners}, w_max


def normalize(raw: np.ndarray, w_max: np.ndarray) -> np.ndarray:
    """Raw weights over the per-keyword maxima, clipped to [0, 1]; 0 where the
    maximum is 0.  The clip matters only for raw weights not among those the
    maxima were taken over, such as a new owner's."""
    return np.where(w_max > 0, np.minimum(raw / np.where(w_max > 0, w_max, 1.0), 1.0), 0.0)


def weight_indexes(
    members: Sequence[tuple[int, int]], weights: Mapping[int, np.ndarray]
) -> np.ndarray:
    """The (M_i, N_i) stack of each member's owner weight vector, in member
    order."""
    try:
        return np.array([weights[owner] for _, owner in members], dtype=np.float64)
    except KeyError as exc:
        raise WeightingError(f"no weights computed for owner {exc.args[0]}") from None


def weighted_matrix(bits: np.ndarray, owner_weights: np.ndarray) -> np.ndarray:
    """Weighted index rows: each row of 0/1 ``bits`` times its owner's
    weights, row for row."""
    if bits.shape != owner_weights.shape:
        raise WeightingError(
            f"dimension mismatch: index {bits.shape} vs weights {owner_weights.shape}"
        )
    return bits.astype(np.float64) * owner_weights
