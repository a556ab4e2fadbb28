"""Keyword correlativity and owner-level weight generation.

For each partition the keyword correlativity matrix is the cosine similarity
of keyword incidence columns over that partition's documents.  Per owner, the
average keyword popularity (average term frequency over the owner's documents
containing the keyword, both summed from the partition's term-count rows) is
smoothed through the correlativity matrix and then normalized per keyword by
the maximum raw weight across owners in the partition, giving weights in
[0, 1].  Weighted index vectors are the elementwise product of a document's
compressed bits with its owner's weights.

``save_weights`` and ``load_weights`` move a pipeline's correlativity,
``w_max`` and owner weights between memory and ``weights.bin`` (magic
``ESW2``), one write per array and, at load, one view per array of the
file's private mapping, each array starting at a multiple of 64 bytes
(``binfile``).  The load checks the values ``save`` can write: finite
``w_max`` >= 0 and finite weights in [0, 1]; the correlativity, the bulk of
the file, is not read until an insert or a save needs it.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .binfile import BinaryReader, writing
from .errors import WeightingError

WEIGHTS_MAGIC = b"ESW2"
_U32 = struct.Struct("<I")
_PARTITION_HEADER = struct.Struct("<II")  # real dimension n, owner count


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
    counts: np.ndarray, owner_ids: np.ndarray, correlativity: np.ndarray
) -> tuple[dict[int, np.ndarray], np.ndarray]:
    """Per-owner normalized weights for one partition, plus the per-keyword
    maximum raw weight ``w_max`` they are normalized by.

    ``counts`` is the partition's (M_i, N_i) term-count matrix and
    ``owner_ids`` the owner of each row.  Keyword weights are compared (and
    the per-keyword maximum taken) only across owners present in this
    partition.
    """
    n = counts.shape[1]
    if correlativity.shape != (n, n):
        raise WeightingError(
            f"correlativity shape {correlativity.shape} does not match N={n}"
        )
    owners = np.unique(owner_ids)
    raw = np.zeros((len(owners), n))
    for i, owner in enumerate(owners):
        held = counts[owner_ids == owner]
        # Average keyword popularity: the owner's term frequency over its
        # documents that hold the keyword (both 0 where none does), smoothed
        # by one matrix-vector product per owner: a batched matrix product
        # rounds differently and would change the stored weights.
        akp = held.sum(axis=0) * (1.0 / np.maximum(np.count_nonzero(held, axis=0), 1))
        raw[i] = correlativity @ akp
    w_max = raw.max(axis=0, initial=0.0)
    return dict(zip(owners.tolist(), normalize(raw, w_max))), w_max


def normalize(raw: np.ndarray, w_max: np.ndarray) -> np.ndarray:
    """Raw weights over the per-keyword maxima, clipped to [0, 1]; 0 where the
    maximum is 0.  The clip matters only for raw weights not among those the
    maxima were taken over, such as a new owner's."""
    return np.where(w_max > 0, np.minimum(raw / np.where(w_max > 0, w_max, 1.0), 1.0), 0.0)


def weight_indexes(owner_ids: np.ndarray, weights: Mapping[int, np.ndarray]) -> np.ndarray:
    """The (M_i, N_i) stack of each row's owner weight vector, one row per
    entry of ``owner_ids``."""
    try:
        return np.array([weights[owner] for owner in owner_ids.tolist()], dtype=np.float64)
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


def save_weights(
    path: str | Path,
    correlativity: Sequence[np.ndarray],
    w_max: Sequence[np.ndarray],
    weights: Sequence[Mapping[int, np.ndarray]],
) -> None:
    """Write ``weights.bin``: the magic and the partition count, then per
    partition its real dimension n and owner count, the n x n
    correlativity, ``w_max``, the owner ids (int64) and the owners' weight
    rows as one (owners, n) array, all little-endian."""
    with writing(path, WEIGHTS_MAGIC) as out:
        out.write(_U32.pack(len(correlativity)))
        for corr, wmax, owner_weights in zip(correlativity, w_max, weights):
            out.write(_PARTITION_HEADER.pack(len(wmax), len(owner_weights)))
            out.array(corr, "<f8")
            out.array(wmax, "<f8")
            out.array(list(owner_weights), "<i8")
            out.array(list(owner_weights.values()), "<f8")


def load_weights(
    path: str | Path, sizes: Sequence[int]
) -> tuple[list[np.ndarray], list[np.ndarray], list[dict[int, np.ndarray]]]:
    """The correlativity, ``w_max`` and owner -> weights of each partition,
    from a file ``save_weights`` wrote for partitions of the real dimensions
    ``sizes``.  A file of another magic, partition count or dimension, one
    that lists an owner of a partition twice, holds a ``w_max`` that is
    negative or not finite or a weight outside [0, 1], or one shorter or
    longer than its headers say raises ``WeightingError``."""
    correlativity, w_max, weights = [], [], []
    reader = BinaryReader(path, "weights file", WeightingError)
    reader.magic(WEIGHTS_MAGIC)
    (s,) = reader.unpack(_U32)
    if s != len(sizes):
        raise WeightingError(f"{path}: holds {s} partitions, not {len(sizes)}")
    for p, size in enumerate(sizes):
        n, owners = reader.unpack(_PARTITION_HEADER)
        if n != size:
            raise WeightingError(f"{path}: partition {p} has dimension {n}, not {size}")
        correlativity.append(reader.array("<f8", (n, n)))
        w_max.append(reader.array("<f8", (n,)))
        if not (np.isfinite(w_max[p]).all() and (w_max[p] >= 0).all()):
            raise WeightingError(f"{path}: partition {p} has a w_max below 0 or not finite")
        ids = reader.array("<i8", (owners,)).tolist()
        if len(set(ids)) != owners:
            raise WeightingError(f"{path}: partition {p} lists an owner twice")
        rows = reader.array("<f8", (owners, n))
        if not ((rows >= 0) & (rows <= 1)).all():  # NaN fails both
            raise WeightingError(f"{path}: partition {p} has a weight outside [0, 1]")
        weights.append(dict(zip(ids, rows)))
    reader.end()
    return correlativity, w_max, weights
