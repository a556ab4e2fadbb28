"""Two-stage index clustering and keyword-dictionary segmentation.

The corpus arrives as one (D, n) term-count matrix with an int64 doc id and
owner id per row; its positive entries are the keyword incidence, which is
all the clustering reads.  Stage 1 splits each owner's 0/1 rows into two
clusters (L1 2-means) and returns their row positions; the representative
of a cluster is the mean of its rows.  Stage 2 groups all these local
clusters into ``s`` final partitions with L1 k-means using component-wise
median centroids, which gives every row a partition id.  The dictionary is
then segmented: every keyword goes to the single partition where its
document frequency (the number of the partition's rows holding it) is
maximal, and each partition's rows are compressed down to its own
sub-dictionary dimensions (dropping dimensions that are zero
partition-wide).  The compressed count matrices go to the build beside the
partition set, not into it: the build's padded rows are positive exactly
where they hold a count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import PartitioningError

FORMAT_VERSION = 3
# Iteration caps of the local 2-means split and of the global k-means.
_LOCAL_MAX_ITER = 20
_GLOBAL_MAX_ITER = 100
# Keywords per sub-dictionary that the default partition count aims at.
_KEYWORDS_PER_PARTITION = 1000


@dataclass
class PartitionSet:
    """Final partitions and their disjoint sub-dictionaries.  The other
    fields index ``sub_dictionaries`` and ``members``; the sorted keys of
    ``home`` are the global dictionary."""

    s: int
    assignments: dict[int, int]             # doc_id -> partition id (0-based)
    sub_dictionaries: list[list[str]]       # words of partition i, global dict order
    members: list[list[tuple[int, int]]]    # (doc_id, owner_id) per partition
    home: dict[str, tuple[int, int]]        # word -> (partition, local dimension)

    @classmethod
    def from_members(
        cls, sub_dictionaries: list[list[str]], members: list[list[tuple[int, int]]]
    ) -> "PartitionSet":
        """The partition set of these facts, with their lookups built."""
        return cls(
            s=len(members),
            assignments={d: part for part, group in enumerate(members) for d, _owner in group},
            sub_dictionaries=sub_dictionaries,
            members=members,
            home={w: (part, i) for part, words in enumerate(sub_dictionaries)
                  for i, w in enumerate(words)},
        )

    @property
    def sizes(self) -> list[int]:
        return [len(d) for d in self.sub_dictionaries]


def _farthest_pair(X: np.ndarray) -> tuple[int, int]:
    """Indexes (a, b), a < b, of the most L1-separated rows of a 0/1 matrix,
    the first such pair in row-major order on ties.

    On 0/1 rows the L1 distance is |a| + |b| - 2 a.b, so one Gram matrix
    gives every distance in O(m^2) memory; the values are small integers,
    exact in float64.
    """
    gram = X @ X.T
    ones = np.diag(gram)
    dists = ones[:, None] + ones[None, :] - 2.0 * gram
    a, b = np.unravel_index(np.argmax(dists), dists.shape)
    return int(min(a, b)), int(max(a, b))


def _bit_median(rows: np.ndarray) -> np.ndarray:
    """Component-wise median of 0/1 rows from the count of ones: 1 where ones
    are the majority, 0 where they are the minority, 1/2 on an even split."""
    ones = rows.sum(axis=0)
    return (np.sign(2.0 * ones - rows.shape[0]) + 1.0) / 2.0


def local_split(bits: np.ndarray) -> list[np.ndarray]:
    """Split one owner's (m, n) 0/1 rows into at most two clusters; returns
    each cluster's row positions, ascending.

    Deterministic: seeds are the pair of rows at maximal L1 distance.  A
    single row, or a set of identical rows, yields one cluster.  All
    distances and medians are taken from products and counts over the 0/1
    rows, with no (m, m, n) or (m, n) difference temporaries.
    """
    m = bits.shape[0]
    if m == 0:
        raise PartitioningError("owner has no index vectors")
    if m == 1 or not np.any(bits != bits[0]):
        return [np.arange(m)]

    X = bits.astype(np.float64)
    a, b = _farthest_pair(X)
    centers = X[[a, b]]
    labels = None
    for _it in range(_LOCAL_MAX_ITER):
        # Centers hold 0, 1/2 or 1, so the L1 distance of a 0/1 row x to
        # center c is |c| + x.(1 - 2c), exact in float64.
        d = centers.sum(axis=1) + X @ (1.0 - 2.0 * centers).T
        new_labels = (d[:, 1] < d[:, 0]).astype(int)  # ties go to cluster 0
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        if labels.min() == labels.max():
            break
        centers = np.stack([_bit_median(X[labels == c]) for c in (0, 1)])
    return [rows for rows in (np.flatnonzero(labels == c) for c in (0, 1)) if rows.size]


def _kmeans_pp_init(R: np.ndarray, s: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++-style seeding under L1 distance."""
    p = R.shape[0]
    first = int(rng.integers(p))
    centers = [R[first]]
    d = np.abs(R - centers[0]).sum(axis=1)
    for _ in range(1, s):
        if d.sum() <= 0:
            idx = int(rng.integers(p))
        else:
            idx = int(rng.choice(p, p=d / d.sum()))
        centers.append(R[idx])
        d = np.minimum(d, np.abs(R - centers[-1]).sum(axis=1))
    return np.stack(centers)


def global_cluster(R: np.ndarray, s: int, seed: int = 0) -> np.ndarray:
    """Group the (P, n) representatives of the local clusters into ``s``
    final partitions by L1 k-means with component-wise median centroids.

    Returns one partition id per local cluster.
    """
    p = R.shape[0]
    if not 1 <= s <= p:
        raise PartitioningError(f"s={s} out of range [1, {p}]")
    if s == 1:
        return np.zeros(p, dtype=int)
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_init(R, s, rng)
    labels = np.full(p, -1, dtype=int)
    for _ in range(_GLOBAL_MAX_ITER):
        d = np.abs(R[:, None, :] - centers[None, :, :]).sum(axis=2)
        new_labels = d.argmin(axis=1)
        # Re-seat each empty cluster on the farthest representative whose
        # cluster keeps a member, so that no median is of an empty set.
        for c in range(s):
            if not np.any(new_labels == c):
                movable = np.bincount(new_labels, minlength=s)[new_labels] > 1
                new_labels[int(np.where(movable, d.min(axis=1), -1.0).argmax())] = c
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        centers = np.stack([np.median(R[labels == c], axis=0) for c in range(s)])
    return labels


def segment_dictionary(
    part: np.ndarray,
    counts: np.ndarray,
    doc_ids: np.ndarray,
    owner_ids: np.ndarray,
    dictionary: Sequence[str],
    s: int,
) -> tuple[PartitionSet, list[np.ndarray]]:
    """Build sub-dictionaries and compressed per-partition count matrices
    from the (D, n) term-count rows, their doc ids and owner ids, and
    ``part``, each row's partition id.

    A keyword is assigned to the partition where its document frequency is
    maximal (ties break toward the lowest partition id); its dimensions in all
    other partitions are dropped along with partition-wide zero dimensions.
    Returns the partition set and each partition's (M_i, N_i) cut of the
    counts, rows in ``members`` order (ascending doc id).
    """
    if part.shape != doc_ids.shape or np.any((part < 0) | (part >= s)):
        raise PartitioningError(f"every row needs one partition id in [0, {s})")
    by_id = np.argsort(doc_ids, kind="stable")
    rows = [by_id[part[by_id] == p] for p in range(s)]
    df = np.stack([np.count_nonzero(counts[r], axis=0) for r in rows])
    home_part = df.argmax(axis=0)  # argmax ties -> lowest partition id
    occurs = df.max(axis=0) > 0  # else absent from the corpus; drop it
    dims = [np.flatnonzero((home_part == p) & occurs) for p in range(s)]
    sub_dictionaries = [[dictionary[j] for j in d] for d in dims]
    members = [list(zip(doc_ids[r].tolist(), owner_ids[r].tolist())) for r in rows]
    compressed = [counts[np.ix_(r, d)] for r, d in zip(rows, dims)]
    return PartitionSet.from_members(sub_dictionaries, members), compressed


def default_partition_count(dictionary_size: int) -> int:
    """Heuristic: about ``_KEYWORDS_PER_PARTITION`` keywords per sub-dictionary."""
    return max(1, -(-dictionary_size // _KEYWORDS_PER_PARTITION))


def cluster_indexes(
    counts: np.ndarray,
    doc_ids: np.ndarray,
    owner_ids: np.ndarray,
    dictionary: Sequence[str],
    s: int,
    seed: int = 0,
    splitter: Callable[[np.ndarray], list[np.ndarray]] = local_split,
) -> tuple[PartitionSet, list[np.ndarray]]:
    """Full pipeline over the (D, n) term-count rows and their int64 doc
    ids and owner ids: per-owner local split of the 0/1 incidence (owners in
    ascending id order, one ``splitter`` call each), global clustering,
    segmentation.  Returns what ``segment_dictionary`` returns."""
    bits = (counts > 0).view(np.uint8)
    by_owner = np.argsort(owner_ids, kind="stable")
    clusters = []  # row positions of each local cluster
    for owned in np.split(by_owner, np.flatnonzero(np.diff(owner_ids[by_owner])) + 1):
        clusters.extend(owned[c] for c in splitter(bits[owned]))
    labels = global_cluster(np.stack([bits[c].mean(axis=0) for c in clusters]), s, seed=seed)
    part = np.empty(len(doc_ids), dtype=np.int64)
    for c, label in zip(clusters, labels):
        part[c] = label
    return segment_dictionary(part, counts, doc_ids, owner_ids, dictionary, s)


# ---------------------------------------------------------------------------
# Serialization: a versioned JSON record of the members and sub-dictionaries.
# The rest of a PartitionSet indexes them and is rebuilt on load.

def save_partition_set(pset: PartitionSet, path: str | Path) -> None:
    payload = {
        "version": FORMAT_VERSION,
        "s": pset.s,
        "sub_dictionaries": pset.sub_dictionaries,
        "members": pset.members,
    }
    Path(path).write_text(json.dumps(payload))


def load_partition_set(path: str | Path) -> PartitionSet:
    """Read a partition set written by ``save_partition_set``.  A record
    that is not valid JSON, is of another version, lacks a key, holds a field
    of the wrong type (``s`` an integer >= 1, ``sub_dictionaries`` s lists
    of words, ``members`` s lists of [doc id, owner id] pairs of 64-bit
    integers), lists a word or a doc id twice or does not hold ``s``
    partitions raises PartitioningError."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise PartitioningError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict) or payload.get("version") != FORMAT_VERSION:
        raise PartitioningError(f"{path}: not a version-{FORMAT_VERSION} partition set")
    missing = sorted({"s", "sub_dictionaries", "members"} - set(payload))
    if missing:
        raise PartitioningError(f"{path}: missing keys {missing}")
    s, sub_dictionaries, members = payload["s"], payload["sub_dictionaries"], payload["members"]
    if type(s) is not int or s < 1:
        raise PartitioningError(f"{path}: s must be an integer >= 1, got {s!r}")
    for name, groups in (("sub_dictionaries", sub_dictionaries), ("members", members)):
        if not isinstance(groups, list) or len(groups) != s:
            raise PartitioningError(f"{path}: {name} does not hold s={s} partitions")
        if not all(isinstance(group, list) for group in groups):
            raise PartitioningError(f"{path}: {name} holds a partition that is not a list")
    words = [w for group in sub_dictionaries for w in group]
    bad = [w for w in words if type(w) is not str]
    if bad:
        raise PartitioningError(f"{path}: sub_dictionaries holds {bad[0]!r}, not a word")
    if len(set(words)) != len(words):
        raise PartitioningError(f"{path}: sub_dictionaries lists a word twice")
    pairs = [pair for group in members for pair in group]
    # The ids go into int64 arrays; a bool is no integer.  The test is written
    # out: a function call per pair cost more than the rest of the load.
    bad = [
        p for p in pairs
        if type(p) is not list or len(p) != 2 or type(p[0]) is not int or type(p[1]) is not int
        or not -(2**63) <= p[0] < 2**63 or not -(2**63) <= p[1] < 2**63
    ]
    if bad:
        raise PartitioningError(
            f"{path}: members holds {bad[0]!r}, not a [doc id, owner id] pair of integers"
        )
    ids = [doc_id for doc_id, _owner in pairs]
    if len(set(ids)) != len(ids):
        raise PartitioningError(f"{path}: a doc id is listed twice")
    return PartitionSet.from_members(
        sub_dictionaries, [[tuple(pair) for pair in group] for group in members]
    )

