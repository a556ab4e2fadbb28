"""Score-ordered balanced index trees, their forest, and greedy top-k search.

Leaves, the rows of one (m, dim) matrix named by an int64 doc id array, are
ordered by accumulated score against random non-negative probe queries
(popular-keyword-biased), so likely hits sit on early search paths.  Trees
are built bottom-up by pairing adjacent nodes level by level; an odd last
node is promoted unpaired, and no rows give an empty tree.  Internal node
vectors are the elementwise maximum of their children, which makes them upper
bounds for any non-negative query and lets the depth-first search prune
subtrees that cannot reach the current candidate list.

Layout.  A tree of m leaves has 2m-1 nodes, every internal node has two
children, and the nodes are stored in preorder as parallel arrays: ``doc_ids``
(int64, the leaf's document id, -1 at an internal node) and one row per node of
the plaintext node matrix ``nodes``, or of the ciphertext halves ``enc1`` and
``enc2`` in an encrypted tree.  The left child of internal node i is i+1; its
right child is the node after the left subtree (``Tree.right_children``).  The
leaves read in preorder are in likelihood order, so an insert or delete splices
rows where one leaf was.  An encrypted tree shares ``doc_ids`` with the
plaintext tree it was encrypted from; updates replace that array, never write
into it.

File layout (magic ``ESF2``, little endian): the magic and the tree count
(u32); then per tree a header of partition (u32), encrypted flag (u8),
dimension (u32), probe length (u32), node count n (u64), probe config (count
u32, keywords per probe u32, zipf_a f64, seed u32) and size at build (u64),
followed by the probe (f64), ``doc_ids`` (n i64) and the node matrix (n rows
of f64), or ``enc1`` then ``enc2``.  The file holds nothing else, so the
arrays go between disk and memory as they are: written from the arrays, and
read each with one ``readinto`` into a writable array of the file's dtype.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from dataclasses import dataclass
from heapq import heappush, heapreplace
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .aspe import PartitionKey, Trapdoor, encrypt_matrix
from .binfile import BinaryReader
from .errors import ForestError

FOREST_MAGIC = b"ESF2"
_U32 = struct.Struct("<I")
_TREE_HEADER = struct.Struct("<IBIIQIIdIQ")


def round_score(x: float) -> float:
    """Quantize scores to 1e-9 so encryption round-off cannot flip the
    doc_id tie rule between plaintext and encrypted search."""
    return float(np.round(x, 9))


class TreeNode(NamedTuple):
    index: int   # row in the tree's preorder arrays
    doc_id: int  # -1 at an internal node

    @property
    def is_leaf(self) -> bool:
        return self.doc_id >= 0


@dataclass
class ProbeConfig:
    count: int = 1000          # number of random probe queries
    keywords_per_probe: int = 10
    zipf_a: float = 1.0
    seed: int = 0


@dataclass(eq=False)
class Tree:
    partition: int
    doc_ids: np.ndarray                    # (n,) int64 in preorder, -1 at internal nodes
    nodes: np.ndarray | None = None        # (n, dim) plaintext node matrix
    enc1: np.ndarray | None = None         # (n, dim) ciphertext halves of an encrypted tree
    enc2: np.ndarray | None = None
    probe: np.ndarray | None = None        # aggregate of all probe queries
    probe_config: ProbeConfig | None = None
    size_at_build: int = 0

    @property
    def encrypted(self) -> bool:
        return self.enc1 is not None

    @property
    def leaves(self) -> np.ndarray:
        """Leaf doc ids in likelihood order."""
        return self.doc_ids[self.doc_ids >= 0]

    def leaf_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Doc ids and node rows of the leaves of a plaintext tree, in
        likelihood order."""
        at = np.flatnonzero(self.doc_ids >= 0)
        return self.doc_ids[at], self.nodes[at]

    def preorder(self):
        for i, doc_id in enumerate(self.doc_ids.tolist()):
            yield TreeNode(i, doc_id)

    def right_children(self) -> np.ndarray:
        """Index of each internal node's right child; -1 at a leaf.

        Count +1 per internal node and -1 per leaf.  A subtree sums to -1 and
        its proper prefixes to >= 0, so the running total before node i next
        takes the same value right after i's left subtree, at i's right child.
        """
        step = np.where(self.doc_ids < 0, 1, -1)
        before = np.cumsum(step) - step
        order = np.argsort(before, kind="stable")
        following = np.full(len(step), -1)
        following[order[:-1]] = order[1:]
        return np.where(step > 0, following, -1)

    def depth(self) -> int:
        """Longest root-to-leaf edge count."""
        best, d, pending = 0, 0, []  # pending: depths of right children still to visit
        for doc_id in self.doc_ids.tolist():
            if doc_id < 0:
                d += 1
                pending.append(d)
            else:
                best = max(best, d)
                d = pending.pop() if pending else 0
        return best


def _ancestors(tree: Tree, j: int) -> list[int]:
    """Indexes on the path from the root down to node j, j excluded."""
    right = tree.right_children()
    path, i = [], 0
    while i != j:
        path.append(i)
        i = i + 1 if j < right[i] else int(right[i])
    return path


def _refresh_bounds(tree: Tree, path: list[int]) -> None:
    """Recompute the node vectors on ``path`` bottom-up from their children."""
    right = tree.right_children()
    for i in reversed(path):
        tree.nodes[i] = np.maximum(tree.nodes[i + 1], tree.nodes[right[i]])


# ---------------------------------------------------------------------------
# Probe queries and likelihood ordering.

def probe_aggregate(
    real_dims: int,
    total_dims: int,
    popularity: np.ndarray,
    config: ProbeConfig,
) -> np.ndarray:
    """Sum of R random non-negative probe queries over the real dimensions.

    Keyword selection is Zipf-weighted by popularity rank, keyword weights are
    uniform (0, 1]; pseudo dimensions stay zero.  Accumulated scores against
    the probe set reduce to a single dot product with this aggregate.
    """
    if config.count < 1:
        raise ForestError("probe count must be >= 1")
    rng = np.random.default_rng(config.seed)
    agg = np.zeros(total_dims)
    if real_dims == 0:
        return agg
    ranks = np.empty(real_dims, dtype=np.int64)
    ranks[np.argsort(-popularity, kind="stable")] = np.arange(1, real_dims + 1)
    pmf = 1.0 / ranks.astype(np.float64) ** config.zipf_a
    pmf /= pmf.sum()
    n_pick = min(config.keywords_per_probe, real_dims)
    dims = rng.choice(real_dims, size=(config.count, n_pick), p=pmf)
    weights = 1.0 - rng.random(size=(config.count, n_pick))  # (0, 1]
    np.add.at(agg, dims.ravel(), weights.ravel())
    return agg


def _probe_scores(rows: Iterable[np.ndarray], probe: np.ndarray) -> np.ndarray:
    """Each row's accumulated probe score.  Row by row, so that ordering at
    build and placing an insert score alike: a matrix product may round
    differently and reorder rows whose scores tie."""
    return np.array([float(row @ probe) for row in rows])


def order_by_likelihood(ids: np.ndarray, rows: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """The order of the rows, with doc ids ``ids``, by descending accumulated
    probe score, ties by ascending doc id."""
    return np.lexsort((ids, -_probe_scores(rows, probe)))


# ---------------------------------------------------------------------------
# Construction.

def build_tree(
    ids: np.ndarray,
    rows: np.ndarray,
    partition: int = 0,
    probe: np.ndarray | None = None,
    probe_config: ProbeConfig | None = None,
) -> Tree:
    """Bottom-up bulk load: the rows as leaves in the given order, with doc
    ids ``ids``, adjacent pairs merged level by level, internal vectors the
    elementwise max of their children.  No rows give an empty tree of the
    rows' width."""
    ids = np.asarray(ids, dtype=np.int64)
    m = len(ids)
    if rows.shape[0] != m:
        raise ForestError(f"{m} doc ids for {rows.shape[0]} rows")
    if (ids < 0).any():
        raise ForestError("doc ids must be non-negative")
    # Build order: the leaves, then each level's new internal nodes.
    n = max(2 * m - 1, 0)
    vecs = np.empty((n, rows.shape[1]))
    vecs[:m] = rows
    size = np.ones(n, dtype=np.int64)
    merges = []
    level, top = np.arange(m), m
    while len(level) > 1:
        half = len(level) // 2
        left, right = level[0 : 2 * half : 2], level[1 : 2 * half : 2]
        new = np.arange(top, top + half)
        vecs[new] = np.maximum(vecs[left], vecs[right])
        size[new] = size[left] + size[right] + 1
        merges.append((new, left, right))
        level, top = np.concatenate([new, level[2 * half :]]), top + half
    # Preorder positions, from the root (built last, position 0) down.
    pos = np.zeros(n, dtype=np.int64)
    for new, left, right in reversed(merges):
        pos[left] = pos[new] + 1
        pos[right] = pos[new] + 1 + size[left]
    doc_ids = np.full(n, -1, dtype=np.int64)
    doc_ids[pos[:m]] = ids
    nodes = np.empty_like(vecs)
    nodes[pos] = vecs
    return Tree(partition, doc_ids, nodes, probe=probe, probe_config=probe_config, size_at_build=m)


def encrypt_tree(tree: Tree, key: PartitionKey, rng: np.random.Generator) -> Tree:
    """Encrypted twin: the node matrix encrypted row by row, the structure
    shared with the plaintext tree."""
    if tree.nodes.shape[1] != key.dim:
        raise ForestError(f"node dimension {tree.nodes.shape[1]} does not match key dim {key.dim}")
    enc1, enc2 = encrypt_matrix(tree.nodes, key, rng)
    return Tree(
        tree.partition, tree.doc_ids, enc1=enc1, enc2=enc2, size_at_build=tree.size_at_build
    )


# ---------------------------------------------------------------------------
# Greedy depth-first top-k search.

def node_scores(tree: Tree, query: np.ndarray | Trapdoor) -> np.ndarray:
    """Every node's score in preorder, on the 1e-9 grid of ``round_score``.
    ``query`` is a plaintext vector for a plaintext tree and a trapdoor for
    an encrypted one."""
    if tree.encrypted != isinstance(query, Trapdoor):
        raise ForestError("an encrypted tree takes a trapdoor, a plaintext tree a vector")
    if tree.encrypted:
        return np.round(tree.enc1 @ query.t1 + tree.enc2 @ query.t2, 9)
    return np.round(tree.nodes @ query, 9)


def gdfs(
    tree: Tree, query: np.ndarray | Trapdoor, quota: int
) -> tuple[list[tuple[int, float]], int]:
    """Greedy depth-first search of one tree.

    Returns the tree's top-``quota`` leaves as (doc_id, score), ranked by
    descending score then ascending doc_id, plus the number of node scores
    the search used: the root and both children of every node it expanded.
    A subtree is pruned only when its bound is strictly below the current
    worst candidate score, so tied candidates are never lost.
    """
    if quota < 1:
        raise ForestError("quota must be >= 1")
    if not len(tree.doc_ids):
        return [], 0
    scores = node_scores(tree, query).tolist()
    doc_ids = tree.doc_ids.tolist()
    right = tree.right_children().tolist()
    heap: list[tuple[float, int]] = []  # (score, -doc_id); heap[0] = worst
    visited = 1
    stack = [0]
    while stack:
        i = stack.pop()
        s = scores[i]
        if len(heap) == quota and s < heap[0][0]:
            continue  # bound cannot beat the current worst score
        if doc_ids[i] >= 0:
            entry = (s, -doc_ids[i])
            if len(heap) < quota:
                heappush(heap, entry)
            elif entry > heap[0]:
                heapreplace(heap, entry)
            continue
        visited += 2
        left, r = i + 1, right[i]
        # The better child is popped first; the left one on a tie.
        stack.extend((left, r) if scores[r] > scores[left] else (r, left))
    ranked = sorted(heap, key=lambda e: (-e[0], -e[1]))
    return [(-neg_id, s) for s, neg_id in ranked], visited


def search_forest(
    trees: Sequence[Tree],
    queries: Mapping[int, np.ndarray | Trapdoor],
    k: int,
    quota: int | None = None,
) -> tuple[list[tuple[int, float]], dict[int, int]]:
    """Search the trees ``queries`` names, merge their candidate lists and
    return the global top-k plus per-tree visited-node counts.

    ``queries[i]`` is the query vector or trapdoor of tree i; the trees are
    searched in ascending i.  The per-tree candidate quota defaults to
    ceil(k/t) for t searched trees.
    """
    if k < 1:
        raise ForestError("k must be >= 1")
    if not queries:
        raise ForestError("no index partitions selected")
    q = quota if quota is not None else -(-k // len(queries))
    merged: list[tuple[int, float]] = []
    visits: dict[int, int] = {}
    for i in sorted(queries):
        candidates, visited = gdfs(trees[i], queries[i], q)
        merged.extend(candidates)
        visits[i] = visited
    merged.sort(key=lambda e: (-e[1], e[0]))
    return merged[:k], visits


# ---------------------------------------------------------------------------
# Dynamic maintenance.

def _insert_rank(tree: Tree, leaf_at: np.ndarray, doc_id: int, vec: np.ndarray) -> int:
    """Index into the leaves (preorder rows ``leaf_at``) of the first leaf
    ranking after a new leaf by (-probe score, doc id), or the leaf count if
    none does; with no probe, of the first leaf with a larger doc id.

    A tree with a probe keeps its leaves in that order, so a bisection scores
    about log2(m) of them.  Each is scored row by row, as
    ``order_by_likelihood`` scores them, so a tie falls where a scan of every
    leaf would put it.
    """
    if tree.probe is None:
        later = np.flatnonzero(tree.doc_ids[leaf_at] > doc_id)
        return int(later[0]) if len(later) else len(leaf_at)
    score = float(vec @ tree.probe)

    def ranks_after(j: int) -> bool:
        i = int(leaf_at[j])
        s = _probe_scores((tree.nodes[i],), tree.probe)[0]
        return s < score or (s == score and int(tree.doc_ids[i]) > doc_id)

    return bisect_left(range(len(leaf_at)), True, key=ranks_after)


def insert_leaf(tree: Tree, doc_id: int, vec: np.ndarray) -> tuple[int, bool]:
    """Insert a new leaf at its probe-score rank position.

    Only the insertion path is touched.  Returns (touched-node count,
    rebuild-recommended) where the flag is set once the balance bound
    depth <= ceil(log2 M) + 1 is violated.
    """
    if tree.encrypted:
        raise ForestError("insert into the plaintext tree, then re-encrypt")
    if doc_id < 0:
        raise ForestError("doc ids must be non-negative")
    vec = np.asarray(vec, dtype=np.float64)
    if (tree.doc_ids == doc_id).any():
        raise ForestError(f"doc {doc_id} already present in tree")
    leaf_at = np.flatnonzero(tree.doc_ids >= 0)
    if not len(leaf_at):
        tree.doc_ids = np.array([doc_id], dtype=np.int64)
        tree.nodes = vec[None, :].copy()
        tree.size_at_build = max(tree.size_at_build, 1)
        return 1, False

    # The new leaf goes before the first leaf ranking after it, or after the
    # last leaf.
    rank = _insert_rank(tree, leaf_at, doc_id, vec)
    before = rank < len(leaf_at)
    target = int(leaf_at[rank] if before else leaf_at[-1])
    path = _ancestors(tree, target)
    at = [target, target] if before else [target, target + 1]
    parent_vec = np.maximum(vec, tree.nodes[target])
    tree.doc_ids = np.insert(tree.doc_ids, at, [-1, doc_id])
    tree.nodes = np.insert(tree.nodes, at, [parent_vec, vec], axis=0)
    _refresh_bounds(tree, path)

    touched = 2 + len(path)  # new leaf + new internal node + ancestors
    depth = len(path) + 1
    m = len(leaf_at) + 1
    limit = int(np.ceil(np.log2(m))) + 1 if m > 1 else 1
    needs_rebuild = depth > limit or m >= 2 * max(1, tree.size_at_build)
    return touched, needs_rebuild


def delete_leaf(tree: Tree, doc_id: int) -> tuple[int, bool]:
    """Remove a leaf; its sibling is promoted and ancestor bounds recomputed.
    Returns (touched-node count, rebuild-recommended) where the flag is set
    once a non-empty tree has shrunk to half its size at the last build."""
    if tree.encrypted:
        raise ForestError("delete from the plaintext tree, then re-encrypt")
    hit = np.flatnonzero(tree.doc_ids == doc_id)
    if doc_id < 0 or not len(hit):  # -1 would match an internal node
        raise ForestError(f"doc {doc_id} not found in tree")
    leaf = int(hit[0])
    path = _ancestors(tree, leaf)
    touched = len(path) + 1
    # Dropping the parent row with the leaf row leaves the sibling's subtree
    # in the parent's place.
    drop = [path.pop(), leaf] if path else [leaf]
    tree.doc_ids = np.delete(tree.doc_ids, drop)
    tree.nodes = np.delete(tree.nodes, drop, axis=0)
    _refresh_bounds(tree, path)
    return touched, 0 < len(tree.leaves) * 2 <= tree.size_at_build


def rebuild_tree(tree: Tree) -> Tree:
    """Full local rebuild: reorder the current leaves by probe score and bulk
    load again.  Used when the balance bound is violated or the size has
    doubled/halved since the last build."""
    ids, rows = tree.leaf_rows()
    if tree.probe is not None:
        order = order_by_likelihood(ids, rows, tree.probe)
        ids, rows = ids[order], rows[order]
    return build_tree(ids, rows, tree.partition, tree.probe, tree.probe_config)


# ---------------------------------------------------------------------------
# Serialization: versioned binary, one header and plain array dumps per tree.

def save_forest(trees: Sequence[Tree], path: str | Path) -> None:
    with open(path, "wb") as fh:
        fh.write(FOREST_MAGIC)
        fh.write(_U32.pack(len(trees)))
        for tree in trees:
            mats = (tree.enc1, tree.enc2) if tree.encrypted else (tree.nodes,)
            probe = tree.probe if tree.probe is not None else np.zeros(0)
            cfg = tree.probe_config or ProbeConfig()
            fh.write(
                _TREE_HEADER.pack(
                    tree.partition,
                    int(tree.encrypted),
                    mats[0].shape[1],
                    probe.shape[0],
                    len(tree.doc_ids),
                    cfg.count,
                    cfg.keywords_per_probe,
                    cfg.zipf_a,
                    cfg.seed,
                    tree.size_at_build,
                )
            )
            fh.write(np.ascontiguousarray(probe, dtype="<f8"))
            fh.write(np.ascontiguousarray(tree.doc_ids, dtype="<i8"))
            for mat in mats:
                fh.write(np.ascontiguousarray(mat, dtype="<f8"))


def load_forest(path: str | Path) -> list[Tree]:
    trees = []
    with open(path, "rb") as fh:
        reader = BinaryReader(fh, path, "forest file", ForestError)
        reader.magic((FOREST_MAGIC,))
        for _ in range(reader.unpack(_U32)[0]):
            (partition, encrypted, dim, probe_len, n_nodes,
             count, kpp, zipf_a, seed, size_at_build) = reader.unpack(_TREE_HEADER)
            probe = reader.array("<f8", (probe_len,))
            doc_ids = reader.array("<i8", (n_nodes,))
            mats = [reader.array("<f8", (n_nodes, dim)) for _ in range(1 + encrypted)]
            tree = Tree(
                partition,
                doc_ids,
                probe=probe if probe_len else None,
                probe_config=ProbeConfig(count, kpp, zipf_a, seed),
                size_at_build=size_at_build,
            )
            if encrypted:
                tree.enc1, tree.enc2 = mats
            else:
                tree.nodes = mats[0]
            trees.append(tree)
        reader.end()
    return trees
