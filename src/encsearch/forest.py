"""Score-ordered balanced index trees, their forest, and greedy top-k search.

Leaves, the rows of one (m, dim) matrix named by an int64 doc id array, are
ordered by accumulated score against random non-negative probe queries
(popular-keyword-biased), so likely hits sit on early search paths.  A tree
has the shape of pairing adjacent nodes level by level, an odd last node
promoted unpaired: a block of b > 1 leaves is a node over its first
2^floor(log2(b-1)) leaves and the rest.  ``build_tree`` lays that out in
preorder top down, one depth at a time; no rows give an empty tree.  Internal
node vectors are the elementwise maximum of their children, which makes them
upper bounds for any non-negative query and lets the depth-first search prune
subtrees that cannot reach the current candidate list.  ``fill_bounds`` sets
them in a tree of any shape, level by level from the deepest up.

Layout.  A tree of m leaves has 2m-1 nodes, every internal node has two
children, and the nodes are stored in preorder as parallel arrays: ``doc_ids``
(int64, the leaf's document id, -1 at an internal node) and one row per node of
the plaintext node matrix ``nodes``, or of the ciphertext halves ``enc1`` and
``enc2`` in an encrypted tree.  The left child of internal node i is i+1; its
right child is the node after the left subtree (``Tree.right_children``).  The
leaves read in preorder are in likelihood order, so an insert or delete splices
rows where one leaf was.  Each tree owns its arrays: an encrypted twin shares
none with its plaintext tree.  A tree caches the lists its search reads until
an update gives it a new ``doc_ids`` array object.  ``insert_leaf`` and
``delete_leaf`` both return the rows they changed as one ``Edit``.  A delete
reaches the plaintext tree's encrypted twin through ``reencrypt_path``, which
re-encrypts only the refreshed ancestor rows; other changes re-encrypt the
whole tree (``encrypt_tree``).

Deletes move rows in place.  ``delete_leaf`` and ``reencrypt_path`` drop
their rows from each of their tree's arrays by moving the later rows up inside
its buffer (``_drop_rows``) and keep a leading view of it, so a delete copies
no whole array and frees nothing.  The slack is at most two rows per delete
since the tree's last whole-tree operation (build, insert, rebuild or load),
and a delete that halves the tree rebuilds it.

File layout (magic ``ESF4``, little endian): the magic and the tree count
(u32); then per tree a header of partition (u32), encrypted flag (u8),
dimension (u32), probe length (u32), node count n (u64) and size at build
(u64), followed by the probe (f64), ``doc_ids`` (n i64) and the node matrix
(n rows of f64), or ``enc1`` then ``enc2``.  Each array, empty or not,
starts at the next multiple of 64 bytes, after zero padding (``binfile``).
The file holds nothing else, so the arrays go between disk and memory as
they are: written from the arrays, and loaded as writable views of the
file's private, copy-on-write mapping, so a delete's in-place moves stay in
memory.  A file of another magic, non-zero padding, or a tree whose doc ids
are no preorder fails the load.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from dataclasses import dataclass, field
from heapq import heappush, heapreplace
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .aspe import PartitionKey, Trapdoor, encrypt_matrix
from .binfile import BinaryReader, writing
from .errors import ForestError

FOREST_MAGIC = b"ESF4"
_U32 = struct.Struct("<I")
_TREE_HEADER = struct.Struct("<IBIIQQ")
# Keywords drawn per probe query (at most the real dimension).
_KEYWORDS_PER_PROBE = 10


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


class Edit(NamedTuple):
    """What ``insert_leaf`` or ``delete_leaf`` changed in a tree's preorder
    arrays: an insert fills ``added``, a delete ``dropped``."""

    dropped: list[int]   # rows removed, indexed as before: the leaf's parent, if any, and the leaf
    added: list[int]     # rows inserted, indexed as after: the new parent and the new leaf,
                         # or [0] for the leaf of an empty tree
    path: list[int]      # the other ancestors, root first, whose bounds were recomputed;
                         # they lie above the changed rows, so their indexes did not move
    needs_rebuild: bool  # too deep, or doubled or halved in size since the last build

    @property
    def touched(self) -> int:
        return len(self.dropped) + len(self.added) + len(self.path)


@dataclass(eq=False)
class Tree:
    partition: int
    doc_ids: np.ndarray                    # (n,) int64 in preorder, -1 at internal nodes
    nodes: np.ndarray | None = None        # (n, dim) plaintext node matrix
    enc1: np.ndarray | None = None         # (n, dim) ciphertext halves of an encrypted tree
    enc2: np.ndarray | None = None
    probe: np.ndarray | None = None        # aggregate of all probe queries
    size_at_build: int = 0                 # leaves at the last build (plaintext trees)
    # (doc_ids, doc_ids.tolist(), right_children().tolist()) of the doc_ids
    # array they were computed from; see ``search_lists``.
    _lists: tuple | None = field(default=None, init=False, repr=False)

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

    def search_lists(self) -> tuple[list[int], list[int]]:
        """``doc_ids`` and ``right_children()`` as lists, computed once per
        ``doc_ids`` array: an update replaces the array, which drops them."""
        if self._lists is None or self._lists[0] is not self.doc_ids:
            self._lists = (self.doc_ids, self.doc_ids.tolist(), self.right_children().tolist())
        return self._lists[1], self._lists[2]

    def depth(self) -> int:
        """Longest root-to-leaf edge count: one per level of internal nodes."""
        return len(_levels(self.right_children()))


def _levels(right: np.ndarray) -> list[np.ndarray]:
    """The internal nodes of the tree whose right children are ``right``,
    grouped by depth, root first: a walk from the root that steps from each
    internal node to both its children, one level at a time."""
    levels, at = [], np.flatnonzero(right[:1] >= 0)
    while len(at):
        levels.append(at)
        at = np.concatenate((at + 1, right[at]))
        at = at[right[at] >= 0]
    return levels


def fill_bounds(tree: Tree) -> None:
    """Set every internal row of a plaintext tree of any shape to the max of
    its children, one level at a time from the deepest up."""
    right = tree.right_children()
    for at in reversed(_levels(right)):
        tree.nodes[at] = np.maximum(tree.nodes[at + 1], tree.nodes[right[at]])


def _ancestors(right: list[int], j: int) -> list[int]:
    """Indexes on the path from the root down to node j, j excluded, in a
    tree whose right children are ``right``."""
    path, i = [], 0
    while i != j:
        path.append(i)
        i = i + 1 if j < right[i] else right[i]
    return path


def _refresh_bounds(tree: Tree, path: list[int]) -> None:
    """Recompute the node vectors on ``path`` bottom-up from their children
    after a splice, which left the path's rows where they were."""
    right = tree.search_lists()[1]
    for i in reversed(path):
        tree.nodes[i] = np.maximum(tree.nodes[i + 1], tree.nodes[right[i]])


def _drop_rows(a: np.ndarray, dropped: Sequence[int]) -> np.ndarray:
    """``np.delete(a, dropped, axis=0)`` in ``a``'s own buffer: each run of
    rows between and after the distinct ``dropped`` rows moves up over the
    gaps before it, and the result is the leading view of the rows left.
    ``a`` must be C-contiguous: its flat view is made by setting the shape,
    which raises where ``reshape`` would copy and lose the writes.  Each run
    moves with one 1-D slice assignment, which numpy copies forward through
    the overlap without a temporary."""
    flat = a.view()
    flat.shape = (-1,)
    width = flat.size // len(a) if len(a) else 0
    gone = sorted(set(dropped))
    for shift, (row, end) in enumerate(zip(gone, gone[1:] + [len(a)]), 1):
        start = (row + 1) * width
        flat[start - shift * width : (end - shift) * width] = flat[start : end * width]
    return a[: len(a) - len(gone)]


# ---------------------------------------------------------------------------
# Probe queries and likelihood ordering.

def zipf_by_rank(popularity: np.ndarray, a: float) -> np.ndarray:
    """A pmf over the entries of ``popularity`` that falls with their rank:
    rank 1 is the most popular entry, ties ranked by position (a stable
    sort), and the probability of rank r is proportional to 1/r^a."""
    ranks = np.empty(len(popularity), dtype=np.int64)
    ranks[np.argsort(-popularity, kind="stable")] = np.arange(1, len(popularity) + 1)
    pmf = 1.0 / ranks.astype(np.float64) ** a
    pmf /= pmf.sum()
    return pmf


def probe_aggregate(
    real_dims: int,
    total_dims: int,
    popularity: np.ndarray,
    count: int,
    zipf_a: float,
    seed: int,
) -> np.ndarray:
    """Sum of ``count`` random non-negative probe queries over the real dimensions.

    Each probe draws ``_KEYWORDS_PER_PROBE`` keywords, Zipf-weighted by
    popularity rank (``zipf_by_rank``), with uniform (0, 1] weights; pseudo
    dimensions stay zero.  Accumulated scores against the probe set reduce to
    a single dot product with this aggregate.
    """
    if count < 1:
        raise ForestError("probe count must be >= 1")
    rng = np.random.default_rng(seed)
    agg = np.zeros(total_dims)
    if real_dims == 0:
        return agg
    n_pick = min(_KEYWORDS_PER_PROBE, real_dims)
    dims = rng.choice(real_dims, size=(count, n_pick), p=zipf_by_rank(popularity, zipf_a))
    weights = 1.0 - rng.random(size=(count, n_pick))  # (0, 1]
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
) -> Tree:
    """Bulk load of the rows, with doc ids ``ids``, as leaves in the given
    order, laid out in preorder top down, one depth at a time: a block of
    b > 1 leaves is an internal node, then the block of its first
    2^floor(log2(b-1)) leaves, then the block of the rest.  ``fill_bounds``
    fills the internal rows.  No rows give an empty tree."""
    ids = np.asarray(ids, dtype=np.int64)
    m = len(ids)
    if rows.shape[0] != m:
        raise ForestError(f"{m} doc ids for {rows.shape[0]} rows")
    if (ids < 0).any():
        raise ForestError("doc ids must be non-negative")
    n = max(2 * m - 1, 0)
    leaf = np.zeros(n, dtype=bool)
    at, size = np.zeros(min(m, 1), dtype=np.int64), np.full(min(m, 1), m)  # one depth's blocks
    while len(at):
        leaf[at[size == 1]] = True
        at, size = at[size > 1], size[size > 1]
        half = np.int64(1) << (np.frexp(size - 1)[1] - 1)  # the largest power of two below size
        at, size = np.concatenate((at + 1, at + 2 * half)), np.concatenate((half, size - half))
    tree = Tree(partition, np.full(n, -1, dtype=np.int64), np.empty((n, rows.shape[1])),
                probe=probe, size_at_build=m)
    tree.doc_ids[leaf], tree.nodes[leaf] = ids, rows
    fill_bounds(tree)
    return tree


def encrypt_tree(tree: Tree, key: PartitionKey, rng: np.random.Generator) -> Tree:
    """Encrypted twin: the node matrix encrypted row by row and a copy of the
    doc ids, no array shared.  It carries none of the proxy's state: no
    probe, and a size at build of 0."""
    if tree.nodes.shape[1] != key.dim:
        raise ForestError(f"node dimension {tree.nodes.shape[1]} does not match key dim {key.dim}")
    enc1, enc2 = encrypt_matrix(tree.nodes, key, rng)
    return Tree(tree.partition, tree.doc_ids.copy(), enc1=enc1, enc2=enc2)


def reencrypt_path(
    enc: Tree, tree: Tree, edit: Edit, key: PartitionKey, rng: np.random.Generator
) -> None:
    """Bring the encrypted twin ``enc`` up to ``tree``, which
    ``delete_leaf`` changed by ``edit`` since ``enc`` was its twin, in
    place: the dropped rows are moved out of ``enc``'s own arrays
    (``_drop_rows``), and the path rows are encrypted anew from ``tree`` and
    written over their old rows.  Every path row is re-encrypted, changed
    bound or not, so the server learns only the path, which it can derive
    from the doc ids."""
    arrays = (enc.doc_ids, enc.enc1, enc.enc2)
    enc.doc_ids, enc.enc1, enc.enc2 = (_drop_rows(a, edit.dropped) for a in arrays)
    enc.enc1[edit.path], enc.enc2[edit.path] = encrypt_matrix(tree.nodes[edit.path], key, rng)


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
    doc_ids, right = tree.search_lists()
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
    trees: Sequence[Tree], queries: Mapping[int, np.ndarray | Trapdoor], k: int
) -> tuple[list[tuple[int, float]], dict[int, int]]:
    """Search the trees ``queries`` names, merge their candidate lists and
    return the global top-k plus per-tree visited-node counts.

    ``queries[i]`` is the query vector or trapdoor of tree i; the trees are
    searched in ascending i, each for its top ceil(k/t) of t searched trees.
    """
    if k < 1:
        raise ForestError("k must be >= 1")
    if not queries:
        raise ForestError("no index partitions selected")
    quota = -(-k // len(queries))
    merged: list[tuple[int, float]] = []
    visits: dict[int, int] = {}
    for i in sorted(queries):
        candidates, visited = gdfs(trees[i], queries[i], quota)
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


def insert_leaf(tree: Tree, doc_id: int, vec: np.ndarray) -> Edit:
    """Insert a new leaf at its probe-score rank position.

    Only the insertion path is touched.  Returns the rows added and
    refreshed, and whether to rebuild: once the balance bound
    depth <= ceil(log2 M) + 1 is violated or the size has doubled.  A
    negative or present ``doc_id`` fails before the tree changes.
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
        return Edit([], [0], [], False)

    # The new leaf goes before the first leaf ranking after it, or after the
    # last leaf.
    rank = _insert_rank(tree, leaf_at, doc_id, vec)
    before = rank < len(leaf_at)
    target = int(leaf_at[rank] if before else leaf_at[-1])
    path = _ancestors(tree.search_lists()[1], target)
    at = [target, target] if before else [target, target + 1]
    parent_vec = np.maximum(vec, tree.nodes[target])
    tree.doc_ids = np.insert(tree.doc_ids, at, [-1, doc_id])
    tree.nodes = np.insert(tree.nodes, at, [parent_vec, vec], axis=0)
    _refresh_bounds(tree, path)

    depth = len(path) + 1
    m = len(leaf_at) + 1
    limit = int(np.ceil(np.log2(m))) + 1 if m > 1 else 1
    needs_rebuild = depth > limit or m >= 2 * max(1, tree.size_at_build)
    # The new parent takes the target's row; the new leaf is its left child
    # before the target, else its right child after it.
    return Edit([], [target, target + 1 if before else target + 2], path, needs_rebuild)


def delete_leaf(tree: Tree, doc_id: int) -> Edit:
    """Remove a leaf; its sibling is promoted and ancestor bounds recomputed.
    Returns the rows dropped and refreshed, and whether to rebuild."""
    if tree.encrypted:
        raise ForestError("delete from the plaintext tree, then re-encrypt")
    hit = np.flatnonzero(tree.doc_ids == doc_id)
    if doc_id < 0 or not len(hit):  # -1 would match an internal node
        raise ForestError(f"doc {doc_id} not found in tree")
    leaf = int(hit[0])
    path = _ancestors(tree.search_lists()[1], leaf)
    # Dropping the parent row with the leaf row leaves the sibling's subtree
    # in the parent's place.
    dropped = [path.pop(), leaf] if path else [leaf]
    tree.doc_ids = _drop_rows(tree.doc_ids, dropped)
    tree.nodes = _drop_rows(tree.nodes, dropped)
    _refresh_bounds(tree, path)
    return Edit(dropped, [], path, 0 < len(tree.leaves) * 2 <= tree.size_at_build)


def rebuild_tree(tree: Tree) -> Tree:
    """Full local rebuild: bulk load the current leaves again.  Used when the
    balance bound is violated or the size has doubled/halved since the last
    build.  Inserts take their rank and deletes keep the order, so the leaves
    are still in likelihood order."""
    return build_tree(*tree.leaf_rows(), tree.partition, tree.probe)


# ---------------------------------------------------------------------------
# Serialization: versioned binary, one header and plain array dumps per tree.

def save_forest(trees: Sequence[Tree], path: str | Path) -> None:
    with writing(path, FOREST_MAGIC) as out:
        out.write(_U32.pack(len(trees)))
        for tree in trees:
            mats = (tree.enc1, tree.enc2) if tree.encrypted else (tree.nodes,)
            probe = tree.probe if tree.probe is not None else np.zeros(0)
            out.write(
                _TREE_HEADER.pack(
                    tree.partition,
                    int(tree.encrypted),
                    mats[0].shape[1],
                    probe.shape[0],
                    len(tree.doc_ids),
                    tree.size_at_build,
                )
            )
            out.array(probe, "<f8")
            out.array(tree.doc_ids, "<i8")
            for mat in mats:
                out.array(mat, "<f8")


def _is_preorder(doc_ids: np.ndarray) -> bool:
    """Whether ``doc_ids`` (-1 at an internal node, >= 0 at a leaf) is the
    preorder of a full binary tree, the invariant ``Tree.right_children``
    relies on: counting +1 per internal node and -1 per leaf, the total stays
    >= 0 before the last node and is -1 after it.  An empty tree is one."""
    total = np.cumsum(np.where(doc_ids < 0, 1, -1))
    if not len(total):
        return True
    return total[-1] == -1 and total[:-1].min(initial=0) >= 0 and doc_ids.min() >= -1


def load_forest(path: str | Path) -> list[Tree]:
    trees = []
    reader = BinaryReader(path, "forest file", ForestError)
    reader.magic(FOREST_MAGIC)
    for _ in range(reader.unpack(_U32)[0]):
        partition, encrypted, dim, probe_len, n_nodes, built = reader.unpack(_TREE_HEADER)
        if encrypted > 1:
            raise ForestError(f"{path}: tree {partition} has encrypted flag {encrypted}")
        probe = reader.array("<f8", (probe_len,))
        doc_ids = reader.array("<i8", (n_nodes,))
        if not _is_preorder(doc_ids):
            raise ForestError(
                f"{path}: tree {partition}'s doc ids are not the preorder of a full binary tree"
            )
        mats = [reader.array("<f8", (n_nodes, dim)) for _ in range(1 + encrypted)]
        tree = Tree(partition, doc_ids, probe=probe if probe_len else None, size_at_build=built)
        if encrypted:
            tree.enc1, tree.enc2 = mats
        else:
            tree.nodes = mats[0]
        trees.append(tree)
    reader.end()
    return trees
