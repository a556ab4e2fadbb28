"""End-to-end orchestration of the four roles.

Owners contribute documents and binary indexes; the trusted proxy clusters,
weights, pads and encrypts them into an index forest and turns user requests
into trapdoors; the server stores only the encrypted forest and answers
trapdoor searches.  After an insert or delete the proxy fixes its plaintext
tree, the one store of the padded rows, and pushes the change: for most
deletes only the re-encrypted ancestor rows, else the whole re-encrypted tree.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import shutil
import tempfile
import time
import zlib
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import aspe, forest as forest_mod, padding, partitioning, weighting
from .corpus import Document, all_ints, build_binary_indexes, build_dictionary, id_arrays
from .errors import EncSearchError, ForestError
from .forest import Tree


# Per ``PipelineConfig`` field: the types ``json`` writes and their name (a
# bool is never taken for a number, nor is a numpy integer), then a range
# test, which NaN fails, and its name.
_CONFIG_RULES = {
    "s": ((int, type(None)), "an integer or null", lambda v: v is None or v >= 1, ">= 1 or null"),
    "u_ratio": ((int, float), "a number", lambda v: 0 <= v <= 1, "finite and in [0, 1]"),
    "sigma": ((int, float), "a number", lambda v: 0 <= v < math.inf, "finite and >= 0"),
    "omega": ((int, type(None)), "an integer or null", lambda v: v is None or v >= 0, ">= 0 or null"),
    "probe_count": ((int,), "an integer", lambda v: v >= 1, ">= 1"),
    "zipf_a": ((int, float), "a number", lambda v: v > -math.inf, "above -inf"),
    "seed": ((int,), "an integer", lambda v: True, ""),
    "encrypt": ((bool,), "true or false", lambda v: True, ""),
}


@dataclass(frozen=True)
class PipelineConfig:
    s: int | None = None        # partition count >= 1; None -> ceil(n/1000)
    u_ratio: float = 0.1        # pseudo dimensions as a fraction of N_i, in [0, 1]
    sigma: float = 0.05         # noise std, finite and >= 0
    omega: int | None = None    # nonzero pseudo entries per vector, >= 0; None -> ceil(U/2)
    probe_count: int = 1000     # R probe queries for leaf ordering, >= 1
    zipf_a: float = 1.0         # Zipf exponent of probe and sampled queries, above -inf
    seed: int = 0
    encrypt: bool = True        # benches may skip key generation / encryption

    def __post_init__(self):
        for key, (kinds, kind, in_range, range_name) in _CONFIG_RULES.items():
            value = getattr(self, key)
            if not isinstance(value, kinds) or isinstance(value, bool) != (kinds == (bool,)):
                raise EncSearchError(f"{key} must be {kind}, got {value!r}")
            if not in_range(value):
                raise EncSearchError(f"{key} must be {range_name}, got {value!r}")

    def resolve_s(self, dictionary_size: int) -> int:
        if self.s is not None:
            return self.s
        return partitioning.default_partition_count(dictionary_size)


@dataclass(frozen=True)
class QuerySpec:
    """A reproducible query: keyword weights plus frozen pseudo-entry values
    (one array per partition).  Freezing the alphas makes sigma sweeps use
    common random numbers."""

    keywords: dict[str, float]
    alphas: dict[int, np.ndarray] | None = None


@dataclass
class SearchResult:
    results: list[tuple[int, float]]
    visited: dict[int, int]  # searched partition -> node scores used
    elapsed: float


@dataclass
class UpdateReport:
    doc_id: int
    partition: int
    touched_nodes: int
    rebuilt: bool
    encrypted_rows: int  # rows re-encrypted and pushed to the server; 0 without keys


def _check_k(k) -> None:
    if not all_ints([k]) or k < 1:
        raise EncSearchError(f"k must be an integer >= 1, got {k!r}")


class _CheckedWeights(dict):
    """Word -> weight query weights that ``_query_weights`` has checked."""


def _query_weights(keywords: Mapping[str, float] | Sequence[str]) -> _CheckedWeights:
    """Checked word -> weight query weights; a list weighs each word 1.0.
    Weights it returned pass through unchecked, so a query checks once."""
    if isinstance(keywords, _CheckedWeights):
        return keywords
    if isinstance(keywords, (str, bytes)):
        raise EncSearchError(f"keywords must be a list or mapping of words, got {keywords!r}")
    if not isinstance(keywords, Mapping):
        return _CheckedWeights.fromkeys(keywords, 1.0)
    checked = _CheckedWeights()
    for word, weight in keywords.items():
        if type(weight) is bool or not isinstance(weight, numbers.Real) or not np.isfinite(weight):
            raise EncSearchError(f"non-finite or non-numeric weight {weight!r} for {word!r}")
        if weight < 0:
            raise EncSearchError(f"negative weight {weight!r} for {word!r}")
        checked[word] = weight
    return checked


def _derive_seed(base: int, tag: str) -> int:
    return zlib.crc32(f"{base}:{tag}".encode()) & 0x7FFFFFFF


class Server:
    """Cloud-server role: stores encrypted trees only, ranks by trapdoors."""

    def __init__(self, trees: list[Tree]):
        self.trees = trees

    def search(
        self, trapdoors: Mapping[int, aspe.Trapdoor], k: int
    ) -> tuple[list[tuple[int, float]], dict[int, int]]:
        return forest_mod.search_forest(self.trees, trapdoors, k)

    def replace_tree(self, partition: int, tree: Tree) -> None:
        self.trees[partition] = tree


class Pipeline:
    """The built search system plus all intermediate artifacts.

    The owners' documents and their term-count matrix are read only while
    building: the counts cluster and weight the index, and afterwards each
    document lives on as its id and owner in ``pset.members`` and as its
    padded row, stored once as a leaf row of its partition's plaintext tree,
    whose positive real entries mark its keywords, also for a later insert.
    """

    def __init__(self):
        self.config: PipelineConfig = PipelineConfig()
        self.pset: partitioning.PartitionSet | None = None
        self.correlativity: list[np.ndarray] = []
        self.weights: list[dict[int, np.ndarray]] = []  # owner -> normalized weights
        self.w_max: list[np.ndarray] = []
        self.noise: list[padding.NoiseModel] = []
        self.trees: list[Tree] = []
        self.key: list[aspe.PartitionKey] | None = None  # one per partition
        self.server: Server | None = None
        self._query_rng: np.random.Generator = np.random.default_rng()

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, docs: Sequence[Document], config: PipelineConfig) -> "Pipeline":
        self = cls()
        self.config = config
        docs = list(docs)
        dictionary = build_dictionary(docs)
        counts = build_binary_indexes(docs, dictionary)
        doc_ids, owner_ids = id_arrays(docs)

        s = config.resolve_s(len(dictionary))
        if s > len(docs):
            raise EncSearchError(f"s={s} exceeds the number of documents {len(docs)}")
        self.pset, compressed = partitioning.cluster_indexes(
            counts, doc_ids, owner_ids, dictionary, s, seed=_derive_seed(config.seed, "cluster")
        )
        # Drop each count matrix once read, out of the later stages' peak.
        del counts
        weighted = self._build_weights(compressed)
        del compressed
        self._build_noise(config)
        self._build_forest(weighted)
        if config.encrypt:
            self.key = aspe.keygen(
                [tree.nodes.shape[1] for tree in self.trees], seed=_derive_seed(config.seed, "keys")
            )
        self._encrypt_forest(tag="build")
        return self

    def _build_weights(self, compressed: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Correlativity and owner weights of every partition from its
        (M_i, N_i) term counts; returns each partition's weighted rows."""
        self.correlativity, self.weights, self.w_max = [], [], []
        weighted_mats = []
        for p, counts in enumerate(compressed):
            owners = np.array([owner for _id, owner in self.pset.members[p]], dtype=np.int64)
            bits = counts > 0
            corr = weighting.build_correlativity(bits)
            w, wmax = weighting.compute_weights(counts, owners, corr)
            owner_weights = weighting.weight_indexes(owners, w)
            self.correlativity.append(corr)
            self.weights.append(w)
            self.w_max.append(wmax)
            weighted_mats.append(weighting.weighted_matrix(bits, owner_weights))
        return weighted_mats

    def _build_noise(self, config: PipelineConfig) -> None:
        """Set the noise models of ``config``."""
        noise = []
        for p in range(self.pset.s):
            n_real = len(self.pset.sub_dictionaries[p])
            # A partition whose documents have no home keyword still needs one
            # key dimension: it gets a single pseudo dimension.
            u = int(np.ceil(config.u_ratio * n_real)) if n_real else 1
            omega = config.omega if config.omega is not None else -(-u // 2)
            omega = min(omega, u)
            noise.append(
                padding.NoiseModel(u, config.sigma, omega, seed=_derive_seed(config.seed, f"pad{p}"))
            )
        self.noise = noise

    @property
    def secure_mats(self) -> _MemberRows:
        """Each partition's padded rows in ``pset.members`` order."""
        return _MemberRows(self)

    def _leaf_keyword_counts(self, p: int) -> np.ndarray:
        """Per keyword of partition p, the number of its documents holding
        it, counted in its leaf rows' real (leading) columns."""
        tree = self.trees[p]
        return _keyword_counts(tree.nodes[tree.doc_ids >= 0, : len(self.pset.sub_dictionaries[p])])

    def _build_forest(self, weighted: Sequence[np.ndarray]) -> None:
        """One tree per partition of its weighted rows, padded."""
        self.trees = []
        for p, noise in enumerate(self.noise):
            rows = padding.pad_matrix(weighted[p], noise)
            n_real = weighted[p].shape[1]
            popularity = _keyword_counts(weighted[p])
            seed = _derive_seed(self.config.seed, f"probe{p}")
            probe = forest_mod.probe_aggregate(
                n_real, rows.shape[1], popularity, self.config.probe_count, self.config.zipf_a, seed
            )
            ids = np.array([doc_id for doc_id, _owner in self.pset.members[p]], dtype=np.int64)
            order = forest_mod.order_by_likelihood(ids, rows, probe)
            self.trees.append(forest_mod.build_tree(ids[order], rows[order], p, probe))

    def _encrypt_forest(self, tag: str) -> None:
        if self.key is None:
            return
        rng = np.random.default_rng(_derive_seed(self.config.seed, f"encsplit:{tag}"))
        self.server = Server(
            [forest_mod.encrypt_tree(tree, key, rng) for tree, key in zip(self.trees, self.key)]
        )

    def _reencrypt_tree(
        self, partition: int, tag: str, deletion: forest_mod.Deletion | None = None
    ) -> int:
        """Proxy pushes the changed tree to the server: with ``deletion``,
        the deletion's rows dropped from the server's tree in place and only
        its path rows re-encrypted, else the whole tree re-encrypted and
        replaced.  Returns the rows encrypted."""
        if self.key is None:
            return 0
        rng = np.random.default_rng(_derive_seed(self.config.seed, f"enc:{tag}"))
        tree, key = self.trees[partition], self.key[partition]
        if deletion is not None:
            forest_mod.reencrypt_path(self.server.trees[partition], tree, deletion, key, rng)
            return len(deletion.path)
        self.server.replace_tree(partition, forest_mod.encrypt_tree(tree, key, rng))
        return len(tree.doc_ids)

    # -- query path ---------------------------------------------------------

    @property
    def s(self) -> int:
        return self.pset.s

    def real_query_vectors(self, keywords: Mapping[str, float]) -> dict[int, np.ndarray]:
        """Per-partition query weights over the real dimensions only."""
        out = {p: np.zeros(len(words)) for p, words in enumerate(self.pset.sub_dictionaries)}
        for word, weight in keywords.items():
            if word in self.pset.home:  # an unknown keyword contributes nothing
                p, dim = self.pset.home[word]
                out[p][dim] = weight
        return out

    def _coverage(self, keywords: Mapping[str, float]) -> np.ndarray:
        """Per partition, the summed weight of the keywords homed there."""
        covered = np.zeros(self.s)
        for word, weight in keywords.items():
            loc = self.pset.home.get(word)
            if loc is not None:
                covered[loc[0]] += weight
        return covered

    def select_partitions(
        self, keywords: Mapping[str, float], t: int | None
    ) -> list[int]:
        """The first t partitions, ascending, in the ranking by covered weight
        descending, partition id ascending.  With no t, the partitions the
        query covers, or all of them when it covers none."""
        covered = self._coverage(_query_weights(keywords))
        ranked = sorted(range(self.s), key=lambda p: (-covered[p], p))
        if t is None:
            t = int(np.count_nonzero(covered > 0)) or self.s
        elif not all_ints([t]) or not 1 <= t <= self.s:
            raise EncSearchError(f"t must be an integer in [1, {self.s}], got {t!r}")
        return sorted(ranked[:t])

    def make_trapdoors(
        self,
        keywords: Mapping[str, float],
        selected: Sequence[int],
        alphas: Mapping[int, np.ndarray] | None = None,
    ) -> dict[int, aspe.Trapdoor]:
        """One trapdoor per selected partition; the weights are checked
        before the first random draw."""
        real = self.real_query_vectors(_query_weights(keywords))
        trapdoors = {}
        for p in selected:
            u = self.noise[p].pseudo_count
            if alphas is not None and p in alphas:
                alpha = np.asarray(alphas[p], dtype=np.float64)
            else:
                alpha = self._query_rng.uniform(0.0, 1.0, size=u)
            q = np.concatenate([real[p], alpha])
            trapdoors[p] = aspe.make_trapdoor(q, self.key[p], self._query_rng)
        return trapdoors

    def query(
        self,
        keywords: Mapping[str, float] | Sequence[str],
        k: int,
        t: int | None = None,
        alphas: Mapping[int, np.ndarray] | None = None,
    ) -> SearchResult:
        """Full search: trapdoor generation at the proxy for the partitions
        ``select_partitions`` picks, ranked greedy search at the server, each
        tree for its top ceil(k/t).  ``keywords`` may be a list (weight 1.0
        each)."""
        _check_k(k)
        if self.server is None:
            raise EncSearchError("pipeline was built without encryption")
        keywords = _query_weights(keywords)
        selected = self.select_partitions(keywords, t)
        start = time.perf_counter()
        trapdoors = self.make_trapdoors(keywords, selected, alphas)
        results, visited = self.server.search(trapdoors, k)
        elapsed = time.perf_counter() - start
        return SearchResult(results, visited, elapsed)

    def exact_search(
        self, keywords: Mapping[str, float] | Sequence[str], k: int | None = None
    ) -> list[tuple[int, float]]:
        """Ground truth: plaintext, unpadded weighted scores over all
        partitions, no per-tree quota.  ``k=None`` ranks every document."""
        if k is not None:
            _check_k(k)
        real = self.real_query_vectors(_query_weights(keywords))
        # Every partition, also one without real columns, whose documents
        # score 0, or without documents: its tree's nodes scored in place.
        ids = np.concatenate([tree.doc_ids for tree in self.trees])
        scores = np.concatenate(  # round_score's grid
            [np.round(tree.nodes[:, : len(q)] @ q, 9) for tree, q in zip(self.trees, real.values())]
        )
        ids, scores = ids[ids >= 0], scores[ids >= 0]
        order = np.lexsort((ids, -scores))[:k]
        return list(zip(ids[order].tolist(), scores[order].tolist()))

    # -- sigma sweep handle (padding.optimize_noise protocol) ---------------

    def set_sigma(self, sigma: float) -> None:
        """Re-pad with the same noise pattern scaled to ``sigma``, rebuild the
        forest ordering and re-encrypt.  Keys and dimensions are unchanged;
        ``config.sigma`` records ``sigma`` for ``save``.  A bad ``sigma``
        raises and changes nothing."""
        config = replace(self.config, sigma=sigma)
        weighted = [m[:, : len(w)] for m, w in zip(self.secure_mats, self.pset.sub_dictionaries)]
        self._build_noise(config)
        self.config = config
        self._build_forest(weighted)
        self._encrypt_forest(tag=f"sigma:{sigma}")

    def run_query(self, query: QuerySpec, k: int) -> list[tuple[int, float]]:
        """The top k of every tree's top k: a search of all s trees for
        k*s results, whose per-tree quota ceil(k*s/s) is k."""
        _check_k(k)
        return self.query(query.keywords, k * self.s, t=self.s, alphas=query.alphas).results[:k]

    def exact_query(self, query: QuerySpec, k: int) -> list[tuple[int, float]]:
        return self.exact_search(query.keywords, k)

    def sample_queries(
        self, count: int, n_keywords: int = 10, seed: int = 0, partition: int | None = None
    ) -> list[QuerySpec]:
        """Zipf-weighted keyword queries with frozen pseudo-entry values.

        ``partition`` restricts keyword choice to one sub-dictionary
        (cluster-coherent workload)."""
        if not all_ints((count, n_keywords)) or min(count, n_keywords) < 1:
            raise EncSearchError(
                f"count and n_keywords must be >= 1 integers, got {count!r} and {n_keywords!r}"
            )
        if partition is not None:
            partition = self._check_partition(partition)
        rng = np.random.default_rng(seed)
        if partition is None:
            words = sorted(self.pset.home)
            counts = [self._leaf_keyword_counts(p) for p in range(self.s)]
            df = np.array([counts[p][dim] for p, dim in map(self.pset.home.get, words)])
        else:
            words = list(self.pset.sub_dictionaries[partition])
            df = self._leaf_keyword_counts(partition)
        if not words:
            raise EncSearchError(
                f"cannot sample queries: partition {partition} has an empty sub-dictionary"
            )
        pmf = forest_mod.zipf_by_rank(df, self.config.zipf_a)
        queries = []
        for _ in range(count):
            picks = rng.choice(len(words), size=min(n_keywords, len(words)), replace=False, p=pmf)
            keywords = {words[j]: 1.0 for j in picks}
            alphas = {
                p: rng.uniform(0.0, 1.0, size=self.noise[p].pseudo_count)
                for p in range(self.s)
            }
            queries.append(QuerySpec(keywords, alphas))
        return queries

    # -- dynamic maintenance ------------------------------------------------

    def _check_partition(self, partition) -> int:
        """``partition`` as an int, if it is an integer (``all_ints``) in [0, s)."""
        if not all_ints([partition]):
            raise ForestError(f"partition must be an integer, got {partition!r}")
        if not 0 <= partition < self.s:
            raise ForestError(f"partition {partition} out of range [0, {self.s})")
        return int(partition)

    def _partition_for(self, doc: Document) -> int:
        return int(self._coverage(doc.counts).argmax())  # ties -> lowest partition id

    def _secure_vector_for(self, doc: Document, p: int) -> np.ndarray:
        """Compressed, weighted, padded vector for a new document, padded by
        ``pad_matrix`` with the partition's noise model seeded by the doc id."""
        n_real = len(self.pset.sub_dictionaries[p])
        tf = self.real_query_vectors(doc.counts)[p]
        # Where its owner's build weight is 0 (everywhere for an owner the
        # partition does not know), the document is weighted through the
        # stored correlativity and per-keyword maxima, whose unit diagonal
        # weighs every keyword it holds above 0.
        w = self.weights[p].get(doc.owner_id, np.zeros(n_real))
        w = np.where(w > 0, w, weighting.normalize(self.correlativity[p] @ tf, self.w_max[p]))
        model = replace(self.noise[p], seed=_derive_seed(self.config.seed, f"ins:{doc.doc_id}"))
        return padding.pad_matrix(weighting.weighted_matrix((tf > 0)[None], w[None]), model)[0]

    def insert_document(self, doc: Document, partition: int | None = None) -> UpdateReport:
        """Add one document: only its partition's tree is touched; the proxy
        re-encrypts that whole tree and pushes it."""
        if doc.doc_id < 0:  # the tree would refuse it after the partition took it
            raise ForestError("doc ids must be non-negative")
        if doc.doc_id in self.pset.assignments:
            raise EncSearchError(f"doc_id {doc.doc_id} already exists")
        p = self._check_partition(partition) if partition is not None else self._partition_for(doc)
        vec = self._secure_vector_for(doc, p)

        self.pset.assignments[doc.doc_id] = p
        self.pset.members[p].append((doc.doc_id, doc.owner_id))

        touched, needs_rebuild = forest_mod.insert_leaf(self.trees[p], doc.doc_id, vec)
        if needs_rebuild:
            self.trees[p] = forest_mod.rebuild_tree(self.trees[p])
        rows = self._reencrypt_tree(p, tag=f"ins:{doc.doc_id}")
        return UpdateReport(doc.doc_id, p, touched, needs_rebuild, rows)

    def delete_document(self, doc_id: int) -> UpdateReport:
        """Remove one document from its partition's tree.  The proxy
        re-encrypts only the ancestor rows whose bounds it recomputed and
        splices them into the server's tree; a delete that rebuilds or
        empties the tree re-encrypts the whole tree."""
        if not all_ints([doc_id]):
            raise EncSearchError(f"doc_id must be an integer, got {doc_id!r}")
        if doc_id not in self.pset.assignments:
            raise EncSearchError(f"unknown doc_id {doc_id}")
        p = self.pset.assignments.pop(doc_id)
        self.pset.members[p] = [m for m in self.pset.members[p] if m[0] != doc_id]

        deletion = forest_mod.delete_leaf(self.trees[p], doc_id)
        if deletion.needs_rebuild:
            self.trees[p] = forest_mod.rebuild_tree(self.trees[p])
        whole = deletion.needs_rebuild or not len(self.trees[p].doc_ids)
        rows = self._reencrypt_tree(p, tag=f"del:{doc_id}", deletion=None if whole else deletion)
        return UpdateReport(doc_id, p, deletion.touched, deletion.needs_rebuild, rows)

    # -- persistence --------------------------------------------------------

    def save(self, out_dir: str | Path) -> None:
        """Write the run directory ``out_dir`` atomically.

        The files go into a fresh sibling directory, which then replaces
        ``out_dir`` whole: an existing directory is moved aside, the new one
        renamed into its place and the old one removed.  A save that fails
        leaves ``out_dir`` as it was, and a save over an earlier run leaves
        none of its files behind.  It holds ``config.json``,
        ``partitions.json``, ``weights.bin``, ``forest_plain.bin`` and, if
        encrypted, ``keys.bin`` and ``forest_enc.bin``, each in the one format
        ``load`` reads: not the owners' documents, nor anything ``load``
        derives."""
        out = Path(out_dir)
        if out.exists() and not out.is_dir():
            raise EncSearchError(f"{out} exists and is not a directory")
        out.parent.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix=f".{out.name}.", dir=out.parent))
        try:
            self._write(tmp)
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        if out.exists():
            old = tmp.with_name(tmp.name + ".old")
            os.replace(out, old)
            os.replace(tmp, out)
            shutil.rmtree(old)
        else:
            os.replace(tmp, out)

    def _write(self, out: Path) -> None:
        (out / "config.json").write_text(json.dumps(asdict(self.config)))
        partitioning.save_partition_set(self.pset, out / "partitions.json")
        weighting.save_weights(out / "weights.bin", self.correlativity, self.w_max, self.weights)
        forest_mod.save_forest(self.trees, out / "forest_plain.bin")
        if self.key is not None:
            aspe.save_key(self.key, out / "keys.bin")
            forest_mod.save_forest(self.server.trees, out / "forest_enc.bin")

    @classmethod
    def load(cls, out_dir: str | Path) -> "Pipeline":
        """Read a run directory written by ``save``; the noise models follow
        from the config.  Each file is read in the one format ``save``
        writes; no other file of the directory is read.  The binary files
        are mapped copy-on-write, not copied: their arrays are views that
        read a page only when it is first touched, and edits stay in
        memory (``binfile``).

        Each of these raises EncSearchError naming the file: a missing file,
        a file in an older format (another magic, partition-set version or
        config key), ``keys.bin`` and ``forest_enc.bin`` present when
        ``config.json`` says the run is unencrypted, malformed JSON or JSON
        fields of the wrong type, a damaged weights file or one of other
        dimensions, with an owner listed twice or with a weight or ``w_max``
        that ``save`` cannot write, tree or key files that do
        not hold one entry per partition, in partition order and of the
        partition's width, doc ids that are not the preorder of a full
        binary tree, a probe of a plaintext tree that is not empty or of its
        width, a probe on an encrypted tree, a ``config.json`` setting out
        of its range (``PipelineConfig``), and an encrypted tree
        whose doc ids differ from its plaintext tree's: a delete splices
        re-encrypted rows into the encrypted tree at the plaintext tree's
        positions."""
        out = Path(out_dir)
        self = cls()
        self.config = _load_config(_required(out / "config.json"))
        self.pset = partitioning.load_partition_set(_required(out / "partitions.json"))
        s = self.pset.s
        self._build_noise(self.config)
        self.correlativity, self.w_max, self.weights = weighting.load_weights(
            _required(out / "weights.bin"), self.pset.sizes
        )
        widths = [len(self.pset.sub_dictionaries[p]) + self.noise[p].pseudo_count for p in range(s)]
        self.trees = forest_mod.load_forest(_required(out / "forest_plain.bin"))
        for tree, members in zip(self.trees, self.pset.members):
            _member_positions(tree, members)
        _check_trees(out / "forest_plain.bin", self.trees, widths)
        for name in ("keys.bin", "forest_enc.bin"):
            if (out / name).exists() != self.config.encrypt:
                state = "missing" if self.config.encrypt else "present"
                raise EncSearchError(
                    f"{out / name}: {state}, but config.json has encrypt={self.config.encrypt}"
                )
        if self.config.encrypt:
            self.key = aspe.load_key(out / "keys.bin")
            dims = [pk.dim for pk in self.key]
            if dims != widths:
                raise EncSearchError(f"{out / 'keys.bin'}: key dimensions {dims}, not {widths}")
            self.server = Server(forest_mod.load_forest(out / "forest_enc.bin"))
            _check_trees(out / "forest_enc.bin", self.server.trees, widths)
            for plain, enc in zip(self.trees, self.server.trees):
                if not np.array_equal(enc.doc_ids, plain.doc_ids):
                    raise EncSearchError(
                        f"{out / 'forest_enc.bin'}: tree {enc.partition} does not hold the "
                        "doc ids of its plaintext tree"
                    )
        return self


def _keyword_counts(real: np.ndarray) -> np.ndarray:
    """Per keyword, the number of rows holding it: the positive entries in
    each column of ``real``, a partition's rows over its real dimensions."""
    return np.count_nonzero(real > 0, axis=0).astype(np.float64)


def _required(path: Path) -> Path:
    if not path.exists():
        raise EncSearchError(f"{path}: missing from the run directory")
    return path


def _load_config(path: Path) -> PipelineConfig:
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise EncSearchError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise EncSearchError(f"{path}: not a JSON object")
    unknown = sorted(set(raw) - set(_CONFIG_RULES))
    if unknown:
        raise EncSearchError(f"{path}: unknown config keys {unknown}")
    try:
        return PipelineConfig(**raw)
    except EncSearchError as exc:
        raise EncSearchError(f"{path}: {exc}") from None


def _check_trees(path: Path, trees: Sequence[Tree], widths: Sequence[int]) -> None:
    """Fail unless ``trees``, read from ``path``, are tree p of width
    ``widths[p]`` for each partition p."""
    got = [(t.partition, (t.enc1 if t.encrypted else t.nodes).shape[1]) for t in trees]
    if got != list(enumerate(widths)):
        raise EncSearchError(
            f"{path}: holds (partition, width) {got}, not {list(enumerate(widths))}"
        )
    for tree, width in zip(trees, widths):
        # An insert scores its row against the probe; the server holds none.
        if tree.probe is not None and (tree.encrypted or len(tree.probe) != width):
            raise EncSearchError(
                f"{path}: tree {tree.partition} holds a probe of length {len(tree.probe)}, "
                f"not {0 if tree.encrypted else f'0 or {width}'}"
            )


class _MemberRows:
    """``[p]``: partition p's padded rows, tree p's leaf rows copied in
    ``pset.members`` order.  Only the partition read is copied."""

    def __init__(self, pipeline: Pipeline):
        self.pipeline = pipeline

    def __getitem__(self, p: int) -> np.ndarray:
        tree = self.pipeline.trees[p]  # IndexError past the last partition ends iteration
        return tree.nodes[_member_positions(tree, self.pipeline.pset.members[p])]


def _member_positions(tree: Tree, members: Sequence[tuple[int, int]]) -> np.ndarray:
    """The preorder index of each member's leaf in ``tree``, in ``members``
    order.  The tree's leaves must be the members."""
    ids = np.array([doc_id for doc_id, _owner in members], dtype=np.int64)
    at = np.flatnonzero(tree.doc_ids >= 0)
    by_id = at[np.argsort(tree.doc_ids[at])]
    if not np.array_equal(tree.doc_ids[by_id], np.sort(ids)):
        raise ForestError(f"tree {tree.partition}: leaves do not match the partition's members")
    return by_id[np.searchsorted(tree.doc_ids[by_id], ids)]
