"""Multi-owner encrypted ranked keyword search.

Corpus indexing, dictionary partitioning, owner-aware keyword weighting,
pseudo-keyword noise padding, inner-product-preserving encryption and a
likelihood-ordered balanced tree forest with greedy depth-first top-k search.
"""

from .aspe import Trapdoor, keygen, load_key, make_trapdoor, save_key, score
from .corpus import (
    Document,
    build_binary_indexes,
    build_dictionary,
    load_corpus,
    synthetic_corpus,
)
from .engine import Pipeline, PipelineConfig, QuerySpec, SearchResult, Server
from .errors import (
    AspeError,
    CorpusError,
    EncSearchError,
    ForestError,
    PaddingError,
    PartitioningError,
    WeightingError,
)
from .forest import Tree, build_tree, gdfs, load_forest, save_forest, search_forest
from .metrics import efficiency_ratio, equilibrium, precision, rank_privacy, storage_ratio
from .padding import NoiseModel, distinguishability, optimize_noise
from .partitioning import PartitionSet, cluster_indexes, segment_dictionary
from .weighting import build_correlativity, compute_weights

__version__ = "1.0.0"

__all__ = [
    "AspeError",
    "CorpusError",
    "Document",
    "EncSearchError",
    "ForestError",
    "NoiseModel",
    "PaddingError",
    "PartitionSet",
    "PartitioningError",
    "Pipeline",
    "PipelineConfig",
    "QuerySpec",
    "SearchResult",
    "Server",
    "Trapdoor",
    "Tree",
    "WeightingError",
    "build_binary_indexes",
    "build_correlativity",
    "build_dictionary",
    "build_tree",
    "cluster_indexes",
    "compute_weights",
    "distinguishability",
    "efficiency_ratio",
    "equilibrium",
    "gdfs",
    "keygen",
    "load_corpus",
    "load_forest",
    "load_key",
    "make_trapdoor",
    "optimize_noise",
    "precision",
    "rank_privacy",
    "save_forest",
    "save_key",
    "score",
    "search_forest",
    "segment_dictionary",
    "storage_ratio",
    "synthetic_corpus",
]
