"""Query-quality and cost metrics: precision, rank privacy, equilibrium score,
theoretical efficiency and storage ratios."""

from __future__ import annotations

import math
from typing import Sequence

from .errors import EncSearchError


def precision(retrieved: Sequence[int], exact_topk: Sequence[int]) -> float:
    """Fraction of retrieved ids present in the exact top-k."""
    k = len(retrieved)
    if k == 0:
        return 0.0
    hits = len(set(retrieved) & set(exact_topk))
    return hits / k


def rank_privacy(retrieved: Sequence[int], exact_ranking: Sequence[int]) -> float:
    """Normalized sum of rank displacements between retrieved and true rankings.

    ``exact_ranking`` is the true top-k ordering; a retrieved document missing
    from it counts a displacement of k.  Result lies in [0, 1].
    """
    k = len(retrieved)
    if k == 0:
        return 0.0
    true_rank = {doc: i + 1 for i, doc in enumerate(exact_ranking)}
    total = 0
    for i, doc in enumerate(retrieved, start=1):
        r_true = true_rank.get(doc)
        total += min(abs(i - r_true), k) if r_true is not None else k
    return total / (k * k)


def equilibrium(x: float, y: float) -> float:
    """Game equilibrium score f(x, y) = x^2/95 + y^2/80.

    ``x`` is query precision and ``y`` rank privacy, both as percentages.
    """
    return x * x / 95.0 + y * y / 80.0


def efficiency_ratio(n_docs: int, s: int) -> float:
    """Theoretical search-speed ratio of an s-partition forest over one tree:
    eta = s * log2(N) / (log2(N) - log2(s))."""
    if not n_docs > s >= 1:
        raise EncSearchError(f"need N > s >= 1, got N={n_docs}, s={s}")
    log_n = math.log2(n_docs)
    log_s = math.log2(s)
    return s * log_n / (log_n - log_s)


def storage_ratio(n_docs: int, s: int) -> float:
    """Node-count ratio of one N-leaf tree over one (N/s)-leaf tree,
    (2^log2(N) - 1/2) / (2^log2(N/s) - 1/2); approaches s for large N."""
    if not n_docs >= s >= 1:
        raise EncSearchError(f"need N >= s >= 1, got N={n_docs}, s={s}")
    return (n_docs - 0.5) / (n_docs / s - 0.5)
