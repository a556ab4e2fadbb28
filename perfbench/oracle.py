"""Brute-force ranking the encrypted search must reproduce.

It scores every padded row the proxy holds (``Pipeline.secure_mats``, rows in
``pset.members`` order) against the padded query (real weights plus the
query's frozen pseudo-entry values) with one matrix product per partition,
and applies the rules of the forest search: the same partition selection, a
per-tree quota of ceil(k/t), scores on the 1e-9 grid, and ties broken by
ascending doc id.
"""

from __future__ import annotations

import numpy as np

SCORE_TOLERANCE = 1e-6


def select(pipeline, keywords) -> list[int]:
    """Partitions whose sub-dictionaries cover some query weight; all of
    them when none does."""
    covered = np.zeros(pipeline.s)
    for word, weight in keywords.items():
        home = pipeline.pset.home.get(word)
        if home is not None:
            covered[home[0]] += weight
    chosen = [p for p in range(pipeline.s) if covered[p] > 0]
    return chosen or list(range(pipeline.s))


def ranking(pipeline, query, k: int) -> list[tuple[int, float]]:
    real = pipeline.real_query_vectors(query.keywords)
    selected = select(pipeline, query.keywords)
    quota = -(-k // len(selected))
    merged: list[tuple[int, float]] = []
    for p in selected:
        q = np.concatenate([real[p], query.alphas[p]])
        scores = np.round(pipeline.secure_mats[p] @ q, 9)
        ids = [doc_id for doc_id, _owner in pipeline.pset.members[p]]
        ranked = sorted(zip(ids, scores.tolist()), key=lambda e: (-e[1], e[0]))
        merged.extend(ranked[:quota])
    merged.sort(key=lambda e: (-e[1], e[0]))
    return merged[:k]


def same_answer(got: list[tuple[int, float]], want: list[tuple[int, float]]) -> bool:
    """Identical doc ids in identical order, scores within the tolerance."""
    return [d for d, _ in got] == [d for d, _ in want] and all(
        abs(a - b) <= SCORE_TOLERANCE for (_, a), (_, b) in zip(got, want)
    )
