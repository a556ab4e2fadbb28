"""Pseudo-keyword noise padding and the precision/privacy trade-off sweep.

Weighted index vectors are extended by U pseudo dimensions; a random subset of
omega pseudo positions per vector receives noise drawn N(0, sigma^2), clamped
to [-1, 1] so padded entries respect the weight range.  A from-scratch
logistic classifier reports how distinguishable padded score distributions are
from unpadded ones (0.5 = indistinguishable), and a grid sweep over sigma picks
the value maximizing the equilibrium score f(precision%, rank-privacy%).
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .errors import PaddingError
from .metrics import equilibrium, precision, rank_privacy

# The discriminator: gradient-descent epochs, learning rate and the seed of
# its train/test shuffle.
_EPOCHS = 400
_LR = 0.5
_SHUFFLE_SEED = 0


@dataclass
class NoiseModel:
    """Noise configuration of one partition."""

    pseudo_count: int          # U_i
    sigma: float               # std of each pseudo entry
    omega: int                 # nonzero pseudo entries per vector
    seed: int = 0

    def __post_init__(self):
        for name in ("pseudo_count", "omega"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise PaddingError(f"{name} must be an integer, got {value!r}")
        if self.pseudo_count < 0:
            raise PaddingError("pseudo_count must be >= 0")
        if not math.isfinite(self.sigma) or self.sigma < 0:
            raise PaddingError(f"sigma must be finite and >= 0, got {self.sigma!r}")
        if self.omega < 0:
            raise PaddingError(f"omega must be >= 0, got {self.omega!r}")
        if self.omega > self.pseudo_count:
            raise PaddingError(
                f"omega={self.omega} exceeds pseudo_count={self.pseudo_count}"
            )



def pad_matrix(values: np.ndarray, model: NoiseModel) -> np.ndarray:
    """Extend an (M, N) weighted matrix to (M, N+U) with clamped noise.

    Pseudo positions and the underlying standard-normal draws depend only on
    the model seed, so sweeping sigma with a fixed seed scales the same noise
    pattern (common random numbers).
    """
    m = values.shape[0]
    u = model.pseudo_count
    padded = np.concatenate([values.astype(np.float64), np.zeros((m, u))], axis=1)
    if u == 0 or m == 0:
        return padded
    rng = np.random.default_rng(model.seed)
    for row in range(m):
        positions = rng.choice(u, size=model.omega, replace=False)
        z = rng.standard_normal(model.omega)
        padded[row, values.shape[1] + positions] = np.clip(model.sigma * z, -1.0, 1.0)
    return padded


# ---------------------------------------------------------------------------
# Distinguishability: a from-scratch logistic discriminator on score samples.

def _logistic_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    w, b = 0.0, 0.0
    for _ in range(_EPOCHS):
        z = np.clip(w * x + b, -30, 30)
        p = 1.0 / (1.0 + np.exp(-z))
        grad = p - y
        w -= _LR * float(grad @ x) / len(x)
        b -= _LR * float(grad.sum()) / len(x)
    return w, b


def distinguishability(padded_scores: Sequence[float], unpadded_scores: Sequence[float]) -> float:
    """Held-out accuracy of a logistic classifier separating the two score
    samples.  Around 0.5 means the padded distribution is indistinguishable."""
    a = np.asarray(padded_scores, dtype=np.float64)
    b = np.asarray(unpadded_scores, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise PaddingError("both score samples must be non-empty")
    if a.size != b.size:
        raise PaddingError("score samples must have equal size")

    x = np.concatenate([a, b])
    y = np.concatenate([np.ones(a.size), np.zeros(b.size)])
    mu, sd = x.mean(), x.std()
    x = (x - mu) / (sd if sd > 0 else 1.0)

    rng = np.random.default_rng(_SHUFFLE_SEED)
    order = rng.permutation(x.size)
    x, y = x[order], y[order]
    cut = max(1, int(0.7 * x.size))
    if len(set(y[:cut])) < 2:
        raise PaddingError("degenerate single-class training split")
    w, bias = _logistic_fit(x[:cut], y[:cut])
    pred = (w * x[cut:] + bias) > 0
    return float((pred == (y[cut:] > 0.5)).mean())


# ---------------------------------------------------------------------------
# Equilibrium sweep over sigma.

@dataclass(frozen=True)
class SigmaRow:
    sigma: float
    precision: float
    rank_privacy: float
    f: float
    discriminator_accuracy: float


@dataclass
class EquilibriumReport:
    rows: list[SigmaRow]
    sigma_star: float = field(init=False)
    best_f: float = field(init=False)
    discriminator_accuracy_at_star: float = field(init=False)

    def __post_init__(self):
        if not self.rows:
            raise PaddingError("equilibrium report needs at least one row")
        best = max(self.rows, key=lambda r: r.f)
        self.sigma_star = best.sigma
        self.best_f = best.f
        self.discriminator_accuracy_at_star = best.discriminator_accuracy

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["sigma", "precision", "rank_privacy", "f", "discriminator_accuracy", "is_optimum"]
            )
            for r in self.rows:
                writer.writerow(
                    [
                        f"{r.sigma:.6g}",
                        f"{r.precision:.6f}",
                        f"{r.rank_privacy:.6f}",
                        f"{r.f:.6f}",
                        f"{r.discriminator_accuracy:.4f}",
                        int(r.sigma == self.sigma_star),
                    ]
                )


class SweepHandle(Protocol):
    """What the sweep needs from a built pipeline."""

    def set_sigma(self, sigma: float) -> None: ...

    def run_query(self, query, k: int) -> list[tuple[int, float]]: ...

    def exact_query(self, query, k: int) -> list[tuple[int, float]]: ...


def optimize_noise(
    handle: SweepHandle, sigma_grid: Sequence[float], k: int, queries: Sequence
) -> EquilibriumReport:
    """Evaluate every sigma on the grid through the full padded pipeline and
    return the grid row maximizing f = x^2/95 + y^2/80."""
    if len(sigma_grid) == 0:
        raise PaddingError("sigma grid is empty")
    if len(queries) == 0:
        raise PaddingError("no queries to evaluate the sigma grid with")

    exact: list[list[tuple[int, float]]] = [handle.exact_query(q, k) for q in queries]
    exact_scores = np.array([s for res in exact for _, s in res])

    rows = []
    for sigma in sigma_grid:
        handle.set_sigma(sigma)
        precisions, privacies, padded_scores = [], [], []
        for q, truth in zip(queries, exact):
            result = handle.run_query(q, k)
            retrieved = [doc for doc, _ in result]
            truth_ids = [doc for doc, _ in truth]
            precisions.append(precision(retrieved, truth_ids))
            privacies.append(rank_privacy(retrieved, truth_ids))
            padded_scores.extend(s for _, s in result)
        x = 100.0 * float(np.mean(precisions))
        y = 100.0 * float(np.mean(privacies))
        acc = distinguishability(padded_scores, exact_scores)
        rows.append(SigmaRow(float(sigma), x / 100.0, y / 100.0, equilibrium(x, y), acc))
    return EquilibriumReport(rows)
