import math

import numpy as np
import pytest

from encsearch.corpus import synthetic_corpus
from encsearch.engine import Pipeline, PipelineConfig
from encsearch.errors import PaddingError
from encsearch.padding import (
    EquilibriumReport,
    NoiseModel,
    SigmaRow,
    distinguishability,
    optimize_noise,
    pad_matrix,
)


class TestNoiseModel:
    def test_omega_exceeds_u(self):
        with pytest.raises(PaddingError, match="omega"):
            NoiseModel(pseudo_count=4, sigma=0.1, omega=5)

    def test_negative_params(self):
        with pytest.raises(PaddingError):
            NoiseModel(pseudo_count=-1, sigma=0.1, omega=0)
        with pytest.raises(PaddingError):
            NoiseModel(pseudo_count=4, sigma=-0.1, omega=2)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_sigma(self, sigma):
        # A NaN sigma would give every padded row, and so every score, NaN.
        with pytest.raises(PaddingError, match="sigma must be finite"):
            NoiseModel(pseudo_count=4, sigma=sigma, omega=2)

    def test_negative_omega(self):
        with pytest.raises(PaddingError, match="omega must be >= 0"):
            NoiseModel(pseudo_count=4, sigma=0.1, omega=-1)

    @pytest.mark.parametrize("name, value", [
        ("omega", 1.5), ("omega", True), ("pseudo_count", 4.0), ("pseudo_count", "4"),
    ])
    def test_non_integer_counts(self, name, value):
        # pad_matrix draws omega of pseudo_count positions; a float fails there.
        settings = {"pseudo_count": 4, "sigma": 0.1, "omega": 2, name: value}
        with pytest.raises(PaddingError, match=f"{name} must be an integer"):
            NoiseModel(**settings)
        NoiseModel(pseudo_count=np.int64(4), sigma=0.1, omega=np.int64(2))

    def test_default_sizing(self):
        # A pipeline sizes each partition's noise as U = ceil(0.1 * N_i)
        # pseudo dimensions, omega = ceil(U / 2) of them nonzero per row.
        pipe = Pipeline.build(synthetic_corpus(80, 160, 5, seed=2),
                              PipelineConfig(s=3, sigma=0.05, probe_count=50, encrypt=False))
        for p, model in enumerate(pipe.noise):
            n_real = len(pipe.pset.sub_dictionaries[p])
            assert model.pseudo_count == math.ceil(0.1 * n_real)
            assert model.omega == math.ceil(model.pseudo_count / 2)
            assert model.sigma == 0.05


class TestPadMatrix:
    def test_sigma_zero_pseudo_entries_zero(self):
        values = np.random.default_rng(0).random((5, 4))
        model = NoiseModel(pseudo_count=3, sigma=0.0, omega=2, seed=1)
        padded = pad_matrix(values, model)
        assert padded.shape == (5, 7)
        assert not padded[:, 4:].any()

    def test_u_zero_identity(self):
        values = np.random.default_rng(0).random((3, 4))
        model = NoiseModel(pseudo_count=0, sigma=0.5, omega=0)
        np.testing.assert_array_equal(pad_matrix(values, model), values)

    def test_real_prefix_preserved(self):
        values = np.random.default_rng(2).random((6, 5))
        model = NoiseModel(pseudo_count=4, sigma=0.3, omega=2, seed=7)
        padded = pad_matrix(values, model)
        np.testing.assert_array_equal(padded[:, :5], values)

    def test_omega_nonzeros_per_row(self):
        values = np.zeros((10, 2))
        model = NoiseModel(pseudo_count=8, sigma=0.5, omega=3, seed=3)
        padded = pad_matrix(values, model)
        counts = (padded[:, 2:] != 0).sum(axis=1)
        assert (counts == 3).all()

    def test_sample_std_within_ten_percent(self):
        values = np.zeros((1000, 1))
        model = NoiseModel(pseudo_count=10, sigma=0.05, omega=5, seed=0)
        padded = pad_matrix(values, model)
        eps = padded[:, 1:][padded[:, 1:] != 0]
        assert np.std(eps) == pytest.approx(0.05, rel=0.10)

    def test_clamped(self):
        values = np.zeros((200, 1))
        model = NoiseModel(pseudo_count=4, sigma=5.0, omega=2, seed=0)
        padded = pad_matrix(values, model)
        assert padded.max() <= 1.0 and padded.min() >= -1.0

    def test_deterministic_and_common_random_numbers(self):
        values = np.random.default_rng(4).random((8, 3))
        a = pad_matrix(values, NoiseModel(6, 0.05, 3, seed=9))
        b = pad_matrix(values, NoiseModel(6, 0.05, 3, seed=9))
        np.testing.assert_array_equal(a, b)
        # Same seed at doubled sigma scales the identical noise pattern.
        c = pad_matrix(values, NoiseModel(6, 0.10, 3, seed=9))
        mask = a[:, 3:] != 0
        np.testing.assert_array_equal(mask, c[:, 3:] != 0)
        np.testing.assert_allclose(c[:, 3:][mask], 2.0 * a[:, 3:][mask])


class TestDistinguishability:
    def test_identical_distributions_near_half(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=400)
        b = rng.normal(size=400)
        assert distinguishability(a, b) == pytest.approx(0.5, abs=0.05)

    def test_disjoint_support_separable(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=400) + 10.0
        b = rng.normal(size=400)
        assert distinguishability(a, b) >= 0.95

    def test_errors(self):
        with pytest.raises(PaddingError):
            distinguishability([], [1.0])
        with pytest.raises(PaddingError):
            distinguishability([1.0, 2.0], [1.0])


class FakeHandle:
    """Deterministic sweep handle: higher sigma shuffles more of the top-k."""

    def __init__(self):
        self.sigma = 0.0
        self.exact = [list(range(20))]

    def set_sigma(self, sigma):
        self.sigma = sigma

    def exact_query(self, query, k):
        return [(d, 100.0 - d) for d in self.exact[query][:k]]

    def run_query(self, query, k):
        swaps = int(self.sigma * 100)
        order = list(self.exact[query])
        for i in range(min(swaps, len(order) - 1)):
            order[i], order[i + 1] = order[i + 1], order[i]
        return [(d, 100.0 - d + self.sigma) for d in order[:k]]


class TestOptimizeNoise:
    def test_empty_grid(self):
        with pytest.raises(PaddingError):
            optimize_noise(FakeHandle(), [], 5, [0])

    def test_no_queries(self):
        # No queries give no precision to average and no scores to compare.
        with pytest.raises(PaddingError, match="no queries"):
            optimize_noise(FakeHandle(), [0.01], 5, [])

    def test_rows_and_argmax(self):
        report = optimize_noise(FakeHandle(), [0.01, 0.05, 0.1], 10, [0])
        assert len(report.rows) == 3
        best = max(report.rows, key=lambda r: r.f)
        assert report.sigma_star == best.sigma
        assert report.best_f == best.f
        for r in report.rows:
            # f is recomputed exactly from the stored x and y.
            assert r.f == pytest.approx(
                (100 * r.precision) ** 2 / 95 + (100 * r.rank_privacy) ** 2 / 80, abs=1e-12
            )

    def test_csv(self, tmp_path):
        report = EquilibriumReport(
            [SigmaRow(0.01, 0.99, 0.05, 104.0, 0.5), SigmaRow(0.02, 0.98, 0.1, 110.0, 0.5)]
        )
        path = tmp_path / "eq.csv"
        report.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "sigma,precision,rank_privacy,f,discriminator_accuracy,is_optimum"
        assert len(lines) == 3
        assert lines[2].endswith(",1")  # sigma=0.02 row is the optimum
