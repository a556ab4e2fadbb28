import math

import pytest

from encsearch.errors import EncSearchError
from encsearch.metrics import (
    efficiency_ratio,
    equilibrium,
    precision,
    rank_privacy,
    storage_ratio,
)


class TestPrecision:
    def test_identical(self):
        assert precision([1, 2, 3], [3, 2, 1]) == 1.0

    def test_disjoint(self):
        assert precision([1, 2], [3, 4]) == 0.0

    def test_partial(self):
        assert precision([1, 2, 3, 4], [1, 2, 9, 8]) == 0.5

    def test_empty(self):
        assert precision([], [1]) == 0.0


class TestRankPrivacy:
    def test_identical(self):
        assert rank_privacy([5, 6, 7], [5, 6, 7]) == 0.0

    def test_reversal_k2(self):
        # (|1-2| + |2-1|) / 2^2 = 0.5
        assert rank_privacy([2, 1], [1, 2]) == 0.5

    def test_missing_doc_counts_k(self):
        # doc 9 not in the exact ranking -> displacement k = 2.
        assert rank_privacy([1, 9], [1, 2]) == (0 + 2) / 4

    def test_bounded_by_one(self):
        assert rank_privacy([10, 11, 12], [1, 2, 3]) == 1.0


class TestEquilibrium:
    def test_zero(self):
        assert equilibrium(0, 0) == 0.0

    def test_anchor(self):
        assert equilibrium(95, 80) == pytest.approx(175.0)

    def test_hand_values(self):
        # Exact fractions at the reference operating points.
        assert equilibrium(98, 78) == pytest.approx(9604 / 95 + 6084 / 80, abs=1e-12)
        assert equilibrium(97, 79) == pytest.approx(9409 / 95 + 6241 / 80, abs=1e-12)
        assert equilibrium(93, 84) == pytest.approx(8649 / 95 + 7056 / 80, abs=1e-12)

    def test_no_hidden_normalization(self):
        for x, y in [(1.5, 2.5), (50, 50), (100, 100)]:
            assert equilibrium(x, y) == x * x / 95.0 + y * y / 80.0


class TestEfficiencyRatio:
    def test_s1(self):
        assert efficiency_ratio(1024, 1) == pytest.approx(1.0)

    def test_hand_value(self):
        # 4 * log2(16) / (log2(16) - log2(4)) = 4*4/2 = 8
        assert efficiency_ratio(16, 4) == pytest.approx(8.0)

    def test_reference_scale(self):
        assert efficiency_ratio(20000, 80) == pytest.approx(143, abs=1)

    def test_matches_formula(self):
        n, s = 4096, 8
        want = s * math.log2(n) / (math.log2(n) - math.log2(s))
        assert efficiency_ratio(n, s) == pytest.approx(want)

    def test_errors(self):
        with pytest.raises(EncSearchError):
            efficiency_ratio(8, 8)
        with pytest.raises(EncSearchError):
            efficiency_ratio(8, 0)


class TestStorageRatio:
    def test_s1(self):
        assert storage_ratio(100, 1) == 1.0

    def test_1024_4(self):
        assert storage_ratio(1024, 4) == pytest.approx(4.0, rel=0.01)

    def test_approaches_s(self):
        assert storage_ratio(2**20, 16) == pytest.approx(16.0, rel=0.001)

    def test_error(self):
        with pytest.raises(EncSearchError):
            storage_ratio(4, 8)

