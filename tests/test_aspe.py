import hashlib
import json
import os
import re
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from encsearch import aspe
from encsearch.aspe import (
    PartitionKey,
    Trapdoor,
    encrypt_matrix,
    encrypt_vector,
    keygen,
    load_key,
    make_trapdoor,
    random_invertible,
    save_key,
    score,
    _solve_unit_lower,
    _solve_unit_upper,
    _split_index,
    _unit_lower_inverse,
)
from encsearch.errors import AspeError


def identity_key(dim, ones=None):
    """Key with identity matrices and a configurable indicator."""
    s = np.zeros(dim, dtype=np.uint8)
    if ones is not None:
        s[list(ones)] = 1
    eye = np.eye(dim)
    return square_key(s, eye.copy(), eye.copy(), eye.copy(), eye.copy())


def square_key(indicator, m1, m2, m1_inv, m2_inv):
    """Key of these square inverses, regrouped into the column layout that
    ``PartitionKey`` keeps, as ``keygen`` regroups them."""
    split = np.argsort(indicator, kind="stable")
    return PartitionKey(indicator, m1, m2, (m1_inv.T[split], m2_inv.T[split]))


def inverses(key):
    """The square inverses of M1 and M2, rebuilt from the column layout the
    key keeps (row j of ``_inv_columns[i]`` is column ``_split[j]``)."""
    back = np.argsort(key._split)
    return tuple(cols[back].T for cols in key._inv_columns)


def unit_triangular(dim, lower, rng):
    """A factor as ``random_invertible`` draws it: identity plus the strict
    triangle of a uniform [-1, 1] draw scaled by 1/sqrt(dim)."""
    off = rng.uniform(-1.0, 1.0, size=(dim, dim)) * (1.0 / np.sqrt(dim))
    return np.eye(dim) + (np.tril(off, -1) if lower else np.triu(off, 1))


# Run in a child process by the bench-size digest test: the digests of the
# key and ciphertext arrays that build_golden.json's "keygen_bench" names.
BENCH_DIGESTS = """
import hashlib, json, sys
import numpy as np
from encsearch.aspe import encrypt_matrix, keygen

def digest(mat):
    return hashlib.sha256(np.ascontiguousarray(mat, dtype="<f8").tobytes()).hexdigest()

spec = json.loads(sys.argv[1])
key = keygen(spec["dims"], seed=spec["seed"])
enc = spec["encrypt"]
values = np.random.default_rng(enc["values_seed"]).random((enc["rows"], key[0].dim))
c1, c2 = encrypt_matrix(values, key[0], np.random.default_rng(enc["split_seed"]))
print(json.dumps({
    **spec,
    "m1_sha256": [digest(pk.m1) for pk in key],
    "m2_sha256": [digest(pk.m2) for pk in key],
    "inv1_sha256": [digest(pk._inv_columns[0]) for pk in key],
    "inv2_sha256": [digest(pk._inv_columns[1]) for pk in key],
    "encrypt": {**enc, "c1_sha256": digest(c1), "c2_sha256": digest(c2)},
}))
"""


class TestRandomInvertible:
    def test_inverse_exact(self):
        rng = np.random.default_rng(0)
        for dim in (1, 2, 8, 64, 129, 300, 961):
            m, inv = random_invertible(dim, rng)
            np.testing.assert_allclose(m @ inv, np.eye(dim), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 7, 64, 65, 200])
    def test_matrix_is_product_of_drawn_factors(self, dim):
        """m is the left-to-right product of the drawn lower/upper/lower
        factors, redrawn here from the same seed, bit for bit."""
        m, _inv = random_invertible(dim, np.random.default_rng(dim))
        rng = np.random.default_rng(dim)
        want = None
        for k in range(aspe._FACTORS):
            t = unit_triangular(dim, k % 2 == 0, rng)
            want = t if want is None else want @ t
        assert m.tobytes() == want.tobytes()

    def test_holds_four_square_arrays(self):
        """Two factor buffers, the first product and the inverse: the last
        product reuses the buffer of the factor before it, so the traced
        peak stays under five dim x dim arrays."""
        dim = 300
        random_invertible(8, np.random.default_rng(0))  # make the worker first
        tracemalloc.start()
        try:
            random_invertible(dim, np.random.default_rng(dim))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * dim * dim * 8

    def test_condition_cap(self):
        rng = np.random.default_rng(0)
        m, inv = random_invertible(32, rng)
        assert np.linalg.norm(m, 1) * np.linalg.norm(inv, 1) <= 1e6

    def test_invalid_dim(self):
        with pytest.raises(AspeError):
            random_invertible(0, np.random.default_rng(0))

    def test_cap_exhausted(self, monkeypatch):
        monkeypatch.setattr(aspe, "_COND_CAP", 1.0)
        monkeypatch.setattr(aspe, "_MAX_TRIES", 2)
        with pytest.raises(AspeError, match="condition"):
            random_invertible(16, np.random.default_rng(0))


@pytest.mark.parametrize("dim", [1, 2, 63, 64, 65, 129, 300])
def test_unit_lower_inverse(dim):
    rng = np.random.default_rng(dim)
    t = np.eye(dim) + np.tril(rng.uniform(-1.0, 1.0, (dim, dim)) / np.sqrt(dim), -1)
    inv = _unit_lower_inverse(t)
    assert np.all(inv[np.triu_indices(dim, 1)] == 0.0)
    assert np.all(np.diag(inv) == 1.0)
    np.testing.assert_allclose(t @ inv, np.eye(dim), rtol=0, atol=1e-12)


@pytest.mark.parametrize("lower", [True, False], ids=["lower", "upper"])
@pytest.mark.parametrize("dim", [1, 2, 63, 64, 65, 129, 300])
def test_triangular_solve(dim, lower):
    t = unit_triangular(dim, lower, np.random.default_rng(dim))
    b = np.random.default_rng(dim + 1).uniform(-1.0, 1.0, (dim, dim + 3))
    want = np.linalg.solve(t, b)
    (_solve_unit_lower if lower else _solve_unit_upper)(t, b)
    np.testing.assert_allclose(b, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("lower", [True, False], ids=["lower", "upper"])
@pytest.mark.parametrize("dim", [2, 65, 129])
def test_triangular_solve_reads_only_its_triangle(dim, lower):
    t = unit_triangular(dim, lower, np.random.default_rng(dim))
    b = np.random.default_rng(dim + 1).uniform(-1.0, 1.0, (dim, dim))
    poisoned = t.copy()
    poisoned[np.triu_indices(dim, 0) if lower else np.tril_indices(dim, 0)] = np.nan
    solve = _solve_unit_lower if lower else _solve_unit_upper
    clean, got = b.copy(), b.copy()
    solve(t, clean)
    solve(poisoned, got)
    assert np.all(np.isfinite(got))
    assert got.tobytes() == clean.tobytes()


class TestKeygen:
    def test_matches_recorded_matrices(self):
        """M1/M2 pinned bit for bit to the digests recorded before the
        triangular inverses (tests/data/build_golden.json): the random draws
        and the forward products are unchanged, only M^-1 is computed
        differently."""
        golden = json.loads((Path(__file__).parent / "data" / "build_golden.json").read_text())
        spec = golden["keygen"]
        key = keygen(spec["dims"], seed=spec["seed"])

        def digest(mat):
            return hashlib.sha256(np.ascontiguousarray(mat, dtype="<f8").tobytes()).hexdigest()

        assert [digest(pk.m1) for pk in key] == spec["m1_sha256"]
        assert [digest(pk.m2) for pk in key] == spec["m2_sha256"]
        for pk in key:
            m1_inv, m2_inv = inverses(pk)
            np.testing.assert_allclose(pk.m1 @ m1_inv, np.eye(pk.dim), rtol=0, atol=1e-12)
            np.testing.assert_allclose(pk.m2 @ m2_inv, np.eye(pk.dim), rtol=0, atol=1e-12)

    def test_matches_recorded_digests_at_bench_size(self):
        """At the benchmark's sizes (a 1,057- and a 300-dimensional key, a
        1,363-row encryption) M1, M2, both inverses and both ciphertext
        halves are pinned to digests recorded with the halves computed one
        after the other (tests/data/build_golden.json).  OpenBLAS rounds these
        products differently with more than one thread, so they are computed
        in a child process with one BLAS thread, the benchmark's setting."""
        spec = json.loads((Path(__file__).parent / "data" / "build_golden.json").read_text())[
            "keygen_bench"
        ]
        env = dict(os.environ, PYTHONPATH=str(Path(aspe.__file__).parents[1]))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(spec["blas_threads"])
        out = subprocess.run(
            [sys.executable, "-c", BENCH_DIGESTS, json.dumps(spec)],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert json.loads(out) == spec

    def test_shapes_and_indicator(self):
        key = keygen([4, 7], seed=1)
        assert [pk.dim for pk in key] == [4, 7]
        for pk in key:
            assert set(np.unique(pk.indicator)) <= {0, 1}
            m1_inv, m2_inv = inverses(pk)
            np.testing.assert_allclose(pk.m1 @ m1_inv, np.eye(pk.dim), atol=1e-9)
            np.testing.assert_allclose(pk.m2 @ m2_inv, np.eye(pk.dim), atol=1e-9)

    def test_deterministic(self):
        a, b = keygen([5], seed=3), keygen([5], seed=3)
        np.testing.assert_array_equal(a[0].m1, b[0].m1)
        np.testing.assert_array_equal(a[0].indicator, b[0].indicator)

    def test_independent_partitions(self):
        key = keygen([5, 5], seed=3)
        assert not np.array_equal(key[0].m1, key[1].m1)

    def test_invalid_dims(self):
        with pytest.raises(AspeError):
            keygen([4, 0])


class TestSplit:
    def test_split_identity(self):
        # v1 + v2 = 2v on copied (S=0) positions and = v on split (S=1) ones.
        key = identity_key(4, ones=[1, 3])
        rng = np.random.default_rng(0)
        v = np.array([1.0, 2.0, 3.0, 4.0])
        v1, v2 = _split_index(v, key, rng)
        total = v1 + v2
        np.testing.assert_allclose(total[[0, 2]], 2 * v[[0, 2]])
        np.testing.assert_allclose(total[[1, 3]], v[[1, 3]])

    @pytest.mark.parametrize("block", [None, 1, 7])
    @pytest.mark.parametrize("shape", [(5,), (0, 5), (1, 5), (3, 5), (70, 5), (139, 961)])
    def test_matches_masked_split_bit_for_bit(self, monkeypatch, shape, block):
        """The row-block ``np.where`` split equals the two masked passes it
        replaced bit for bit, signed zeros included, for vectors and for
        row counts over, at and under a block."""
        if block is not None:
            monkeypatch.setattr(aspe, "_SPLIT_BLOCK", block * shape[-1])
        dim = shape[-1]
        ind = np.random.default_rng(dim).integers(0, 2, dim).astype(np.uint8)
        ind[:2] = (0, 1)
        key = identity_key(dim, ones=np.flatnonzero(ind))
        values = np.random.default_rng(1).uniform(-1.0, 1.0, size=shape)
        values[values > 0.5] = 0.0
        values[values < -0.5] = -0.0
        original = values.copy()

        ones = ind.astype(bool)
        rng = np.random.default_rng(2)
        want1 = rng.uniform(0.0, 1.0, size=values.shape)
        want2 = values.copy()
        np.subtract(values, want1, out=want2, where=ones)
        np.copyto(want1, values, where=~ones)

        got1, got2 = _split_index(values, key, np.random.default_rng(2))
        for got, want in ((got1, want1), (got2, want2)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert values.tobytes() == original.tobytes()

    def test_identity_key_all_zero_indicator(self):
        key = identity_key(3)
        enc = encrypt_vector(np.array([1.0, 2.0, 3.0]), key, np.random.default_rng(0))
        np.testing.assert_allclose(enc.c1, [1, 2, 3])
        np.testing.assert_allclose(enc.c2, [1, 2, 3])


class TestScoreIdentity:
    def test_identity_key_exact(self):
        key = identity_key(3, ones=[0])
        rng = np.random.default_rng(1)
        v = np.array([0.5, 1.5, 2.5])
        q = np.array([1.0, 0.0, 2.0])
        enc = encrypt_vector(v, key, rng)
        trap = make_trapdoor(q, key, rng)
        assert score(enc, trap) == pytest.approx(v @ q, abs=1e-9)

    def test_unit_vector(self):
        key = keygen([4], seed=2)[0]
        rng = np.random.default_rng(0)
        v = q = np.array([0.0, 1.0, 0.0, 0.0])
        enc = encrypt_vector(v, key, rng)
        trap = make_trapdoor(q, key, rng)
        assert score(enc, trap) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("dim", [2, 8, 33])
    def test_random_pairs(self, dim):
        key = keygen([dim], seed=dim)[0]
        rng = np.random.default_rng(7)
        for _ in range(100):
            v = rng.normal(size=dim)
            q = np.abs(rng.normal(size=dim))
            got = score(encrypt_vector(v, key, rng), make_trapdoor(q, key, rng))
            want = float(v @ q)
            assert abs(got - want) <= 1e-6 * (1 + abs(want))

    @settings(max_examples=50, deadline=None)
    @given(
        v=arrays(np.float64, 6, elements=st.floats(-10, 10)),
        q=arrays(np.float64, 6, elements=st.floats(0, 10)),
        seed=st.integers(0, 1000),
    )
    def test_preservation_property(self, v, q, seed):
        key = keygen([6], seed=seed)[0]
        rng = np.random.default_rng(seed)
        got = score(encrypt_vector(v, key, rng), make_trapdoor(q, key, rng))
        want = float(v @ q)
        assert abs(got - want) <= 1e-6 * (1 + abs(want))

    def test_randomized_encryption_same_score(self):
        key = keygen([8], seed=4)[0]
        rng = np.random.default_rng(0)
        v = rng.normal(size=8)
        q = np.abs(rng.normal(size=8))
        e1 = encrypt_vector(v, key, rng)
        e2 = encrypt_vector(v, key, rng)
        assert not np.allclose(e1.c1, e2.c1)  # fresh split randomness
        trap = make_trapdoor(q, key, rng)
        assert score(e1, trap) == pytest.approx(score(e2, trap), abs=1e-8)

    def test_same_request_different_trapdoors(self):
        key = keygen([8], seed=4)[0]
        rng = np.random.default_rng(0)
        v = rng.normal(size=8)
        q = np.abs(rng.normal(size=8))
        enc = encrypt_vector(v, key, rng)
        t1 = make_trapdoor(q, key, rng)
        t2 = make_trapdoor(q, key, rng)
        assert not np.allclose(t1.t1, t2.t1)
        assert score(enc, t1) == pytest.approx(score(enc, t2), abs=1e-8)

    def test_zero_query_zero_scores(self):
        key = keygen([5], seed=5)[0]
        rng = np.random.default_rng(0)
        trap = make_trapdoor(np.zeros(5), key, rng)
        enc = encrypt_vector(rng.normal(size=5), key, rng)
        assert score(enc, trap) == pytest.approx(0.0, abs=1e-9)


class TestTrapdoorColumns:
    """make_trapdoor reads the inverses column-wise, S=0 columns first; it
    must equal the dense complementary split times the square inverses."""

    @staticmethod
    def dense_trapdoor(q, key, rng):
        ones = key.indicator.astype(bool)
        r = rng.uniform(0.0, 1.0, size=q.shape)
        q1 = np.where(ones, q, r)
        q2 = np.where(ones, q, q - r)
        m1_inv, m2_inv = inverses(key)
        return m1_inv @ q1, m2_inv @ q2

    @pytest.mark.parametrize(
        "key",
        [
            keygen([1], seed=1)[0],
            keygen([7], seed=2)[0],
            keygen([40], seed=3)[0],
            identity_key(5),
            identity_key(5, ones=range(5)),
        ],
        ids=["dim1", "dim7", "dim40", "all-zero-S", "all-one-S"],
    )
    def test_matches_dense_split(self, key):
        rng = np.random.default_rng(4)
        for density in (0.0, 0.2, 1.0):
            q = np.abs(rng.normal(size=key.dim)) * (rng.random(key.dim) < density)
            trap = make_trapdoor(q, key, np.random.default_rng(9))
            t1, t2 = self.dense_trapdoor(q, key, np.random.default_rng(9))
            np.testing.assert_allclose(trap.t1, t1, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(trap.t2, t2, rtol=1e-12, atol=1e-12)

    def test_inverses_kept_exactly(self):
        rng = np.random.default_rng(5)
        indicator = rng.integers(0, 2, size=9).astype(np.uint8)
        a, b = rng.normal(size=(9, 9)), rng.normal(size=(9, 9))
        key = PartitionKey(indicator, np.eye(9), np.eye(9), (a, b))
        assert key._inv_columns[0] is a and key._inv_columns[1] is b
        key = square_key(indicator, np.eye(9), np.eye(9), a, b)
        np.testing.assert_array_equal(inverses(key)[0], a)
        np.testing.assert_array_equal(inverses(key)[1], b)


class TestEncryptMatrix:
    def test_rows_score_like_vectors(self):
        key = keygen([6], seed=6)[0]
        rng = np.random.default_rng(2)
        mat = rng.normal(size=(5, 6))
        c1, c2 = encrypt_matrix(mat, key, rng)
        q = np.abs(rng.normal(size=6))
        trap = make_trapdoor(q, key, rng)
        for i in range(5):
            got = float(c1[i] @ trap.t1 + c2[i] @ trap.t2)
            assert got == pytest.approx(float(mat[i] @ q), abs=1e-8)

    @pytest.mark.parametrize("indicator", ["random", "zeros", "ones"])
    def test_matches_copying_split_bit_for_bit(self, indicator):
        """The in-place split draws the same randomness and does the same
        arithmetic as the copy-and-index form it replaced, and leaves its
        input alone."""
        dim = 40
        base = keygen([dim], seed=3)[0]
        s = {
            "random": base.indicator,
            "zeros": np.zeros(dim, dtype=np.uint8),
            "ones": np.ones(dim, dtype=np.uint8),
        }[indicator]
        assert indicator != "random" or 0 < s.sum() < dim
        key = square_key(s, base.m1, base.m2, *inverses(base))
        values = np.random.default_rng(4).uniform(size=(25, dim))
        original = values.copy()

        ones = s.astype(bool)
        rng = np.random.default_rng(5)
        v1 = values.copy()
        r = rng.uniform(0.0, 1.0, size=values.shape)
        v1[..., ones] = r[..., ones]
        v2 = values.copy()
        v2[..., ones] = values[..., ones] - r[..., ones]
        want = (v1 @ key.m1, v2 @ key.m2)

        got = encrypt_matrix(values, key, np.random.default_rng(5))
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        assert values.tobytes() == original.tobytes()

    @pytest.mark.parametrize("blocks, extra", [
        (0, 0), (0, 1), (0, 47), (0, 48), (0, 49), (1, -1), (1, 0), (1, 1), (3, 5),
    ])
    def test_row_blocks(self, monkeypatch, blocks, extra):
        """Split and encrypted ``_ENCRYPT_BLOCK`` rows at a time, one worker
        hand-over per block, the split halves equal one draw of the whole
        matrix and every row scores its plaintext inner product."""
        block = aspe._ENCRYPT_BLOCK
        n, dim = blocks * block + extra, 20
        key = keygen([dim], seed=2)[0]
        values = np.random.default_rng(n).uniform(size=(n, dim))
        want = _split_index(values, key, np.random.default_rng(7))

        halves, handed = [], []

        def split(*args):
            halves.append(_split_index(*args))
            return halves[-1]

        def beside(fn, v, *args, **kwargs):
            handed.append(len(v))
            return real_beside(fn, v, *args, **kwargs)

        real_beside = aspe._beside
        monkeypatch.setattr(aspe, "_split_index", split)
        monkeypatch.setattr(aspe, "_beside", beside)
        c1, c2 = encrypt_matrix(values, key, np.random.default_rng(7))

        sizes = [min(block, n - lo) for lo in range(0, n, block)]
        assert [len(v1) for v1, _ in halves] == sizes
        assert handed == sizes
        for i, whole in enumerate(want):
            got = np.concatenate([h[i] for h in halves] or [np.empty((0, dim))])
            assert got.tobytes() == whole.tobytes()
        q = np.random.default_rng(1).uniform(size=dim)
        trap = make_trapdoor(q, key, np.random.default_rng(3))
        assert c1.shape == c2.shape == (n, dim)
        np.testing.assert_allclose(c1 @ trap.t1 + c2 @ trap.t2, values @ q, rtol=0, atol=1e-9)

    def test_holds_one_block_of_split_halves(self):
        """Besides its two outputs, an encryption holds the split halves of
        one block and the split's temporaries, about four blocks' bytes;
        the whole split, or a block's halves kept into the next block's
        split, would be six."""
        block, dim = aspe._ENCRYPT_BLOCK, 64
        key = keygen([dim], seed=0)[0]
        values = np.random.default_rng(0).random((3 * block + 5, dim))
        encrypt_matrix(values, key, np.random.default_rng(1))  # make the worker first
        tracemalloc.start()
        try:
            encrypt_matrix(values, key, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 2 * values.nbytes < 5 * block * dim * 8

    def test_shape_errors(self):
        key = keygen([4], seed=0)[0]
        rng = np.random.default_rng(0)
        with pytest.raises(AspeError):
            encrypt_matrix(np.zeros((2, 5)), key, rng)
        with pytest.raises(AspeError):
            encrypt_vector(np.zeros(5), key, rng)


def key_and_ciphertext_bytes(seed):
    """Every array of ``keygen([300, 65, 7], seed)`` and of encrypting 400
    rows with its first key, as bytes."""
    key = keygen([300, 65, 7], seed=seed)
    values = np.random.default_rng(seed).random((400, 300))
    c1, c2 = encrypt_matrix(values, key[0], np.random.default_rng(seed + 1))
    mats = [mat for pk in key for mat in (pk.m1, pk.m2, *pk._inv_columns)]
    return [mat.tobytes() for mat in (*mats, c1, c2)]


class TestWorkerThread:
    def test_concurrent_callers_match_serial_calls(self, monkeypatch):
        """Four threads that each run keygen and encrypt_matrix at once, all
        starting before the worker exists, make one worker thread, and their
        halves, queued on it, give the bytes of serial calls."""
        serial = [key_and_ciphertext_bytes(seed) for seed in range(4)]
        monkeypatch.setattr(aspe, "_worker", None)
        workers = {th for th in threading.enumerate() if th.name.startswith("aspe")}
        start = threading.Barrier(4)
        got = [None] * 4

        def run(seed):
            start.wait()
            got[seed] = key_and_ciphertext_bytes(seed)

        threads = [threading.Thread(target=run, args=(seed,)) for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
            started = {th for th in threading.enumerate() if th.name.startswith("aspe")} - workers
        finally:
            sys.setswitchinterval(interval)
            if aspe._worker is not None:
                aspe._worker.shutdown()
        assert not any(th.is_alive() for th in threads)
        assert got == serial
        assert len(started) == 1

    def test_worker_exception_reaches_caller(self):
        """An exception raised in the worker's half is the one the caller
        sees, and the next call runs normally."""
        want = key_and_ciphertext_bytes(5)
        error = ArithmeticError("worker half failed")

        def fail():
            raise error

        with pytest.raises(ArithmeticError) as caught:
            with aspe._beside(fail):
                pass
        assert caught.value is error
        # encrypt_matrix runs C2 = V2 M2 on the worker: an M2 of the wrong
        # width fails there, after C1 succeeded here.
        base = keygen([6], seed=6)[0]
        bad = square_key(base.indicator, base.m1, np.ones((6, 5)), *inverses(base))
        with pytest.raises(ValueError, match="matmul"):
            encrypt_matrix(np.ones((4, 6)), bad, np.random.default_rng(0))
        assert key_and_ciphertext_bytes(5) == want

    def test_solve_exception_reaches_caller(self, monkeypatch):
        """keygen's triangular solve runs beside the worker's product; its
        exception is the one the caller sees, and the next call runs
        normally."""
        want = key_and_ciphertext_bytes(5)
        error = ArithmeticError("solve failed")

        def fail(t, b):
            raise error

        monkeypatch.setattr(aspe, "_solve_unit_upper", fail)
        with pytest.raises(ArithmeticError) as caught:
            random_invertible(65, np.random.default_rng(0))
        assert caught.value is error
        monkeypatch.undo()
        assert key_and_ciphertext_bytes(5) == want

    def test_caller_exception_waits_for_worker(self):
        """An exception in the caller's half is raised only after the
        worker's half has finished, and wins over it."""
        finished = threading.Event()

        def slow():
            time.sleep(0.05)
            finished.set()
            raise ArithmeticError("worker half failed")

        with pytest.raises(KeyError):
            with aspe._beside(slow):
                raise KeyError("caller half failed")
        assert finished.is_set()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_gets_a_new_worker(self):
        """A child forked after the worker started has no worker thread; its
        first encryption starts one instead of waiting on the parent's."""
        key = keygen([8], seed=1)[0]
        encrypt_matrix(np.ones((3, 8)), key, np.random.default_rng(0))
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                encrypt_matrix(np.ones((3, 8)), key, np.random.default_rng(0))
                code = 0
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0


class TestTrapdoorValidation:
    def test_negative_entries_rejected(self):
        key = keygen([3], seed=0)[0]
        with pytest.raises(AspeError, match="non-negative"):
            make_trapdoor(np.array([1.0, -0.1, 0.0]), key, np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, bad):
        key = keygen([3], seed=0)[0]
        with pytest.raises(AspeError, match="finite"):
            make_trapdoor(np.array([1.0, bad, 0.0]), key, np.random.default_rng(0))

    def test_dimension_mismatch(self):
        key = keygen([3], seed=0)[0]
        with pytest.raises(AspeError):
            make_trapdoor(np.zeros(4), key, np.random.default_rng(0))
        with pytest.raises(AspeError):
            score(
                encrypt_vector(np.zeros(3), key, np.random.default_rng(0)),
                Trapdoor(np.zeros(4), np.zeros(4)),
            )


class TestKeyFile:
    def test_round_trip(self, tmp_path):
        """Every stored array comes back bitwise, a seeded trapdoor from the
        loaded key equals the in-memory one, and saving the loaded key
        rewrites the file byte for byte."""
        key = keygen([3, 6, 40], seed=8)
        path = tmp_path / "keys.bin"
        save_key(key, path)
        loaded = load_key(path)
        assert len(loaded) == 3
        for a, b in zip(key, loaded):
            np.testing.assert_array_equal(a.indicator, b.indicator)
            assert a.indicator.dtype == b.indicator.dtype
            for mat_a, mat_b in zip((a.m1, a.m2, *inverses(a)), (b.m1, b.m2, *inverses(b))):
                np.testing.assert_array_equal(mat_a, mat_b)
            for cols_a, cols_b in zip(a._inv_columns, b._inv_columns):
                assert cols_a.dtype == cols_b.dtype and cols_b.flags.c_contiguous
                np.testing.assert_array_equal(cols_a, cols_b)
            q = np.abs(np.random.default_rng(b.dim).normal(size=b.dim))
            q[::3] = 0.0
            want = make_trapdoor(q, a, np.random.default_rng(11))
            got = make_trapdoor(q, b, np.random.default_rng(11))
            np.testing.assert_array_equal(got.t1, want.t1)
            np.testing.assert_array_equal(got.t2, want.t2)
        again = tmp_path / "again.bin"
        save_key(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_file_stores_inverses_in_trapdoor_column_order(self, tmp_path):
        pk = keygen([5], seed=2)[0]
        path = tmp_path / "keys.bin"
        save_key([pk], path)
        raw = path.read_bytes()
        m1_inv, m2_inv = inverses(pk)
        mats = [pk.m1, pk.m2, m1_inv.T[pk._split], m2_inv.T[pk._split]]
        # Each array after zero padding to the next multiple of 64 bytes.
        want = b"ESK3" + struct.pack("<II", 1, 5)
        for arr in (pk.indicator, *(m.astype("<f8") for m in mats)):
            want += bytes(-len(want) % 64) + arr.tobytes()
        assert raw == want

    def test_oversized_dimension_fails_before_allocating(self, tmp_path):
        path = tmp_path / "keys.bin"
        path.write_bytes(b"ESK3" + struct.pack("<II", 1, 2**32 - 1) + b"\0" * 64)
        with pytest.raises(AspeError, match="truncated"):
            load_key(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "keys.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(AspeError, match="magic"):
            load_key(path)

    def test_rejects_esk1_file(self, tmp_path):
        """An ESK1 file, which held the square inverses row-major, fails the
        load with an error that names the file, the magic it holds and the
        one expected."""
        path = tmp_path / "keys.bin"
        save_key(keygen([3], seed=1), path)
        path.write_bytes(b"ESK1" + path.read_bytes()[4:])
        want = f"{path}: not a key file (magic b'ESK1', expected b'ESK3')"
        with pytest.raises(AspeError, match=re.escape(want)):
            load_key(path)
