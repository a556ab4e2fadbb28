"""Secure inner-product encryption of index and query vectors.

Each partition key holds a 0/1 splitting indicator S and an invertible matrix
pair (M1, M2).  Index vectors are split (copy where S=0, random split where
S=1) and transformed with the transposes; query vectors use the complementary
split and the inverses.  The sum of the two transformed dot products equals
the plaintext inner product, so the server can rank without seeing plaintexts.

Two halves at once.  Key generation and encryption each consist of two halves
that read none of each other's results: the forward product m = t_0 t_1 t_2
and the inverse chain of ``random_invertible``, and C1 = V1 M1 and C2 = V2 M2
of ``encrypt_matrix``.  A single worker thread, made on first use, runs one
matrix product into an array the caller allocated while the caller runs the
other half; numpy releases the GIL inside BLAS, so the two use two cores.
Each half is the same ``np.matmul`` call on the same operands wherever it
runs, so M1, M2, the inverses and every ciphertext are bit-identical to
computing the halves one after the other, and the random draws stay on the
calling thread in their order.  A delete's path of about ten rows is
handed over too: run serially it was faster in a hot loop but slower inside
the update path, where each product reads a V x V key matrix that the work
between deletes has likely evicted, and two cores stream the two matrices
faster than one.  Trapdoors stay on the calling thread.

Row blocks.  ``encrypt_matrix`` splits and encrypts ``_ENCRYPT_BLOCK`` rows
at a time into whole C1 and C2 outputs, so the two split halves exist one
block at a time: besides its input and outputs, an encryption holds two
(block x V) float64 arrays (11.8 MB at V = 961) instead of two whole-tree
ones (20.9 MB for the 1,357-row tree of V = 961).  Each block repacks the
key matrices inside BLAS, so smaller blocks cost time: at that tree, one
BLAS thread, blocks of 384 rows took 7% more CPU time than the whole
product and blocks of 768 rows 4%.  Row blocks of random draws equal one
whole draw.  The products stay byte-identical only if BLAS rounds each row
the same way in a block as in the whole product; on OpenBLAS at one thread
that held for every block of a multiple of 48 rows that was tried (48 to
768), and not for blocks of 64 to 512 rows, so the block size is a
multiple of 48.

Key file layout (magic ``ESK3``, little endian): the magic and the partition
count (u32); then per partition its dimension V (u32), the indicator (V u8),
``m1`` and ``m2`` (V x V f8 each, row-major), and each inverse as
``PartitionKey`` keeps it (V x V f8 each): row j is column ``_split[j]`` of
the inverse, S=0 columns first.  Each array starts at the next multiple of
64 bytes, after zero padding, and loads as a view of the file's private
mapping (``binfile``), so a loaded key copies no matrix.
"""

from __future__ import annotations

import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .binfile import BinaryReader, writing
from .errors import AspeError

KEY_MAGIC = b"ESK3"
_U32 = struct.Struct("<I")
# Largest diagonal block that _unit_lower_inverse hands to np.linalg.inv, and
# the rows per block of the triangular solves.
_TRI_BLOCK = 64
# random_invertible: unit-triangular factors per matrix, the largest accepted
# condition number, and the draws made before giving up.
_FACTORS = 3
_COND_CAP = 1e6
_MAX_TRIES = 10
# Entries per row block of _split_index's temporaries (512 KB of float64).
_SPLIT_BLOCK = 1 << 16
# Rows per block of encrypt_matrix: a multiple of 48 (see the module docstring).
_ENCRYPT_BLOCK = 768

# The second thread that runs one independent half of keygen and encryption;
# made on first use.  Only np.matmul, into arrays the caller allocated, runs
# on it, so it never submits to itself and its single worker cannot deadlock.
_worker: ThreadPoolExecutor | None = None
_worker_lock = threading.Lock()


def _forget_worker() -> None:
    """In a forked child the worker thread does not exist: drop the pool so
    that the next use makes a new one."""
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # not on Windows, which cannot fork
    os.register_at_fork(after_in_child=_forget_worker)


@contextmanager
def _beside(fn, *args, **kwargs):
    """Run ``fn(*args, **kwargs)`` on the worker thread while the with-block
    runs on this one.  Leaving the block waits for ``fn``; an exception in
    ``fn`` is raised here unless the block raised first."""
    global _worker
    with _worker_lock:
        if _worker is None:
            _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="aspe")
        future = _worker.submit(fn, *args, **kwargs)
    try:
        yield
    except BaseException:
        wait((future,))
        raise
    future.result()


def _unit_lower_inverse(t: np.ndarray) -> np.ndarray:
    """Inverse of a unit lower-triangular matrix by 2x2 block recursion.

    With t = [[A, 0], [C, D]], the inverse is [[A^-1, 0], [-D^-1 C A^-1, D^-1]],
    so only diagonal blocks of at most ``_TRI_BLOCK`` rows go through
    ``np.linalg.inv``; the rest is matrix products.  Only the strict lower
    triangle of ``t`` is read (the diagonal is taken as one).  The result is
    exactly zero above the diagonal and exactly one on it.
    """
    n = t.shape[0]
    if n <= _TRI_BLOCK:
        block = np.tril(t, -1)
        np.fill_diagonal(block, 1.0)
        out = np.tril(np.linalg.inv(block), -1)
        np.fill_diagonal(out, 1.0)
        return out
    h = n // 2
    a_inv = _unit_lower_inverse(t[:h, :h])
    d_inv = _unit_lower_inverse(t[h:, h:])
    out = np.zeros_like(t)
    out[:h, :h] = a_inv
    out[h:, h:] = d_inv
    out[h:, :h] = -(d_inv @ (t[h:, :h] @ a_inv))
    return out


def _solve_unit_lower(t: np.ndarray, b: np.ndarray) -> None:
    """Overwrite ``b`` with t^-1 b for unit lower-triangular ``t``.

    Left-looking and blocked: ``_TRI_BLOCK`` rows at a time, top down, each
    block first takes off the product with the rows already solved and is
    then multiplied by its diagonal block's inverse.  Only the strict lower
    triangle of ``t`` is read.
    """
    n = t.shape[0]
    for lo in range(0, n, _TRI_BLOCK):
        hi = min(lo + _TRI_BLOCK, n)
        if lo:
            b[lo:hi] -= t[lo:hi, :lo] @ b[:lo]
        b[lo:hi] = _unit_lower_inverse(t[lo:hi, lo:hi]) @ b[lo:hi]


def _solve_unit_upper(t: np.ndarray, b: np.ndarray) -> None:
    """Overwrite ``b`` with t^-1 b for unit upper-triangular ``t``: the
    bottom-up mirror of ``_solve_unit_lower``, each diagonal block inverted
    through its transpose.  Only the strict upper triangle of ``t`` is read.
    """
    n = t.shape[0]
    for hi in range(n, 0, -_TRI_BLOCK):
        lo = max(hi - _TRI_BLOCK, 0)
        if hi < n:
            b[lo:hi] -= t[lo:hi, hi:] @ b[hi:]
        b[lo:hi] = _unit_lower_inverse(t[lo:hi, lo:hi].T).T @ b[lo:hi]


def random_invertible(dim: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Random invertible matrix and its inverse.

    Built as a product m = t_0 t_1 ... of ``_FACTORS`` unit-triangular
    matrices (alternating lower/upper) whose off-diagonal entries lie in
    [-1, 1], scaled by 1/sqrt(dim) to keep the product well conditioned.
    The inverse starts as t_0^-1 (block recursion on its triangle) and each
    later factor t_k turns it, in place, into t_k^-1 times itself by a blocked
    triangular solve (top down for a lower factor, bottom up for an upper
    one), so no dense ``dim x dim`` inversion or product is made on the
    inverse side.  The worker thread computes m t_k into an array allocated
    here while this thread runs that solve; both only read t_k.  (The other
    way round, the solve's temporaries stayed in the worker's malloc arena
    and raised the benchmark's peak RSS by about 10 MB.)  Factors are drawn
    into two alternating buffers, so the draw of t_{k+1} never overwrites
    the t_k that step k reads, and the last product is written into the
    buffer of the factor before it.  Invertibility is structural; the condition
    number (1-norm estimate) is still checked against ``_COND_CAP``,
    resampling up to ``_MAX_TRIES`` times.
    """
    if dim < 1:
        raise AspeError("matrix dimension must be >= 1")
    scale = 1.0 / np.sqrt(dim)
    buffers = (np.empty((dim, dim)), np.empty((dim, dim)))
    below = np.tri(dim, k=-1, dtype=bool)  # strictly lower triangle
    for _ in range(_MAX_TRIES):
        m = inv = None
        for k in range(_FACTORS):
            lower = k % 2 == 0
            # The bits of uniform(-1, 1): -1 + 2 * random(), scaled, with the
            # other triangle zeroed and a unit diagonal.
            t = buffers[k % 2]
            rng.random(out=t)
            t *= 2.0
            t += -1.0
            t *= scale
            np.copyto(t, 0.0, where=below.T if lower else below)
            np.fill_diagonal(t, 1.0)
            if m is None:
                m, inv = t, _unit_lower_inverse(t)
            else:
                # The last product goes into t_{k-1}'s buffer, which nothing
                # reads any more; at k = 1 that buffer is m itself.
                last = k == _FACTORS - 1 and k > 1
                product = buffers[(k + 1) % 2] if last else np.empty((dim, dim))
                with _beside(np.matmul, m, t, out=product):
                    (_solve_unit_lower if lower else _solve_unit_upper)(t, inv)
                m = product
        cond = np.linalg.norm(m, 1) * np.linalg.norm(inv, 1)
        if cond <= _COND_CAP:
            return m, inv
    raise AspeError(f"could not generate a matrix with condition <= {_COND_CAP:g}")


class PartitionKey:
    """Key material of one partition: indicator S, matrix pair and inverses.

    A trapdoor multiplies each inverse by a vector that is dense on the S=0
    dimensions but, on the S=1 ones, nonzero only where the query is.  So the
    inverses are kept column by column with the S=0 columns first: row j of
    ``_inv_columns[i]`` is column ``_split[j]`` of inverse i.  A trapdoor then
    reads the S=0 block and the query's own S=1 columns, about half of each
    matrix.  The key file holds them in this layout too; they are kept as
    given, not copied.
    """

    def __init__(
        self,
        indicator: np.ndarray,  # (V,), uint8 in {0, 1}
        m1: np.ndarray,
        m2: np.ndarray,
        inv_columns: tuple[np.ndarray, np.ndarray],
    ):
        self.indicator = indicator
        self.m1 = m1
        self.m2 = m2
        self._split = np.argsort(indicator, kind="stable")  # S=0 dimensions, then S=1
        self._zeros = int(indicator.shape[0] - np.count_nonzero(indicator))
        self._inv_columns = inv_columns

    @property
    def dim(self) -> int:
        return self.indicator.shape[0]


@dataclass(frozen=True)
class EncryptedVector:
    c1: np.ndarray
    c2: np.ndarray


@dataclass(frozen=True)
class Trapdoor:
    t1: np.ndarray
    t2: np.ndarray


def _partition_key(dim: int, rng: np.random.Generator) -> PartitionKey:
    indicator = rng.integers(0, 2, size=dim).astype(np.uint8)
    m1, m1_inv = random_invertible(dim, rng)
    m2, m2_inv = random_invertible(dim, rng)
    split = np.argsort(indicator, kind="stable")
    return PartitionKey(indicator, m1, m2, (m1_inv.T[split], m2_inv.T[split]))


def keygen(dims: Sequence[int], seed: int = 0) -> list[PartitionKey]:
    """One independent key per partition, dimension V_i each."""
    if any(d < 1 for d in dims):
        raise AspeError("all key dimensions must be >= 1")
    rng = np.random.default_rng(seed)
    return [_partition_key(d, rng) for d in dims]


def _split_index(values: np.ndarray, key: PartitionKey, rng: np.random.Generator):
    """Index-side split: copy where S=0, random split where S=1.  One
    random draw fills ``v1``; then each block of ``_SPLIT_BLOCK`` entries'
    worth of rows selects its two halves with ``np.where``, so besides the
    two outputs the split holds only one block's temporaries."""
    ones = key.indicator.astype(bool)
    v1 = rng.uniform(0.0, 1.0, size=values.shape)
    v2 = np.empty_like(v1)
    x_rows, r_rows, out_rows = np.atleast_2d(values, v1, v2)
    step = max(1, _SPLIT_BLOCK // key.dim)
    for i in range(0, len(x_rows), step):
        x, r = x_rows[i : i + step], r_rows[i : i + step]
        out_rows[i : i + step] = np.where(ones, x - r, x)
        r[...] = np.where(ones, r, x)
    return v1, v2


def encrypt_vector(
    values: np.ndarray, key: PartitionKey, rng: np.random.Generator
) -> EncryptedVector:
    if values.shape != (key.dim,):
        raise AspeError(f"vector shape {values.shape} does not match key dim {key.dim}")
    v1, v2 = _split_index(values.astype(np.float64), key, rng)
    return EncryptedVector(key.m1.T @ v1, key.m2.T @ v2)


def encrypt_matrix(
    values: np.ndarray, key: PartitionKey, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Batch row-wise encryption: returns (C1, C2), one row per input row,
    split and encrypted ``_ENCRYPT_BLOCK`` rows at a time."""
    if values.ndim != 2 or values.shape[1] != key.dim:
        raise AspeError(f"matrix shape {values.shape} does not match key dim {key.dim}")
    # Both outputs are allocated here, so the worker leaves no array behind.
    c1, c2 = np.empty(values.shape), np.empty(values.shape)
    for lo in range(0, len(values), _ENCRYPT_BLOCK):
        rows = slice(lo, lo + _ENCRYPT_BLOCK)
        v1, v2 = _split_index(values[rows].astype(np.float64, copy=False), key, rng)
        # C2 on the worker thread, C1 on this one.
        with _beside(np.matmul, v2, key.m2, out=c2[rows]):
            np.matmul(v1, key.m1, out=c1[rows])
        del v1, v2  # before the next block's split
    return c1, c2


def make_trapdoor(
    query: np.ndarray, key: PartitionKey, rng: np.random.Generator
) -> Trapdoor:
    """Complementary split (random where S=0, copy where S=1), then the
    inverse transforms.  Query entries must be finite and non-negative;
    negative weights would break the elementwise-max bound used for tree
    pruning."""
    if query.shape != (key.dim,):
        raise AspeError(f"query shape {query.shape} does not match key dim {key.dim}")
    if not np.all(np.isfinite(query)):
        raise AspeError("query vector entries must be finite")
    if np.any(query < 0):
        raise AspeError("query vector entries must be non-negative")
    q = query.astype(np.float64)
    r = rng.uniform(0.0, 1.0, size=q.shape)
    # Split where S=0 (q1 = r, q2 = q - r), copy where S=1 (q1 = q2 = q).  In
    # the key's column order the S=0 entries come first; of the S=1 entries
    # only the query's nonzero ones need their columns.
    n0 = key._zeros
    qs = q[key._split]
    r0 = r[key._split[:n0]]
    nz = n0 + np.flatnonzero(qs[n0:])
    c1, c2 = key._inv_columns
    t1 = c1[:n0].T @ r0 + c1[nz].T @ qs[nz]
    t2 = c2[:n0].T @ (qs[:n0] - r0) + c2[nz].T @ qs[nz]
    return Trapdoor(t1, t2)


def score(encrypted: EncryptedVector, trapdoor: Trapdoor) -> float:
    """Secure matching score; equals the plaintext inner product."""
    if encrypted.c1.shape != trapdoor.t1.shape:
        raise AspeError("ciphertext/trapdoor dimension mismatch")
    return float(encrypted.c1 @ trapdoor.t1 + encrypted.c2 @ trapdoor.t2)


# ---------------------------------------------------------------------------
# Key file: versioned binary record, 64-bit little-endian floats.

def save_key(keys: Sequence[PartitionKey], path: str | Path) -> None:
    with writing(path, KEY_MAGIC) as out:
        out.write(_U32.pack(len(keys)))
        for pk in keys:
            out.write(_U32.pack(pk.dim))
            out.array(pk.indicator, "u1")
            for mat in (pk.m1, pk.m2, *pk._inv_columns):
                out.array(mat, "<f8")


def load_key(path: str | Path) -> list[PartitionKey]:
    reader = BinaryReader(path, "key file", AspeError)
    reader.magic(KEY_MAGIC)
    keys = []
    for _ in range(reader.unpack(_U32)[0]):
        (dim,) = reader.unpack(_U32)
        indicator = reader.array("u1", (dim,))
        m1, m2, inv1, inv2 = (reader.array("<f8", (dim, dim)) for _ in range(4))
        keys.append(PartitionKey(indicator, m1, m2, (inv1, inv2)))
    reader.end()
    return keys
