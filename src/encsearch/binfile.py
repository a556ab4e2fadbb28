"""The package's binary files: written whole, read as views of one mapping.

Every array in a file starts at a multiple of ``ALIGN`` bytes from the start
of the file; the gap before it, after the headers or the array before, is zero
padding.  ``writing`` writes a file through a temporary sibling that then
replaces it (``os.replace``), so no file is ever rewritten in place.

``BinaryReader`` maps the file once, private and copy-on-write
(``mmap.ACCESS_COPY``), and each array it returns is a writable, C-contiguous
view into that mapping: no array is copied at load, a page is read from disk
only when something first touches it, and writes to an array change the
process's own copy of its pages, never the file.  The mapping, and its one
file descriptor, lives until the last array that views it is dropped.  A
file's replacement leaves the mapping on the replaced file, so a live
pipeline keeps its arrays; rewriting or truncating a mapped file in place
from outside can end the process with SIGBUS.

An array that an insert or rebuild replaces would keep its pages resident
for as long as any other array of its file lives.  So once an array and
every view of it are gone, its whole pages are given back with
``madvise(MADV_DONTNEED)``: only the pages that lie wholly inside its byte
range, because a page it shares with a neighbouring array may hold that
array's bytes, or its private edits.  The release hangs on the array that
``np.frombuffer`` returns, which every view (reshape, slice) keeps as its
``.base``, so it fires only with the last view.  Where ``mmap`` has no
``MADV_DONTNEED``, the pages stay until the mapping goes.

Every read is checked against the bytes left in the file: a file shorter
than its headers say, one with bytes after its last record, or non-zero
padding raises the caller's ``EncSearchError`` subclass rather than a
``struct`` or numpy error.
"""

from __future__ import annotations

import math
import mmap
import os
import struct
import weakref
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from .errors import EncSearchError

ALIGN = 64
_RELEASE = getattr(mmap, "MADV_DONTNEED", None)


class BinaryWriter:
    """Headers as they come, each array after zero padding to ``ALIGN``."""

    def __init__(self, fh: BinaryIO):
        self._fh = fh
        self._pos = 0

    def write(self, data: bytes) -> None:
        self._pos += self._fh.write(data)

    def array(self, values, dtype: str) -> None:
        self.write(bytes(-self._pos % ALIGN))
        self.write(np.ascontiguousarray(values, dtype=dtype).data)


@contextmanager
def writing(path: str | Path, magic: bytes) -> Iterator[BinaryWriter]:
    """A ``BinaryWriter`` that has written ``magic`` into a temporary sibling
    of ``path``, which replaces ``path`` once the block ends; a block that
    raises leaves ``path`` as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            writer = BinaryWriter(fh)
            writer.write(magic)
            yield writer
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class BinaryReader:
    def __init__(self, path: str | Path, kind: str, error: type[EncSearchError]):
        with open(path, "rb") as fh:
            # An empty file cannot be mapped; its magic check fails anyway.
            size = os.fstat(fh.fileno()).st_size
            self._buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY) if size else b""
        self._pos = 0
        self._path = path
        self._kind = kind
        self._error = error

    def _take(self, nbytes: int) -> int:
        """The offset of the next ``nbytes`` bytes, which are then passed."""
        if nbytes > len(self._buf) - self._pos:
            raise self._error(f"{self._path}: truncated {self._kind}")
        self._pos += nbytes
        return self._pos - nbytes

    def magic(self, expected: bytes) -> None:
        """Check the 4-byte magic against the one ``save`` writes."""
        magic = self._buf[:4]
        if magic != expected:
            raise self._error(
                f"{self._path}: not a {self._kind} (magic {magic!r}, expected {expected!r})"
            )
        self._pos = 4

    def unpack(self, layout: struct.Struct) -> tuple:
        return layout.unpack_from(self._buf, self._take(layout.size))

    def array(self, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
        at = self._take(-self._pos % ALIGN)
        if any(self._buf[at : self._pos]):
            raise self._error(
                f"{self._path}: non-zero padding before the array at byte {self._pos} "
                f"of the {self._kind}"
            )
        count = math.prod(shape)
        at = self._take(np.dtype(dtype).itemsize * count)
        flat = np.frombuffer(self._buf, dtype, count, at)
        first = -(-at // mmap.PAGESIZE) * mmap.PAGESIZE
        past = self._pos // mmap.PAGESIZE * mmap.PAGESIZE
        if past > first and _RELEASE is not None:
            # On ``flat``, not on the reshaped array: each view's base is ``flat``.
            release = weakref.finalize(flat, self._buf.madvise, _RELEASE, first, past - first)
            release.atexit = False  # at exit the pages go with the process
        return flat.reshape(shape)

    def end(self) -> None:
        """Check that the last record ended the file."""
        left = len(self._buf) - self._pos
        if left:
            raise self._error(
                f"{self._path}: {left} bytes after the last record of the {self._kind}"
            )
