"""Reading the package's binary files front to back, straight into arrays.

Each array is read with one ``readinto`` into its final, writable array, so
no intermediate ``bytes`` copy is made.  Every read is checked against the
bytes left in the file before anything is allocated: a file shorter than its
headers say, or one with bytes after its last record, raises the caller's
``EncSearchError`` subclass rather than a ``struct`` or numpy error.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import EncSearchError


class BinaryReader:
    def __init__(self, fh: BinaryIO, path: str | Path, kind: str, error: type[EncSearchError]):
        self._fh = fh
        self._left = os.fstat(fh.fileno()).st_size - fh.tell()
        self._path = path
        self._kind = kind
        self._error = error

    def _read_into(self, buf: bytearray | np.ndarray, nbytes: int) -> None:
        if self._fh.readinto(buf) != nbytes:
            raise self._error(f"{self._path}: truncated {self._kind}")
        self._left -= nbytes

    def magic(self, expected: bytes) -> None:
        """Check the 4-byte magic against the one ``save`` writes."""
        magic = self._fh.read(4)
        if magic != expected:
            raise self._error(
                f"{self._path}: not a {self._kind} (magic {magic!r}, expected {expected!r})"
            )
        self._left -= 4

    def unpack(self, layout: struct.Struct) -> tuple:
        buf = bytearray(layout.size)
        self._read_into(buf, layout.size)
        return layout.unpack(buf)

    def array(self, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
        nbytes = np.dtype(dtype).itemsize * math.prod(shape)
        if nbytes > self._left:  # before allocating what a bad header asks for
            raise self._error(f"{self._path}: truncated {self._kind}")
        out = np.empty(shape, dtype=dtype)
        self._read_into(out, nbytes)
        return out

    def end(self) -> None:
        """Check that the last record ended the file."""
        if self._left:
            raise self._error(
                f"{self._path}: {self._left} bytes after the last record of the {self._kind}"
            )
