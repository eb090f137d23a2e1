"""Annotation vectors: the grid container the decoder attends over and the
``.annv`` feature files it is read from. An image encoder runs outside
capreg and writes those files; capreg does not compute features itself."""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

_MAGIC = b"ANNV"
_VERSION = 1


class DataError(Exception):
    """A malformed input file or record (features, embeddings, manifest,
    evaluate files); the CLI exits 2."""


@dataclass(frozen=True)
class AnnotationSet:
    """L annotation vectors of dimension D arranged on a rows x cols grid."""

    vectors: np.ndarray  # (L, D)
    rows: int
    cols: int

    def __post_init__(self):
        if self.vectors.ndim != 2:
            raise ValueError("vectors must be a (L, D) array")
        if self.rows * self.cols != self.vectors.shape[0]:
            raise ValueError("grid geometry does not match vector count")
        if not np.all(np.isfinite(self.vectors)):
            raise ValueError("non-finite annotation values")

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def save_features(a: AnnotationSet, path) -> None:
    payload = a.vectors.reshape(a.rows, a.cols, a.dim).astype("<f4").tobytes()
    header = _MAGIC + struct.pack("<IIII", _VERSION, a.rows, a.cols, a.dim)
    crc = zlib.crc32(header + payload)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
        fh.write(struct.pack("<I", crc))


def load_features(path) -> AnnotationSet:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 24 or raw[:4] != _MAGIC:
        raise DataError(f"{path}: not an annotation feature file")
    version, rows, cols, channels = struct.unpack("<IIII", raw[4:20])
    if version != _VERSION:
        raise DataError(f"{path}: unsupported version {version}")
    expected = 20 + rows * cols * channels * 4 + 4
    if len(raw) != expected:
        raise DataError(f"{path}: truncated payload ({len(raw)} of {expected} bytes)")
    stored_crc, = struct.unpack("<I", raw[-4:])
    if zlib.crc32(raw[:-4]) != stored_crc:
        raise DataError(f"{path}: checksum mismatch")
    if rows * cols == 0 or channels == 0:
        raise DataError(f"{path}: empty {rows}x{cols}x{channels} grid")
    grid = np.frombuffer(raw[20:-4], dtype="<f4").reshape(rows, cols, channels)
    vectors = grid.reshape(rows * cols, channels).astype(np.float64)
    try:
        return AnnotationSet(vectors, rows, cols)
    except ValueError as e:
        raise DataError(f"{path}: {e}") from e
