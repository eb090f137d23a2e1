"""Annotation vectors: the grid container the decoder attends over and the
``.annv`` feature files it is read from. An image encoder runs outside
capreg and writes those files; capreg does not compute features itself.
Feature files, embedding tables and checkpoints share one layout, written
by ``write_framed`` and read by ``read_framed``."""

from __future__ import annotations

import io
import json
import os
import struct
import sys
import zlib
from dataclasses import dataclass

import numpy as np

_MAGIC = b"ANNV"
_VERSION = 4  # shared by every framed format; above each one's last own version


class DataError(Exception):
    """A malformed input file or record (features, embeddings, manifest,
    evaluate files); the CLI exits 2."""


def _parse_json(text: str | bytes, where, error: type[Exception]):
    """``json.loads(text)``, bytes as UTF-8; a refusal raises ``error`` naming ``where``."""
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except UnicodeDecodeError as e:
        raise error(f"{where}: not UTF-8: {e}") from e
    except RecursionError:
        raise error(f"{where}: JSON nests too deeply") from None
    except json.JSONDecodeError as e:
        raise error(f"{where}: parse error: {e}") from e
    except ValueError as e:  # the one other refusal: an int past Python's digit limit
        raise error(f"{where}: integer too long (more than "
                    f"{sys.get_int_max_str_digits()} digits)") from e


def write_framed(path, magic: bytes, header: dict, dtype: str, arrays) -> None:
    """Write ``magic``, the version, the header's length, the header as JSON,
    each of ``arrays`` as ``dtype`` values and a CRC32 of all that, streamed."""
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    crc = 0
    with open(path, "wb") as fh:
        for chunk in (magic + struct.pack("<II", _VERSION, len(blob)) + blob,
                      *(np.ascontiguousarray(a, dtype) for a in arrays)):
            crc = zlib.crc32(chunk, crc)
            fh.write(chunk)
        fh.write(struct.pack("<I", crc))


def read_framed(path, magic: bytes, dtype: str,
                error: type[Exception]) -> tuple[dict, np.ndarray]:
    """The header and flat payload of a file ``write_framed`` wrote; a defect
    of the framing raises ``error``. The payload is sized from the file, and
    read into an aligned array of its own: a product over unaligned rows
    runs about 3x slower."""
    with open(path, "rb") as fh:
        if not fh.seekable():  # a pipe: its size is known once it is read
            fh = io.BytesIO(fh.read())
        size = fh.seek(0, os.SEEK_END)
        fh.seek(0)
        head = fh.read(12)
        if len(head) < 12 or head[:4] != magic:
            raise error(f"{path}: no {magic.decode()} header")
        version, header_len = struct.unpack_from("<II", head, 4)
        if version != _VERSION:
            raise error(f"{path}: unsupported version {version}")
        count, partial = divmod(size - 16 - header_len, np.dtype(dtype).itemsize)
        if count < 0:
            raise error(f"{path}: truncated header")
        if partial:
            raise error(f"{path}: truncated or padded payload: not a whole number of values")
        blob, payload = fh.read(header_len), np.empty(count, dtype)
        read, stored = fh.readinto(payload), fh.read(5)
    if (len(blob), read, len(stored)) != (header_len, payload.nbytes, 4):
        raise error(f"{path}: file changed while it was read")
    if zlib.crc32(payload, zlib.crc32(blob, zlib.crc32(head))) != int.from_bytes(stored, "little"):
        raise error(f"{path}: checksum mismatch")
    header = _parse_json(blob, f"{path}: header", error)
    if not isinstance(header, dict):
        raise error(f"{path}: header must be a JSON object")
    return header, payload


def check_count(path, payload: np.ndarray, count: int, error: type[Exception]) -> None:
    """Refuse a payload that holds other than the ``count`` values its header declares."""
    if count > payload.size:
        raise error(f"{path}: truncated payload: the header declares {count} values, "
                    f"the file holds {payload.size}")
    if count < payload.size:
        raise error(f"{path}: {(payload.size - count) * payload.itemsize} bytes after "
                    f"the {count} values the header declares")


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
    """The header holds ``rows``, ``cols`` and ``dim``; the payload is the
    grid as float32, row-major over rows, then columns, then components."""
    write_framed(path, _MAGIC, {"rows": int(a.rows), "cols": int(a.cols), "dim": a.dim}, "<f4",
                 [a.vectors])


def load_features(path) -> AnnotationSet:
    header, payload = read_framed(path, _MAGIC, "<f4", DataError)
    rows, cols, dim = dims = [header.get(key) for key in ("rows", "cols", "dim")]
    if not all(type(n) is int and n >= 0 for n in dims):
        raise DataError(f"{path}: header rows, cols and dim must be integers >= 0, got {dims}")
    if rows * cols == 0 or dim == 0:
        raise DataError(f"{path}: empty {rows}x{cols}x{dim} grid")
    check_count(path, payload, rows * cols * dim, DataError)
    try:
        return AnnotationSet(payload.reshape(rows * cols, dim).astype(np.float64), rows, cols)
    except ValueError as e:
        raise DataError(f"{path}: {e}") from e
